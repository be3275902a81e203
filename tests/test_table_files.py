"""A table's files are exactly the files its catalog names.

``repro.storage.table`` owns every table's HDFS files: an append is
undone by truncate on abort, a file the aborted transaction created is
deleted, and DROP TABLE / ALTER TABLE have commit delete the files they
retire. After every statement of a script over AO, CO and Parquet
tables, partitioned and not, with the block cache on, the files under
``engine.data_path`` must be exactly those the visible ``gp_segfile``
rows reference, and every table must hold the rows of a Python model.
"""

import pytest

from repro import Engine
from repro.errors import LockTimeout, StorageError, TransactionError
from repro.storage.hadoop_formats import HawqTableInputFormat

ORIENTATION = {"ao": "row", "co": "column", "parquet": "parquet"}
#: The orientation each format is altered to and back from.
ALTERED = {"ao": "column", "co": "parquet", "parquet": "row"}


def make_engine():
    return Engine(num_segment_hosts=2, segments_per_host=2)


def ddl(name, fmt, partitioned):
    partition = (
        " PARTITION BY RANGE (a) (START (0) END (1000) EVERY (250))"
        if partitioned
        else ""
    )
    return (
        f"CREATE TABLE {name} (a INT, b TEXT) "
        f"WITH (appendonly=true, orientation={ORIENTATION[fmt]}) "
        f"DISTRIBUTED BY (a){partition}"
    )


def values(rows):
    return ", ".join(f"({a}, '{b}')" for a, b in rows)


def files_on_hdfs(engine):
    return {s.path for s in engine.hdfs.list_status(engine.data_path + "/")}


def files_in_catalog(engine):
    with engine.txns.run() as txn:
        snapshot = txn.statement_snapshot()
        return {
            path
            for relation in engine.catalog.relations(snapshot)
            for segfile in engine.catalog.segfiles(relation["name"], snapshot)
            for path in segfile["paths"]
        }


class Script:
    """Runs statements on one session and checks both invariants after
    each: the files, and every table's rows against ``model``."""

    def __init__(self):
        self.engine = make_engine()
        self.session = self.engine.connect()
        self.model = {}

    def run(self, *statements):
        for sql in statements:
            self.session.execute(sql)
        self.check(statements[-1])

    def load(self, name, rows):
        self.session.load_rows(name, rows)
        self.model[name] += rows
        self.check(f"load {name}")

    def check(self, step):
        assert files_on_hdfs(self.engine) == files_in_catalog(self.engine), step
        for name, rows in self.model.items():
            assert sorted(self.session.query(f"SELECT a, b FROM {name}")) == sorted(
                rows
            ), (step, name)


@pytest.mark.parametrize("partitioned", [False, True], ids=["plain", "partitioned"])
@pytest.mark.parametrize("fmt", ["ao", "co", "parquet"])
def test_files_follow_the_catalog_through_every_statement(fmt, partitioned):
    script = Script()
    t = f"t_{fmt}"
    script.run(ddl(t, fmt, partitioned))
    script.model[t] = []
    script.load(t, [(i, f"l{i % 7}") for i in range(0, 1000, 3)])
    inserted = [(1, "x"), (502, "y"), (999, "z")]
    script.model[t] += inserted
    script.run(f"INSERT INTO {t} VALUES {values(inserted)}")

    script.run(f"ALTER TABLE {t} SET WITH (orientation={ALTERED[fmt]})")
    script.run(
        "BEGIN",
        f"ALTER TABLE {t} SET WITH (orientation={ORIENTATION[fmt]})",
        f"INSERT INTO {t} VALUES (7, 'gone')",
        "ROLLBACK",
    )
    script.model[t].append((8, "kept"))
    script.run(f"INSERT INTO {t} VALUES (8, 'kept')")

    script.run("BEGIN", f"INSERT INTO {t} VALUES (9, 'aborted')", "ROLLBACK")
    script.model[t] = []
    script.run(f"TRUNCATE TABLE {t}")
    script.model[t] += inserted
    script.run(f"INSERT INTO {t} VALUES {values(inserted)}")
    script.run("VACUUM")

    script.run("BEGIN", f"DROP TABLE {t}", "ROLLBACK")
    del script.model[t]
    script.run(f"DROP TABLE {t}")
    assert files_on_hdfs(script.engine) == set()

    script.run(ddl(t, fmt, partitioned))
    script.model[t] = list(inserted)
    script.run(f"INSERT INTO {t} VALUES {values(inserted)}")
    script.load(t, [(i, "again") for i in range(0, 1000, 11)])


@pytest.mark.parametrize("fmt", ["ao", "co", "parquet"])
def test_insert_after_a_rolled_back_alter_keeps_every_row(fmt):
    """The rolled-back rewrite's files are deleted and its generation is
    gone with them: the INSERT appends at the committed paths."""
    script = Script()
    script.run(ddl("u", fmt, False))
    script.model["u"] = [(1, "a"), (2, "b"), (3, "c"), (4, "d")]
    script.run(f"INSERT INTO u VALUES {values(script.model['u'])}")
    script.run(
        "BEGIN", f"ALTER TABLE u SET WITH (orientation={ALTERED[fmt]})", "ROLLBACK"
    )
    script.model["u"].append((5, "v"))
    script.run("INSERT INTO u VALUES (5, 'v')")
    assert script.session.query("SELECT count(*) FROM u") == [(5,)]


def test_a_rollback_of_two_appends_to_one_file_undoes_both():
    """Abort undoes the latest append first: truncating to the first
    append's length before the second's would ask for a longer file."""
    script = Script()
    script.run(ddl("u", "ao", False))
    script.model["u"] = [(1, "a"), (2, "b")]
    script.run(f"INSERT INTO u VALUES {values(script.model['u'])}")
    script.run(
        "BEGIN",
        f"INSERT INTO u VALUES {values(script.model['u'])}",
        f"INSERT INTO u VALUES {values(script.model['u'])}",
        "ROLLBACK",
    )
    assert not script.session.in_transaction


class TestNameReuse:
    """A dropped or rolled-back table's name can be used again, and the
    block cache never serves the old table's blocks."""

    OLD = [(i, "old") for i in range(40)]
    NEW = [(i, "new") for i in range(0, 40, 4)]

    def reuse(self, session, fmt):
        engine = session.engine
        cache = engine.block_cache
        assert not [key for key in cache._entries if "/t/" in key[1]]
        assert cache.total_bytes == sum(e.nbytes for e in cache._entries.values())
        assert files_on_hdfs(engine) == set()
        session.execute(ddl("t", fmt, False))
        session.execute(f"INSERT INTO t VALUES {values(self.NEW)}")
        assert sorted(session.query("SELECT a, b FROM t")) == self.NEW
        assert files_on_hdfs(engine) == files_in_catalog(engine)

    @pytest.mark.parametrize("fmt", ["ao", "co", "parquet"])
    def test_drop_then_create_the_same_name(self, fmt):
        session = make_engine().connect()
        session.execute(ddl("t", fmt, False))
        session.execute(f"INSERT INTO t VALUES {values(self.OLD)}")
        assert len(session.query("SELECT a, b FROM t")) == len(self.OLD)  # cached
        assert session.engine.block_cache.misses > 0
        session.execute("DROP TABLE t")
        self.reuse(session, fmt)

    @pytest.mark.parametrize("fmt", ["ao", "co", "parquet"])
    def test_rolled_back_create_then_create_the_same_name(self, fmt):
        session = make_engine().connect()
        session.execute("BEGIN")
        session.execute(ddl("t", fmt, False))
        session.execute(f"INSERT INTO t VALUES {values(self.OLD)}")
        assert len(session.query("SELECT a, b FROM t")) == len(self.OLD)  # cached
        session.execute("ROLLBACK")
        self.reuse(session, fmt)


class TestOlderSnapshots:
    """A serializable reader keeps reading what its snapshot sees: the
    files a committed DROP or ALTER retired stay until it ends, and it may
    not append to a segfile whose latest version it cannot see."""

    ROWS = [(i, f"r{i % 5}") for i in range(30)]

    def open_reader(self, engine, fmt):
        """A serializable reader whose snapshot sees ``ROWS`` in ``t``. It
        fixes the snapshot by reading another table: a read of ``t`` would
        hold ACCESS SHARE on it, and the writer's DROP or ALTER could not
        take its lock."""
        writer, reader = engine.connect(), engine.connect()
        writer.execute(ddl("t", fmt, False))
        writer.execute(f"INSERT INTO t VALUES {values(self.ROWS)}")
        writer.execute(ddl("other", fmt, False))
        reader.execute("BEGIN ISOLATION LEVEL SERIALIZABLE")
        assert reader.query("SELECT a, b FROM other") == []
        return writer, reader

    @pytest.mark.parametrize("fmt", ["ao", "co", "parquet"])
    def test_a_committed_alter_keeps_the_old_files_for_the_reader(self, fmt):
        engine = make_engine()
        writer, reader = self.open_reader(engine, fmt)
        writer.execute(f"ALTER TABLE t SET WITH (orientation={ALTERED[fmt]})")
        engine.block_cache.clear()
        assert sorted(reader.query("SELECT a, b FROM t")) == self.ROWS
        assert files_on_hdfs(engine) > files_in_catalog(engine)
        reader.execute("COMMIT")
        assert files_on_hdfs(engine) == files_in_catalog(engine)
        assert sorted(reader.query("SELECT a, b FROM t")) == self.ROWS

    @pytest.mark.parametrize("fmt", ["ao", "co", "parquet"])
    def test_a_committed_drop_keeps_the_old_files_for_the_reader(self, fmt):
        engine = make_engine()
        writer, reader = self.open_reader(engine, fmt)
        writer.execute("DROP TABLE t")
        writer.execute(ddl("t", fmt, False))
        writer.execute("INSERT INTO t VALUES (100, 'new')")
        engine.block_cache.clear()
        assert sorted(reader.query("SELECT a, b FROM t")) == self.ROWS
        reader.execute("COMMIT")
        assert files_on_hdfs(engine) == files_in_catalog(engine)
        assert reader.query("SELECT a, b FROM t") == [(100, "new")]

    #: DDL statement -> ``t``'s pg_class storage format(s) and row count
    #: once the statement has run.
    LOCKED_OUT = {
        "DROP TABLE t": ([], None),
        "ALTER TABLE t SET WITH (orientation=column)": ([("co",)], len(ROWS)),
        "TRUNCATE t": ([("ao",)], 0),
    }

    @pytest.mark.parametrize("statement", sorted(LOCKED_OUT))
    def test_ddl_under_an_open_reader_fails_and_changes_nothing(self, statement):
        """DDL takes ACCESS EXCLUSIVE without waiting: while a reader holds
        ACCESS SHARE on ``t`` the statement fails with LockTimeout before
        it changes anything, and succeeds once the reader has ended."""
        engine = make_engine()
        writer, reader = engine.connect(), engine.connect()
        writer.execute(ddl("t", "ao", False))
        writer.execute(f"INSERT INTO t VALUES {values(self.ROWS)}")
        pg_class = "SELECT storage_format FROM pg_class WHERE name = 't'"
        reader.execute("BEGIN")
        assert sorted(reader.query("SELECT a, b FROM t")) == self.ROWS
        files_before = files_in_catalog(engine)
        with pytest.raises(LockTimeout, match="rel:t"):
            writer.execute(statement)
        assert files_on_hdfs(engine) == files_in_catalog(engine) == files_before
        assert writer.query(pg_class) == [("ao",)]
        assert sorted(reader.query("SELECT a, b FROM t")) == self.ROWS
        reader.execute("COMMIT")

        writer.execute(statement)
        formats, count = self.LOCKED_OUT[statement]
        assert files_on_hdfs(engine) == files_in_catalog(engine)
        assert writer.query(pg_class) == formats
        if count is not None:
            assert len(writer.query("SELECT a FROM t")) == count

    @pytest.mark.parametrize("first_rows", [[], [(1, "a")]], ids=["new", "append"])
    def test_an_insert_behind_a_committed_insert_fails(self, first_rows):
        """The writer takes lane 0, commits and frees it; the reader then
        gets lane 0 while its snapshot sees none, or an older version, of
        the writer's segfile rows."""
        engine = make_engine()
        writer, reader = engine.connect(), engine.connect()
        writer.execute(ddl("t", "ao", False))
        if first_rows:
            writer.execute(f"INSERT INTO t VALUES {values(first_rows)}")
        reader.execute("BEGIN ISOLATION LEVEL SERIALIZABLE")
        assert sorted(reader.query("SELECT a, b FROM t")) == first_rows
        writer.execute("INSERT INTO t VALUES (2, 'w'), (3, 'w'), (4, 'w')")
        with pytest.raises(TransactionError, match="could not serialize"):
            reader.execute("INSERT INTO t VALUES (5, 'r'), (6, 'r')")
        if reader.in_transaction:
            reader.execute("ROLLBACK")
        assert files_on_hdfs(engine) == files_in_catalog(engine)
        expected = first_rows + [(2, "w"), (3, "w"), (4, "w")]
        assert sorted(reader.query("SELECT a, b FROM t")) == expected
        reader.execute("INSERT INTO t VALUES (5, 'r')")
        assert sorted(reader.query("SELECT a, b FROM t")) == expected + [(5, "r")]


@pytest.mark.parametrize("cache_bytes", [0, 1 << 24], ids=["no-cache", "cache"])
@pytest.mark.parametrize("fmt", ["ao", "co", "parquet"])
def test_a_file_cut_short_is_an_error_not_fewer_rows(fmt, cache_bytes):
    """A committed file shorter than its logical length has lost rows: a
    scan raises instead of returning the rows that are left."""
    engine = Engine(
        num_segment_hosts=2, segments_per_host=2, block_cache_bytes=cache_bytes
    )
    session = engine.connect()
    session.execute(ddl("t", fmt, False))
    session.execute(f"INSERT INTO t VALUES {values(TestOlderSnapshots.ROWS)}")
    path = min(files_in_catalog(engine))
    engine.hdfs.client().truncate(path, 0)
    with pytest.raises(StorageError):
        session.query("SELECT a, b FROM t")


def test_reading_through_the_input_format_leaves_no_transaction():
    engine = Engine(num_segment_hosts=2, segments_per_host=1)
    session = engine.connect()
    session.execute("CREATE TABLE w (a INT) DISTRIBUTED BY (a)")
    session.execute("INSERT INTO w VALUES (1), (2), (3), (4)")
    assert sorted(HawqTableInputFormat(engine).read_table("w")) == [
        (1,), (2,), (3,), (4,)
    ]
    assert engine.crash_master() == []


@pytest.mark.parametrize("fmt", ["ao", "co", "parquet"])
def test_a_drop_committed_mid_read_table_leaves_the_files_to_the_reader(fmt):
    """The InputFormat takes no lock, so a DROP can commit while it
    reads: the reader still gets every row its snapshot saw, and the
    dropped files go once it has finished."""
    engine = make_engine()
    session = engine.connect()
    session.execute(ddl("t", fmt, False))
    session.execute(f"INSERT INTO t VALUES {values(TestOlderSnapshots.ROWS)}")
    rows = HawqTableInputFormat(engine).read_table("t")
    first = next(rows)
    session.execute("DROP TABLE t")
    engine.block_cache.clear()
    assert files_on_hdfs(engine) > files_in_catalog(engine)
    assert sorted([first, *rows]) == TestOlderSnapshots.ROWS
    assert files_on_hdfs(engine) == files_in_catalog(engine)
