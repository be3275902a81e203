"""Catalog versions are immutable and shared by reference.

``CatalogTable.scan`` hands out the stored :class:`CatalogRow` itself —
to every reader, to the WAL change log and to the standby's replayed
catalog. That is only sound if nothing ever changes a version after it
is written, so these tests (a) make every mutator raise, (b) fingerprint
every version at the moment it is appended and re-check all of them
after a workload that crosses every writer, on the primary and the
standby, across a master failover, and (c) re-prove transaction
isolation, which no longer rests on readers holding private copies.
"""

import copy
import dataclasses
import pickle

import pytest

from repro import Engine
from repro.catalog.service import CatalogRow
from repro.errors import SemanticError
from repro.tpch import QUERIES, load_tpch


def snapshot_of(engine):
    return engine.txns.begin().statement_snapshot()


@pytest.fixture
def engine():
    return Engine(num_segment_hosts=2, segments_per_host=2)


@pytest.fixture
def session(engine):
    session = engine.connect()
    session.execute("CREATE TABLE t (a INT, b TEXT) DISTRIBUTED BY (a)")
    session.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')")
    session.execute("ANALYZE t")
    return session


# ---------------------------------------------------------------- (a) frozen
MUTATORS = {
    "setitem": lambda row: row.__setitem__("name", "other"),
    "delitem": lambda row: row.__delitem__(next(iter(row))),
    "clear": lambda row: row.clear(),
    "pop": lambda row: row.pop(next(iter(row))),
    "popitem": lambda row: row.popitem(),
    "setdefault": lambda row: row.setdefault("brand_new_key", 1),
    "update": lambda row: row.update(brand_new_key=1),
    "ior": lambda row: row.__ior__({"brand_new_key": 1}),
}


class TestRowsAreReadOnly:
    def rows(self, engine):
        snapshot = snapshot_of(engine)
        catalog = engine.catalog
        return {
            "scan": catalog.table("pg_class").scan(snapshot)[0],
            "lookup_relation": catalog.lookup_relation("t", snapshot),
            "segfiles": catalog.segfiles("t", snapshot)[0],
            "relations": catalog.relations(snapshot, ["t"])[0],
        }

    @pytest.mark.parametrize("mutator", sorted(MUTATORS))
    def test_every_mutator_raises(self, engine, session, mutator):
        for source, row in self.rows(engine).items():
            before = dict(row)
            with pytest.raises(TypeError):
                MUTATORS[mutator](row)
            assert dict(row) == before, (source, mutator)

    def test_readers_share_the_stored_version(self, engine, session):
        snapshot = snapshot_of(engine)
        first = engine.catalog.lookup_relation("t", snapshot)
        assert engine.catalog.lookup_relation("t", snapshot) is first
        assert engine.catalog.get_schema("t", snapshot) is first["schema"]
        stored = [v.data for v in engine.catalog.table("pg_class")._rows]
        assert any(first is data for data in stored)

    def test_schema_and_stats_are_frozen(self, engine, session):
        snapshot = snapshot_of(engine)
        schema = engine.catalog.get_schema("t", snapshot)
        stats = engine.catalog.get_stats("t", snapshot)
        with pytest.raises(dataclasses.FrozenInstanceError):
            schema.name = "other"
        with pytest.raises(dataclasses.FrozenInstanceError):
            schema.columns = []
        with pytest.raises(dataclasses.FrozenInstanceError):
            stats.row_count = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            stats.columns["a"].n_distinct = 0.0
        assert schema.name == "t"  # __post_init__ still lower-cases
        assert stats.row_count == 3.0

    def test_copy_and_pickle_carry_a_row(self, engine, session):
        row = engine.catalog.lookup_relation("t", snapshot_of(engine))
        for clone in (
            copy.copy(row),
            copy.deepcopy(row),
            pickle.loads(pickle.dumps(row, protocol=pickle.HIGHEST_PROTOCOL)),
        ):
            assert type(clone) is CatalogRow
            assert clone == row and clone is not row
            with pytest.raises(TypeError):
                clone["name"] = "other"
        assert copy.deepcopy(row)["schema"] is not row["schema"]

    def test_writers_own_their_containers(self, engine, session):
        """register_segfile / create_table copy the containers they are
        given: a caller mutating its own dict or list afterwards does not
        reach into the stored version."""
        txn = engine.txns.begin()
        snapshot = txn.statement_snapshot()
        paths = {"/x/f0": 10}
        engine.catalog.register_segfile("t", 0, 99, paths, txn.xid)
        paths["/x/f0"] = 11
        children = []
        schema = engine.catalog.get_schema("t", snapshot)
        engine.catalog.create_table(
            dataclasses.replace(schema, name="t2"), txn.xid, snapshot,
            children=children,
        )
        children.append(("t2_1_prt_1", None))
        snapshot = txn.statement_snapshot()
        lane = [
            f for f in engine.catalog.segfiles("t", snapshot, segment_id=0)
            if f["segfile_id"] == 99
        ]
        assert lane[0]["paths"] == {"/x/f0": 10}
        assert engine.catalog.lookup_relation("t2", snapshot)["children"] == []
        engine.txns.abort(txn)


# ---------------------------------------------- (b) no version ever mutated
class Fingerprints:
    """``pickle.dumps`` of every catalog version, taken the moment it is
    appended (the WAL change record carries the stored row itself)."""

    def __init__(self, engine):
        self.seen = []  # (row, fingerprint); holds the row, so ids stay unique
        self.ids = set()
        for catalog in (engine.catalog, engine.standby.catalog):
            for table in catalog.tables.values():
                for version in table._rows:
                    self.add(version.data)
        engine.txns.wal.subscribe(self.on_record)

    def add(self, row):
        if id(row) not in self.ids:
            self.ids.add(id(row))
            self.seen.append((row, pickle.dumps(row)))

    def on_record(self, record):
        if record.kind == "change" and record.op == "insert":
            self.add(record.row)

    def check(self, *catalogs):
        for catalog in catalogs:
            for name, table in catalog.tables.items():
                for version in table._rows:
                    assert id(version.data) in self.ids, f"unlogged {name} version"
        changed = [row for row, before in self.seen if pickle.dumps(row) != before]
        assert not changed
        return len(self.seen)


def cross_every_writer(engine):
    session = engine.connect()
    client = engine.hdfs.client()
    load_tpch(session, scale=0.001)
    session.execute("CREATE TABLE plain (a INT, b TEXT) DISTRIBUTED BY (a)")
    session.execute(
        "CREATE TABLE parted (id INT, g INT) DISTRIBUTED BY (id) "
        "PARTITION BY RANGE (g) (START (0) END (20) EVERY (5))"
    )
    client.write_file("/ext/data.tbl", b"1|alpha\n2|beta\n")
    session.execute(
        "CREATE EXTERNAL TABLE ext (id INT, name TEXT) "
        "LOCATION ('pxf://svc/ext/data.tbl?profile=HdfsTextSimple') FORMAT 'TEXT' ()"
    )
    session.execute(
        "CREATE VIEW busy AS SELECT o_custkey, count(*) AS n FROM orders "
        "GROUP BY o_custkey"
    )
    session.execute("INSERT INTO plain VALUES (1, 'x'), (2, 'y'), (3, 'z')")
    session.execute("INSERT INTO plain VALUES (4, 'w')")  # appends: update_segfile
    session.execute(
        "INSERT INTO parted VALUES " + ", ".join(f"({i}, {i % 20})" for i in range(60))
    )
    client.write_file("/load/in.tbl", b"10|p\n11|q\n")
    session.execute("COPY plain FROM '/load/in.tbl'")
    session.execute("ANALYZE")
    session.execute("ANALYZE plain")  # replaces an existing pg_statistic row
    session.execute("ALTER TABLE plain SET WITH (orientation=column, compresstype=zlib)")
    assert len(session.query("SELECT * FROM plain")) == 6

    session.execute("BEGIN")
    session.execute("CREATE TABLE doomed (a INT)")
    session.execute("INSERT INTO plain VALUES (99, 'never')")
    session.execute("ANALYZE plain")
    session.execute("ROLLBACK")
    assert session.query("SELECT count(*) FROM plain") == [(6,)]

    engine.fail_segment(1)
    assert session.query("SELECT count(*) FROM parted WHERE g = 7") == [(3,)]
    engine.recover_segment(1)

    for number in sorted(QUERIES):
        for sql in QUERIES[number]:
            session.execute(sql)
    # One view AST, shared between statements and between both sides of
    # a self-join inside one statement.
    first = session.query("SELECT count(*) FROM busy")
    assert session.query("SELECT count(*) FROM busy") == first
    assert session.query(
        "SELECT count(*) FROM busy a, busy b WHERE a.o_custkey = b.o_custkey"
    ) == first
    assert session.query("SELECT id, name FROM ext ORDER BY id") == [
        (1, "alpha"), (2, "beta"),
    ]
    assert session.query(
        "SELECT count(*) FROM plain WHERE a IN (SELECT id FROM parted WHERE g < 5)"
    ) == [(4,)]

    session.execute("TRUNCATE TABLE parted")
    session.execute("DROP VIEW busy")
    session.execute("DROP TABLE plain")
    session.execute("DROP TABLE parted")
    session.execute("VACUUM")
    return session


def test_no_version_is_ever_mutated():
    engine = Engine(num_segment_hosts=2, segments_per_host=2)
    standby = engine.standby
    prints = Fingerprints(engine)
    session = cross_every_writer(engine)
    written = prints.check(engine.catalog, standby.catalog)
    assert written > 100  # the writers above really did go through the log

    q3 = session.query(QUERIES[3][-1])
    engine.crash_master()
    assert engine.catalog is standby.catalog
    prints.check(engine.catalog)
    fresh = engine.connect()
    assert fresh.query(QUERIES[3][-1]) == q3
    fresh.execute("CREATE TABLE after_failover (a INT) DISTRIBUTED BY (a)")
    fresh.execute("INSERT INTO after_failover VALUES (1), (2)")
    fresh.execute("ANALYZE after_failover")
    assert fresh.query("SELECT count(*) FROM after_failover") == [(2,)]
    assert prints.check(engine.catalog) > written


def test_standby_replays_the_primary_s_row_objects(engine, session):
    primary = {id(v.data) for v in engine.catalog.table("pg_class")._rows}
    replica = {id(v.data) for v in engine.standby.catalog.table("pg_class")._rows}
    assert replica and replica <= primary


# ------------------------------------------------------------- (c) isolation
class TestIsolationWithSharedVersions:
    def test_uncommitted_create_insert_analyze_stay_private(self, engine, session):
        catalog = engine.catalog
        reader_before = snapshot_of(engine)
        row_before = catalog.lookup_relation("t", reader_before)
        stats_before = catalog.get_stats("t", reader_before)
        files_before = catalog.segfiles("t", reader_before)
        frozen = pickle.dumps((row_before, stats_before, files_before))

        writer = engine.connect()
        writer.execute("BEGIN")
        writer.execute("CREATE TABLE mine (a INT) DISTRIBUTED BY (a)")
        writer.execute("INSERT INTO t VALUES (4, 'w'), (5, 'v')")
        writer.execute("ANALYZE t")
        own = writer._txn.statement_snapshot()
        assert catalog.lookup_relation("mine", own) is not None
        assert catalog.get_stats("t", own).row_count == 5.0
        assert catalog.get_stats("t", own) is not stats_before
        assert sum(f["tupcount"] for f in catalog.segfiles("t", own)) == 5
        assert writer.query("SELECT count(*) FROM t") == [(5,)]

        # A second session, mid-transaction of the first: old versions,
        # and the very same objects it read before.
        other = snapshot_of(engine)
        assert catalog.lookup_relation("mine", other) is None
        assert catalog.get_stats("t", other) is stats_before
        assert sum(f["tupcount"] for f in catalog.segfiles("t", other)) == 3
        assert engine.connect().query("SELECT count(*) FROM t") == [(3,)]
        with pytest.raises(SemanticError):
            engine.connect().query("SELECT * FROM mine")

        writer.execute("ROLLBACK")
        after = snapshot_of(engine)
        assert catalog.lookup_relation("mine", after) is None
        assert catalog.lookup_relation("t", after) is row_before
        assert catalog.get_stats("t", after) is stats_before
        assert pickle.dumps((row_before, stats_before, files_before)) == frozen
        assert session.query("SELECT count(*) FROM t") == [(3,)]

    def test_commit_publishes_new_versions_and_keeps_the_old(self, engine, session):
        catalog = engine.catalog
        old_snapshot = snapshot_of(engine)
        old_stats = catalog.get_stats("t", old_snapshot)
        old_files = catalog.segfiles("t", old_snapshot)
        session.execute("INSERT INTO t VALUES (4, 'w')")
        session.execute("ANALYZE t")
        new_snapshot = snapshot_of(engine)
        assert catalog.get_stats("t", new_snapshot).row_count == 4.0
        assert old_stats.row_count == 3.0
        # The old snapshot still resolves to the old version objects.
        assert catalog.get_stats("t", old_snapshot) is old_stats
        assert [f["tupcount"] for f in catalog.segfiles("t", old_snapshot)] == [
            f["tupcount"] for f in old_files
        ]


# ------------------------------------- partition children: only what is named
class TestPartitionChildrenLookup:
    @pytest.fixture
    def parts(self, session):
        session.execute(
            "CREATE TABLE pt (id INT, g INT) DISTRIBUTED BY (id) "
            "PARTITION BY RANGE (g) (START (0) END (10) EVERY (5))"
        )
        session.execute("INSERT INTO pt VALUES (1, 2), (2, 7), (3, 8)")
        return session

    def plan(self, session, sql):
        from repro.ddl import CatalogAdapter
        from repro.planner.analyzer import Analyzer
        from repro.sql.parser import parse_statement

        snapshot = snapshot_of(session.engine)
        adapter = CatalogAdapter(session.engine.catalog, snapshot)
        query = Analyzer(adapter).analyze(parse_statement(sql))
        return query, snapshot

    def test_mapping_holds_only_the_statement_s_tables(self, parts):
        query, snapshot = self.plan(parts, "SELECT a FROM t WHERE a = 1")
        assert parts._partition_children(query.tables(subplans=True), snapshot) == {}
        query, snapshot = self.plan(parts, "SELECT id FROM pt WHERE g = 7")
        mapping = parts._partition_children(query.tables(subplans=True), snapshot)
        assert list(mapping) == ["pt"]
        assert [name for name, _ in mapping["pt"]] == ["pt_1_prt_1", "pt_1_prt_2"]

    @pytest.mark.parametrize(
        "sql, expected",
        [
            ("SELECT a FROM t WHERE a IN (SELECT id FROM pt WHERE g > 5)", [(2,), (3,)]),
            ("SELECT a FROM t WHERE EXISTS (SELECT 1 FROM pt WHERE id = a AND g < 5)",
             [(1,)]),
            ("SELECT a FROM t WHERE a >= (SELECT max(id) FROM pt)", [(3,)]),
            ("SELECT a FROM t, (SELECT id FROM pt WHERE g = 7) s WHERE a = s.id", [(2,)]),
        ],
    )
    def test_partitioned_table_inside_a_subquery(self, parts, sql, expected):
        """Before decorrelation these tables sit inside expressions, not
        in the FROM list — the children lookup must still find them."""
        query, snapshot = self.plan(parts, sql)
        assert "pt" in parts._partition_children(query.tables(subplans=True), snapshot)
        assert sorted(parts.query(sql)) == expected
