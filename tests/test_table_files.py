"""A table's rows and files under any sequence of statements (paper §5).

:class:`OpSequences` drives two or three sessions, at both isolation
levels, through every write, DDL and maintenance verb, SELECT and faults
over AO, CO, Parquet and partitioned tables, against a model of
committed rows plus each open transaction's changes, snapshot and locks,
and checks the files, the catalog, the standby and the runtime after
every step. ``REPRO_OP_SEQUENCES`` sets how many sequences run. The
hand-written scripts after it each replay one known story, and the
last tests cover what no sequence can reach.
"""

import os

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine as Machine
from hypothesis.stateful import initialize, invariant, precondition, rule

from repro import Engine
from repro.chaos import FaultEvent, FaultInjector, FaultPlan, heal, orphaned_files
from repro.errors import DuplicateObject, LockTimeout, SemanticError, StorageError
from repro.errors import TransactionAbortedByFault, TransactionError, UndefinedObject
from repro.storage.hadoop_formats import HawqTableInputFormat
from tests.conftest import runtime_holds

COLUMNS = "(a INT, b TEXT) WITH (appendonly=true, orientation={})"
TABLES = {  # pt's second leaf is then made CO
    "t_ao": f"CREATE TABLE t_ao {COLUMNS.format('row')} DISTRIBUTED BY (a)",
    "t_co": f"CREATE TABLE t_co {COLUMNS.format('column')} DISTRIBUTED BY (a)",
    "t_pq": f"CREATE TABLE t_pq {COLUMNS.format('parquet')} DISTRIBUTED RANDOMLY",
    "pt": f"CREATE TABLE pt {COLUMNS.format('row')} DISTRIBUTED BY (a) "
    "PARTITION BY RANGE (a) (START (0) END (1000) EVERY (500))",
}
MIXED_LEAF = "ALTER TABLE pt_1_prt_2 SET WITH (orientation=column)"
FILTERS = {
    "": lambda row: True,
    " WHERE a < 500": lambda row: row[0] < 500,
    " WHERE b = 'x'": lambda row: row[1] == "x",
}
#: Few values, on both sides of pt's partition bound: two writes often
#: leave segment files of the same length.
ROWS = st.lists(
    st.tuples(st.sampled_from([0, 1, 499, 500, 998]), st.sampled_from(["x", None])),
    min_size=1,
    max_size=3,
).map(tuple)
#: Rules name a session and a table by index into the example's own.
SESSION, TABLE = st.integers(0, 2), st.integers(0, 3)
#: How a session runs a statement outside a block: alone, or after a
#: BEGIN at that level.
STYLES = ("autocommit", "read committed", "serializable")
#: Lock modes as the model names them: ACCESS SHARE, ROW EXCLUSIVE,
#: ANALYZE's SHARE UPDATE EXCLUSIVE, ACCESS EXCLUSIVE.
SHARE, ROW_EXCLUSIVE, ANALYZE, EXCLUSIVE = "AS", "RE", "SUE", "AE"


def conflict(held, wanted):
    return EXCLUSIVE in (held, wanted) or held == wanted == ANALYZE


def values(rows):
    return ", ".join(f"({a}, {'NULL' if b is None else repr(b)})" for a, b in rows)


class Txn:
    def __init__(self, serializable=False):
        self.serializable = serializable
        #: (committed tables, commit count) at its first statement.
        self.snapshot = None
        #: Table -> ("append", rows) or ("replace", rows or None: dropped).
        self.own = {}
        self.locks = {}
        self.changed = set()  # tables whose catalog rows it wrote

    def append(self, name, rows):
        kind, old = self.own.get(name, ("append", ()))
        self.own[name] = (kind, old + rows)
        self.changed.add(name)


class OpSequences(Machine):
    @initialize(
        styles=st.lists(st.sampled_from(STYLES), min_size=2, max_size=3),
        focus=st.lists(st.sampled_from(sorted(TABLES)), min_size=1, unique=True),
        cache=st.booleans(),
        loads=st.fixed_dictionaries({name: ROWS for name in TABLES}),
    )
    def build(self, styles, focus, cache, loads):
        """Every table exists, but the rules act on the tables of
        ``focus`` only and block-style sessions open their own blocks:
        the steps that make a defect meet far more often."""
        #: The last session is an administrator's, for VACUUM only.
        self.styles, self.focus = [*styles, "autocommit"], focus
        self.engine = Engine(
            num_segment_hosts=2,
            segments_per_host=2,
            block_cache_bytes=(1 << 24) if cache else 0,
        )
        self.sessions = [self.engine.connect() for _ in self.styles]
        self.txns = [None] * len(self.sessions)
        self.committed = dict(loads)  # table -> committed rows
        #: Commits that wrote catalog rows, and each table's latest.
        self.commits, self.last_change = 0, {}
        setup = self.engine.connect()
        for name, rows in sorted(loads.items()):
            setup.execute(TABLES[name])
            if name == "pt":
                setup.execute(MIXED_LEAF)
            setup.load_rows(name, list(rows))

    def session(self, s):
        return s % (len(self.sessions) - 1)

    def table(self, t):
        return self.focus[t % len(self.focus)]

    # ------------------------------------------------------------- model
    def view(self, txn, name):
        """The rows of ``name`` ``txn`` sees; None: no such table."""
        base = txn.snapshot[0] if txn.serializable else self.committed
        kind, rows = txn.own.get(name, ("append", ()))
        if kind == "replace" or name not in base:
            return rows if kind == "replace" else None
        return base[name] + rows

    def lock(self, txn, name, mode):
        for other in self.txns:
            if other not in (None, txn) and any(
                conflict(held, mode) for held in other.locks.get(name, ())
            ):
                return LockTimeout
        txn.locks.setdefault(name, set()).add(mode)
        return None

    def stale(self, txn, name):
        """A serializable writer whose snapshot misses a commit that
        wrote ``name``'s catalog rows fails to serialize."""
        if txn.serializable and self.last_change.get(name, -1) > txn.snapshot[1]:
            return TransactionError
        return None

    def commit(self, txn):
        for name, (kind, rows) in txn.own.items():
            if kind == "append":
                self.committed[name] += rows
            elif rows is None:
                del self.committed[name]
            else:
                self.committed[name] = rows
        if txn.changed:
            self.commits += 1
            self.last_change.update(dict.fromkeys(txn.changed, self.commits))

    def catalog(self):
        """Every catalog row a fresh snapshot sees, by identity."""
        snapshot = self.engine.txns.xids.snapshot(0)
        return {
            name: sorted(map(id, table.scan(snapshot)))
            for name, table in self.engine.catalog.tables.items()
        }

    def run(self, s, sql, predict):
        """Run ``sql`` on session ``s``: ``predict(txn)`` returns the error
        the model expects, or None once it has applied the statement to
        ``txn``. Returns the rows, or None after the expected error."""
        if self.txns[s] is None and self.styles[s] != "autocommit":
            self.begin(s, self.styles[s] == "serializable")
        txn = self.txns[s] or Txn()
        if txn.serializable and txn.snapshot is None:
            txn.snapshot = (dict(self.committed), self.commits)
        error = predict(txn)
        if error is None:
            rows = self.sessions[s].query(sql)
            if self.txns[s] is None:
                self.commit(txn)
            return rows
        before = self.catalog()
        with pytest.raises(error):
            self.sessions[s].execute(sql)
        self.txns[s] = None  # an error ends the transaction
        assert self.catalog() == before, sql
        return None

    def statement(self, s, name, sql, mode, effect, missing=UndefinedObject):
        """The usual order: ``name`` must be visible, then its lock, then
        a writer's snapshot must see its latest commit; ``effect(txn,
        rows)`` applies the statement, or returns its error."""

        def predict(txn):
            rows = self.view(txn, name)
            if rows is None:
                return missing
            error = self.lock(txn, name, mode)
            if error is None and mode != SHARE:
                error = self.stale(txn, name)
            return error or effect(txn, rows)

        return self.run(s, sql, predict)

    # ------------------------------------------------ transaction control
    def verb(self, s, sql, in_block):
        """BEGIN outside a block, COMMIT or ROLLBACK in one; else it
        raises TransactionError and leaves the session as it was."""
        if (self.txns[s] is not None) != in_block:
            with pytest.raises(TransactionError):
                self.sessions[s].execute(sql)
            return False
        self.sessions[s].execute(sql)
        return True

    @rule(s=SESSION, serializable=st.booleans())
    def begin(self, s, serializable):
        s, level = self.session(s), "SERIALIZABLE" if serializable else "READ COMMITTED"
        if self.verb(s, f"BEGIN ISOLATION LEVEL {level}", in_block=False):
            self.txns[s] = Txn(serializable)

    @rule(s=SESSION, commit=st.booleans())
    def end(self, s, commit):
        s = self.session(s)
        if self.verb(s, "COMMIT" if commit else "ROLLBACK", in_block=True):
            if commit:
                self.commit(self.txns[s])
            self.txns[s] = None

    # ------------------------------------------------------------ writes
    @rule(s=SESSION, t=TABLE, rows=ROWS)
    def insert(self, s, t, rows):
        name = self.table(t)
        sql = f"INSERT INTO {name} VALUES {values(rows)}"
        self.statement(
            self.session(s), name, sql, ROW_EXCLUSIVE, lambda txn, _: txn.append(name, rows)
        )

    @rule(s=SESSION, t=TABLE, source=st.sampled_from(sorted(TABLES)))
    def insert_select(self, s, t, source):
        name = self.table(t)

        def effect(txn, _):
            rows = self.view(txn, source)
            if rows is None:
                return SemanticError
            error = self.lock(txn, source, SHARE)
            if error is None and rows:
                txn.append(name, rows)
            return error

        sql = f"INSERT INTO {name} SELECT a, b FROM {source}"
        self.statement(self.session(s), name, sql, ROW_EXCLUSIVE, effect)

    @rule(s=SESSION, t=TABLE, rows=ROWS)
    def load(self, s, t, rows):
        """``load_rows`` runs in a transaction of its own."""
        name, session, txn = self.table(t), self.sessions[self.session(s)], Txn()
        error = (
            self.lock(txn, name, ROW_EXCLUSIVE)
            if name in self.committed
            else UndefinedObject
        )
        if error is None:
            session.load_rows(name, list(rows))
            txn.append(name, rows)
            self.commit(txn)
            return
        before = self.catalog()
        with pytest.raises(error):
            session.load_rows(name, list(rows))
        assert self.catalog() == before

    # ------------------------------------------------ DDL and maintenance
    def replace(self, s, t, sql, change):
        """``change(rows)``: the table's rows after ``sql`` (None: gone).
        A TRUNCATE of no rows writes no catalog row."""
        name = self.table(t)

        def effect(txn, rows):
            txn.own[name] = ("replace", change(rows))
            if rows or not sql.startswith("TRUNCATE"):
                txn.changed.add(name)

        self.statement(self.session(s), name, sql.format(name), EXCLUSIVE, effect)

    @rule(s=SESSION, t=TABLE)
    def truncate(self, s, t):
        self.replace(s, t, "TRUNCATE TABLE {}", lambda rows: ())

    @rule(s=SESSION, t=TABLE, to=st.sampled_from(["row", "column", "parquet"]))
    def alter(self, s, t, to):
        sql = "ALTER TABLE {} SET WITH (orientation=%s)" % to
        self.replace(s, t, sql, lambda rows: rows)

    @rule(s=SESSION, t=TABLE)
    def drop(self, s, t):
        self.replace(s, t, "DROP TABLE {}", lambda rows: None)

    @rule(s=SESSION, t=TABLE)
    def create(self, s, t):
        s, name = self.session(s), self.table(t)

        def predict(txn):  # locks before it looks
            error = self.lock(txn, name, EXCLUSIVE)
            if error is None and self.view(txn, name) is not None:
                error = DuplicateObject
            error = error or self.stale(txn, name)
            if error is None:
                txn.own[name] = ("replace", ())
                txn.changed.add(name)
            return error

        if self.run(s, TABLES[name], predict) is not None and name == "pt":
            self.run(s, MIXED_LEAF, lambda txn: None)

    @rule(s=SESSION, t=TABLE)
    def analyze(self, s, t):
        name = self.table(t)
        self.statement(
            self.session(s), name, f"ANALYZE {name}", ANALYZE,
            lambda txn, _: txn.changed.add(name),
        )

    @rule(s=st.none() | SESSION, t=TABLE)
    def vacuum(self, s, t):
        """The administrator's session (``s`` None) vacuums every table
        and the catalog; a session vacuums one table, outside a block."""
        if s is None:
            self.run(len(self.sessions) - 1, "VACUUM", lambda txn: None)
            return
        s, name = self.session(s), self.table(t)
        if self.txns[s] is not None or self.styles[s] != "autocommit":
            self.run(s, f"VACUUM {name}", lambda txn: TransactionError)
        else:
            self.statement(s, name, f"VACUUM {name}", SHARE, lambda txn, _: None)

    # ------------------------------------------------------------- reads
    def select(self, s, name, where=""):
        expected = []

        def effect(txn, rows):
            expected.extend(filter(FILTERS[where], rows))

        sql = f"SELECT a, b FROM {name}{where}"
        rows = self.statement(s, name, sql, SHARE, effect, missing=SemanticError)
        if rows is not None:
            assert sorted(rows, key=repr) == sorted(expected, key=repr), sql

    @rule(s=SESSION, t=TABLE, where=st.sampled_from(sorted(FILTERS)))
    def read(self, s, t, where):
        self.select(self.session(s), self.table(t), where)

    # ------------------------------------------------------------ faults
    @rule(
        s=SESSION,
        t=TABLE,
        fault=st.sampled_from(["kill_segment", "abort_txn"]),
        segment=st.integers(0, 3),
    )
    def fault_mid_select(self, s, t, fault, segment):
        """A SELECT that scans anything meets the fault: a killed segment
        restarts the query, which answers; an aborted transaction ends."""
        s, event = self.session(s), FaultEvent(1e-9, fault, segment)
        injector = FaultInjector(self.engine, FaultPlan([event]))
        self.engine.attach_chaos(injector)
        try:
            self.select(s, self.table(t))
        except TransactionAbortedByFault:
            assert injector.fired and not self.sessions[s].in_transaction
            self.txns[s] = None
        else:
            assert fault == "kill_segment" or not injector.fired
        finally:
            injector.detach()
            self.engine.chaos = None
            heal(self.engine)

    @precondition(lambda self: self.engine.standby is not None)
    @rule()
    def crash_master(self):
        """Once: every open transaction aborts, the standby takes over."""
        xids = [s._txn.xid for s in self.sessions if s.in_transaction]
        assert sorted(self.engine.crash_master()) == sorted(xids)
        self.txns = [None] * len(self.sessions)

    # -------------------------------------------------------- invariants
    @invariant()
    def files_are_the_catalog_s(self):
        if not any(self.txns):
            assert orphaned_files(self.engine) == []

    @invariant()
    def one_version_per_name(self):
        snapshot = self.engine.txns.xids.snapshot(0)
        catalog = self.engine.catalog
        for table, column in (("pg_class", "name"), ("pg_statistic", "table")):
            keys = [row[column] for row in catalog.table(table).scan(snapshot)]
            assert len(keys) == len(set(keys)), table

    @invariant()
    def standby_replays_the_catalog(self):
        standby = self.engine.standby
        if standby is not None:
            snapshot = standby.snapshot()
            assert self.catalog() == {
                name: sorted(map(id, table.scan(snapshot)))
                for name, table in standby.catalog.tables.items()
            }

    @invariant()
    def runtime_holds_nothing(self):
        assert runtime_holds(self.engine.runtime) == []


OpSequences.TestCase.settings = settings(
    max_examples=int(os.environ.get("REPRO_OP_SEQUENCES", "300")),
    stateful_step_count=30,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=list(HealthCheck),
)
TestOpSequences = OpSequences.TestCase


THIRTY = [(i, f"r{i % 5}") for i in range(30)]


def make_table(engine, name):
    session = engine.connect()
    session.execute(TABLES[name])
    session.execute(f"INSERT INTO {name} VALUES {values(THIRTY)}")
    return session


# Hand-written scripts kept beside the sequences: each tells one story
# (a rolled-back ALTER, a reused name, an older snapshot), so a failure
# names the case at once.

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


def files_on_hdfs(engine):
    return {s.path for s in engine.hdfs.list_status(engine.data_path + "/")}


def files_in_catalog(engine):
    snapshot = engine.txns.xids.snapshot(0)
    return {
        path
        for relation in engine.catalog.relations(snapshot)
        for segfile in engine.catalog.segfiles(relation["name"], snapshot)
        for path in segfile["paths"]
    }


class Script:
    """Runs statements on one session and checks after each that the
    files are the catalog's and every table holds ``model``'s rows."""

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
        assert orphaned_files(self.engine) == [], step
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
        assert orphaned_files(engine) == []

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
    not write to a table whose latest catalog rows it cannot see."""

    ROWS = THIRTY

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
        assert orphaned_files(engine) == []
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
        assert orphaned_files(engine) == []
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
        assert orphaned_files(engine) == []
        assert writer.query(pg_class) == formats
        if count is not None:
            assert len(writer.query("SELECT a FROM t")) == count

    @pytest.mark.parametrize("first_rows", [[], [(1, "a")]], ids=["new", "append"])
    def test_an_insert_behind_a_committed_insert_fails(self, first_rows):
        """The writer's INSERT commits after the reader's snapshot was
        taken: the reader's own INSERT into ``t`` fails to serialize."""
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
        assert orphaned_files(engine) == []
        expected = first_rows + [(2, "w"), (3, "w"), (4, "w")]
        assert sorted(reader.query("SELECT a, b FROM t")) == expected
        reader.execute("INSERT INTO t VALUES (5, 'r')")
        assert sorted(reader.query("SELECT a, b FROM t")) == expected + [(5, "r")]


# What the sequences cannot reach: a file cut short behind the catalog's
# back, and reads through the InputFormat, which takes no lock.

@pytest.mark.parametrize("cache_bytes", [0, 1 << 24], ids=["no-cache", "cache"])
@pytest.mark.parametrize("name", ["t_ao", "t_co", "t_pq"], ids=["ao", "co", "parquet"])
def test_a_file_cut_short_is_an_error_not_fewer_rows(name, cache_bytes):
    """A committed file shorter than its logical length has lost rows: a
    scan raises instead of returning the rows that are left."""
    engine = Engine(
        num_segment_hosts=2, segments_per_host=2, block_cache_bytes=cache_bytes
    )
    session = make_table(engine, name)
    snapshot = engine.txns.xids.snapshot(0)
    path = min(p for f in engine.catalog.segfiles(name, snapshot) for p in f["paths"])
    engine.hdfs.client().truncate(path, 0)
    with pytest.raises(StorageError):
        session.query(f"SELECT a, b FROM {name}")


def test_vacuum_spares_what_an_open_snapshot_sees():
    """VACUUM's catalog pass keeps a row version a live serializable
    snapshot still sees (the sequences reach this rarely)."""
    engine = Engine(num_segment_hosts=2, segments_per_host=2)
    writer, reader = make_table(engine, "t_ao"), engine.connect()
    reader.execute("BEGIN ISOLATION LEVEL SERIALIZABLE")
    assert sorted(reader.query("SELECT a, b FROM t_ao")) == THIRTY
    writer.execute("INSERT INTO t_ao VALUES (1, 'new')")
    writer.execute("VACUUM")
    assert sorted(reader.query("SELECT a, b FROM t_ao")) == THIRTY


def test_reading_through_the_input_format_leaves_no_transaction():
    engine = Engine(num_segment_hosts=2, segments_per_host=1)
    make_table(engine, "t_ao")
    assert sorted(HawqTableInputFormat(engine).read_table("t_ao")) == THIRTY
    assert engine.crash_master() == []


@pytest.mark.parametrize("name", ["t_ao", "t_co", "t_pq"], ids=["ao", "co", "parquet"])
def test_a_drop_committed_mid_read_table_leaves_the_files_to_the_reader(name):
    """The InputFormat takes no lock, so a DROP can commit while it
    reads: the reader still gets every row its snapshot saw, and the
    dropped files go once it has finished."""
    engine = Engine(num_segment_hosts=2, segments_per_host=2)
    session = make_table(engine, name)
    rows = HawqTableInputFormat(engine).read_table(name)
    first = next(rows)
    session.execute(f"DROP TABLE {name}")
    engine.block_cache.clear()
    assert orphaned_files(engine)
    assert sorted([first, *rows]) == THIRTY
    assert orphaned_files(engine) == []
