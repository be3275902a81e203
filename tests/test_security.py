"""Tests for roles, privileges, resource queues, ALTER TABLE storage
transformation, writable PXF tables, and the Hadoop Input/OutputFormats."""

import pytest

from repro import Engine
from repro.catalog.security import (
    PermissionDenied,
    QueueLimitExceeded,
    SecurityManager,
)
from repro.cluster.resqueue import ResourceQueueManager, specs_from_security
from repro.errors import CatalogError, LockTimeout, PxfError, SemanticError
from repro.storage.hadoop_formats import (
    HawqTableInputFormat,
    HawqTableOutputFormat,
)
from repro.txn.locks import LockMode


class TestSecurityManager:
    def test_default_superuser(self):
        security = SecurityManager()
        assert security.role("gpadmin").superuser
        security.check("gpadmin", "select", "anything")  # no raise

    def test_grant_check_revoke(self):
        security = SecurityManager()
        security.create_role("analyst")
        with pytest.raises(PermissionDenied):
            security.check("analyst", "select", "t")
        security.grant("select", "t", "analyst")
        security.check("analyst", "select", "t")
        with pytest.raises(PermissionDenied):
            security.check("analyst", "insert", "t")
        security.revoke("select", "t", "analyst")
        with pytest.raises(PermissionDenied):
            security.check("analyst", "select", "t")

    def test_all_privilege(self):
        security = SecurityManager()
        security.create_role("etl")
        security.grant("all", "t", "etl")
        security.check("etl", "select", "t")
        security.check("etl", "insert", "t")

    def test_duplicate_role(self):
        security = SecurityManager()
        security.create_role("r")
        with pytest.raises(CatalogError):
            security.create_role("r")

    def test_drop_role_clears_grants(self):
        security = SecurityManager()
        security.create_role("r")
        security.grant("select", "t", "r")
        security.drop_role("r")
        security.create_role("r")
        with pytest.raises(PermissionDenied):
            security.check("r", "select", "t")

    def test_queue_admission(self):
        security = SecurityManager()
        security.create_queue("small", active_statements=2)
        security.create_queue("closed", active_statements=0)
        security.create_role("r", resource_queue="small")
        queue = security.queue_for("r").name
        manager = ResourceQueueManager(specs_from_security(security))
        admitted = []
        for query_id in (1, 2, 3):
            manager.submit(query_id, queue, 1.0, 0.0, admitted.append)
        assert admitted == [0.0, 0.0]  # limit reached: the third waits
        manager.release(1, 5.0)
        assert admitted == [0.0, 0.0, 5.0]  # freed slot reusable
        # No slot at all, no release to wait for: refused, not parked.
        with pytest.raises(QueueLimitExceeded, match="limit of 0 active"):
            manager.submit(4, "closed", 1.0, 0.0, admitted.append)
        assert manager.depth("closed") == 0

    def test_drop_queue_in_use(self):
        security = SecurityManager()
        security.create_queue("q")
        security.create_role("r", resource_queue="q")
        with pytest.raises(CatalogError):
            security.drop_queue("q")

    def test_cannot_drop_default_queue(self):
        with pytest.raises(CatalogError):
            SecurityManager().drop_queue("pg_default")


class TestSqlSecurity:
    @pytest.fixture
    def engine(self):
        engine = Engine(num_segment_hosts=2, segments_per_host=1)
        admin = engine.connect()
        admin.execute("CREATE ROLE analyst")
        admin.execute("CREATE TABLE t (a INT) DISTRIBUTED BY (a)")
        admin.execute("INSERT INTO t VALUES (1), (2)")
        return engine

    def test_select_denied_then_granted(self, engine):
        analyst = engine.connect(role="analyst")
        with pytest.raises(PermissionDenied):
            analyst.query("SELECT * FROM t")
        engine.connect().execute("GRANT select ON t TO analyst")
        assert sorted(analyst.query("SELECT * FROM t")) == [(1,), (2,)]

    def test_insert_needs_separate_privilege(self, engine):
        admin = engine.connect()
        admin.execute("GRANT select ON t TO analyst")
        analyst = engine.connect(role="analyst")
        with pytest.raises(PermissionDenied):
            analyst.execute("INSERT INTO t VALUES (3)")
        admin.execute("GRANT insert ON t TO analyst")
        analyst.execute("INSERT INTO t VALUES (3)")

    def test_owner_has_implicit_rights(self, engine):
        analyst = engine.connect(role="analyst")
        analyst.execute("CREATE TABLE mine (x INT) DISTRIBUTED BY (x)")
        analyst.execute("INSERT INTO mine VALUES (1)")
        assert analyst.query("SELECT * FROM mine") == [(1,)]
        analyst.execute("DROP TABLE mine")

    def test_drop_requires_ownership(self, engine):
        analyst = engine.connect(role="analyst")
        with pytest.raises(PermissionDenied):
            analyst.execute("DROP TABLE t")

    def test_non_superuser_cannot_create_roles(self, engine):
        analyst = engine.connect(role="analyst")
        with pytest.raises(PermissionDenied):
            analyst.execute("CREATE ROLE sneaky SUPERUSER")

    def test_resource_queue_via_sql(self, engine):
        admin = engine.connect()
        admin.execute(
            "CREATE RESOURCE QUEUE tiny WITH (active_statements=1, "
            "memory_limit=1000000)"
        )
        admin.execute("ALTER ROLE analyst RESOURCE QUEUE tiny")
        assert engine.security.role("analyst").resource_queue == "tiny"
        queue = engine.security.queue_for("analyst")
        assert queue.active_statements == 1

    def test_set_role(self, engine):
        session = engine.connect()
        session.execute("SET role TO analyst")
        assert session.role == "analyst"
        with pytest.raises(PermissionDenied):
            session.execute("CREATE ROLE another")

    def test_revoke_via_sql(self, engine):
        admin = engine.connect()
        admin.execute("GRANT select ON t TO analyst")
        admin.execute("REVOKE select ON t FROM analyst")
        analyst = engine.connect(role="analyst")
        with pytest.raises(PermissionDenied):
            analyst.query("SELECT * FROM t")


class TestMaintenanceStatementsAskWhoIsAsking:
    """TRUNCATE, ANALYZE and VACUUM of a named table take what DROP and
    ALTER TABLE take — superuser, owner, or GRANT ALL, partition children
    riding with their parent; the database-wide forms are superuser-only
    (VACUUM also reclaims catalog row versions)."""

    NAMED = ("TRUNCATE TABLE t", "ANALYZE t", "VACUUM t")
    DATABASE_WIDE = ("ANALYZE", "VACUUM")

    @pytest.fixture
    def engine(self):
        engine = Engine(num_segment_hosts=2, segments_per_host=1)
        admin = engine.connect()
        for role in ("owner", "grantee", "stranger"):
            admin.execute(f"CREATE ROLE {role}")
        engine.connect(role="owner").execute(
            "CREATE TABLE t (a INT, g INT) DISTRIBUTED BY (a) "
            "PARTITION BY RANGE (g) (START (0) END (10) EVERY (5))"
        )
        admin.execute("INSERT INTO t VALUES (1, 1), (2, 7)")
        admin.execute("GRANT all ON t TO grantee")
        admin.execute("GRANT select ON t TO stranger")  # not enough
        return engine

    @pytest.mark.parametrize("statement", NAMED + DATABASE_WIDE)
    @pytest.mark.parametrize("role", ["stranger", "owner", "grantee", "gpadmin"])
    def test_privilege_matrix(self, engine, role, statement):
        session = engine.connect(role=role)
        allowed = role == "gpadmin" or (
            role != "stranger" and statement in self.NAMED
        )
        if allowed:
            session.execute(statement)
        else:
            with pytest.raises(PermissionDenied):
                session.execute(statement)
        truncated = allowed and statement.startswith("TRUNCATE")
        rows = engine.connect().query("SELECT a, g FROM t")
        assert sorted(rows) == ([] if truncated else [(1, 1), (2, 7)])


    #: What each verb holds on the relation it names inside BEGIN (the
    #: owner runs it; ``u`` is a table it creates).
    HELD = {
        "SELECT a FROM t": ("t", LockMode.ACCESS_SHARE),
        "COPY t TO '/out/t.tbl'": ("t", LockMode.ACCESS_SHARE),
        "INSERT INTO t VALUES (3, 3)": ("t", LockMode.ROW_EXCLUSIVE),
        "COPY t FROM '/load/t.tbl'": ("t", LockMode.ROW_EXCLUSIVE),
        "DROP TABLE t": ("t", LockMode.ACCESS_EXCLUSIVE),
        "TRUNCATE TABLE t": ("t", LockMode.ACCESS_EXCLUSIVE),
        "ALTER TABLE t SET WITH (orientation=column)": (
            "t", LockMode.ACCESS_EXCLUSIVE,
        ),
        "CREATE TABLE u (a INT)": ("u", LockMode.ACCESS_EXCLUSIVE),
        "ANALYZE t": ("t", LockMode.ACCESS_SHARE),
        "VACUUM t": ("t", LockMode.ACCESS_SHARE),
    }

    @pytest.mark.parametrize("statement", sorted(HELD))
    def test_the_lock_each_verb_holds(self, engine, statement):
        engine.hdfs.client().write_file("/load/t.tbl", b"3|3\n")
        session = engine.connect(role="owner")
        session.execute("BEGIN")
        session.execute(statement)
        name, mode = self.HELD[statement]
        assert engine.txns.locks.holders(f"rel:{name}") == [
            (session._txn.xid, mode)
        ]
        session.execute("ROLLBACK")
        assert engine.txns.locks.holders(f"rel:{name}") == []

    def test_a_stranger_is_refused_before_the_lock(self, engine):
        """The privilege is checked before the lock is asked for: a role
        that may not DROP never waits on, or fails for, a reader's lock."""
        reader = engine.connect()
        reader.execute("BEGIN")
        assert sorted(reader.query("SELECT a FROM t")) == [(1,), (2,)]
        with pytest.raises(PermissionDenied):
            engine.connect(role="stranger").execute("DROP TABLE t")
        with pytest.raises(LockTimeout):
            engine.connect(role="owner").execute("DROP TABLE t")
        reader.execute("COMMIT")
        engine.connect(role="owner").execute("DROP TABLE t")


class TestExplainGoesThroughTheFrontHalf:
    """EXPLAIN is a SELECT's front half (and EXPLAIN ANALYZE the whole
    statement): same privilege checks, locks and queue slot."""

    #: ``EXPLAIN (ANALYZE, VERBOSE) SELECT * FROM secret WHERE b = 2`` as
    #: printed for a granted role before EXPLAIN shared the front half
    #: (``bytes moved`` re-pinned with the dispatch wire format: it was
    #: 2425 when the message was sized by a pickle; each ``q_err`` added
    #: since; the Motion's actual rows re-pinned from 0 when a sender
    #: came to count the rows it sent).
    GRANTED_VERBOSE = [
        "Slice 1 (QD):",
        "  (actual time=0.0004s, rows sent=1)",
        "    QD: 0.0000s, 1 rows, 0 bytes",
        "  -> MotionRecv(slice 0, gather)  est_rows=5  "
        "(actual rows=1 calls=1 time=0.0000s q_err=5.0)",
        "Slice 0 (gang of N):",
        "  (actual time=0.0003s, rows sent=1)",
        "  (skew: max=0.0003s mean=0.0003s min=0.0003s across 2 tasks)",
        "    seg0: 0.0003s, 0 rows, 0 bytes",
        "    seg1: 0.0003s, 1 rows, 20 bytes",
        "  -> Motion(gather)  est_rows=5  "
        "(actual rows=1 calls=2 time=0.0002s q_err=5.0)",
        "    -> Project  est_rows=5  (actual rows=1 calls=2 time=0.0000s q_err=5.0)",
        "      -> SeqScan(secret, filter)  est_rows=5  (actual rows=1 calls=2 "
        "time=0.0000s q_err=5.0) (read=96B remote=0B cache hits=0/2)",
        "Total: 0.1466s simulated (critical path 0.0004s + overhead "
        "0.1462s), 1 rows, 5 tuples processed, 1161 bytes moved",
    ]

    @pytest.fixture
    def engine(self):
        engine = Engine(num_segment_hosts=2, segments_per_host=1)
        admin = engine.connect()
        admin.execute("CREATE ROLE bob")
        admin.execute("CREATE TABLE secret (a INT, b INT) DISTRIBUTED BY (a)")
        admin.execute("INSERT INTO secret VALUES (1, 1), (2, 2), (3, 3), (4, 4)")
        admin.execute("CREATE VIEW peek AS SELECT a FROM secret")
        return engine

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT * FROM secret",
            "EXPLAIN SELECT * FROM secret",
            "EXPLAIN ANALYZE SELECT * FROM secret WHERE b = 2",
            "EXPLAIN (ANALYZE, VERBOSE) SELECT * FROM secret WHERE b = 2",
            "EXPLAIN SELECT * FROM peek",
            "EXPLAIN ANALYZE SELECT x.a FROM (SELECT a FROM secret) x",
        ],
    )
    def test_ungranted_role_is_denied(self, engine, sql):
        bob = engine.connect(role="bob")
        before = engine.metrics.counter("charged_scans_opened").value
        with pytest.raises(PermissionDenied, match="lacks SELECT on 'secret'"):
            bob.execute(sql)
        assert engine.metrics.counter("charged_scans_opened").value == before
        assert engine.txns._live == {}

    def test_granted_role_reads_the_same_plan_as_before(self, engine):
        engine.connect().execute("GRANT select ON secret TO bob")
        bob = engine.connect(role="bob")
        rows = bob.execute(
            "EXPLAIN (ANALYZE, VERBOSE) SELECT * FROM secret WHERE b = 2"
        ).rows
        assert [line for (line,) in rows] == self.GRANTED_VERBOSE
        assert bob.execute("EXPLAIN SELECT 1 FROM pg_class").rows

    def test_explain_analyze_holds_locks_and_a_slot_while_it_runs(self, engine):
        from repro.txn.locks import LockMode
        from tests.test_cancellation import MidStatementHook

        seen = []

        def look():
            seen.append(
                (
                    [mode for _, mode in engine.txns.locks.holders("rel:secret")],
                    engine.telemetry.resqueue_rows()[0][:3],
                )
            )

        engine.attach_chaos(MidStatementHook(look))
        session = engine.connect()
        session.execute("EXPLAIN ANALYZE SELECT * FROM secret WHERE b = 2")
        mid_analyze = list(seen)
        session.execute("EXPLAIN SELECT * FROM secret WHERE b = 2")
        engine.attach_chaos(None)

        assert mid_analyze
        assert seen == mid_analyze  # plain EXPLAIN dispatched nothing
        for modes, occupancy in seen:
            assert modes == [LockMode.ACCESS_SHARE]
            assert occupancy == ("pg_default", 20, 1)
        assert engine.txns.locks.holders("rel:secret") == []


class TestSubqueryTablesAreLockedAndChecked:
    """Before decorrelation an IN / EXISTS / scalar subquery still sits
    inside an expression; its tables need the same ACCESS SHARE lock and
    SELECT privilege as the ones in FROM."""

    #: statement -> its rows for a role that may read both tables
    STATEMENTS = {
        "SELECT a FROM pub WHERE a IN (SELECT a FROM secret)": [(1,), (2,)],
        "SELECT a FROM pub WHERE EXISTS "
        "(SELECT 1 FROM secret WHERE secret.a = pub.a)": [(1,), (2,)],
        "SELECT a, (SELECT max(b) FROM secret) FROM pub": [(1, 40), (2, 40), (9, 40)],
    }

    @pytest.fixture
    def engine(self):
        engine = Engine(num_segment_hosts=2, segments_per_host=1)
        admin = engine.connect()
        admin.execute("CREATE ROLE bob")
        admin.execute("CREATE TABLE secret (a INT, b INT) DISTRIBUTED BY (a)")
        admin.execute("INSERT INTO secret VALUES (1, 10), (2, 20), (3, 30), (4, 40)")
        admin.execute("CREATE TABLE pub (a INT) DISTRIBUTED BY (a)")
        admin.execute("INSERT INTO pub VALUES (1), (2), (9)")
        admin.execute("GRANT select ON pub TO bob")
        return engine

    @pytest.mark.parametrize("prefix", ["", "EXPLAIN ", "EXPLAIN ANALYZE "])
    @pytest.mark.parametrize("sql", sorted(STATEMENTS))
    def test_ungranted_role_is_denied(self, engine, sql, prefix):
        bob = engine.connect(role="bob")
        assert sorted(bob.query("SELECT a FROM pub")) == [(1,), (2,), (9,)]
        before = engine.metrics.counter("charged_scans_opened").value
        with pytest.raises(PermissionDenied, match="lacks SELECT on 'secret'"):
            bob.execute(prefix + sql)
        assert engine.metrics.counter("charged_scans_opened").value == before
        assert engine.txns._live == {}

    @pytest.mark.parametrize("sql", sorted(STATEMENTS))
    def test_granted_role_reads_the_same_rows_as_the_owner(self, engine, sql):
        admin = engine.connect()
        assert sorted(admin.query(sql)) == self.STATEMENTS[sql]
        admin.execute("GRANT select ON secret TO bob")
        bob = engine.connect(role="bob")
        assert sorted(bob.query(sql)) == self.STATEMENTS[sql]
        assert bob.execute("EXPLAIN " + sql).rows

    @pytest.mark.parametrize("sql", sorted(STATEMENTS))
    def test_the_subquery_s_table_is_locked_while_the_statement_runs(self, engine, sql):
        from repro.txn.locks import LockMode
        from tests.test_cancellation import MidStatementHook

        seen = []
        engine.attach_chaos(
            MidStatementHook(
                lambda: seen.append(
                    [
                        [mode for _, mode in engine.txns.locks.holders(f"rel:{name}")]
                        for name in ("pub", "secret")
                    ]
                )
            )
        )
        engine.connect().execute(sql)
        engine.attach_chaos(None)
        assert seen
        assert all(
            held == [[LockMode.ACCESS_SHARE], [LockMode.ACCESS_SHARE]] for held in seen
        )
        assert engine.txns.locks.holders("rel:secret") == []


class TestAlterTableStorage:
    """The paper's roadmap feature: automatic storage transformation."""

    @pytest.fixture
    def session(self):
        engine = Engine(num_segment_hosts=2, segments_per_host=2)
        session = engine.connect()
        session.execute(
            "CREATE TABLE t (a INT, b TEXT) WITH (appendonly=true, "
            "orientation=row) DISTRIBUTED BY (a)"
        )
        session.execute(
            "INSERT INTO t VALUES " + ", ".join(f"({i}, 'v{i}')" for i in range(20))
        )
        return session

    def current_schema(self, session):
        engine = session.engine
        snapshot = engine.txns.begin().statement_snapshot()
        return engine.catalog.get_schema("t", snapshot)

    def test_row_to_column(self, session):
        before = sorted(session.query("SELECT a, b FROM t"))
        session.execute(
            "ALTER TABLE t SET WITH (orientation=column, compresstype=zlib, "
            "compresslevel=5)"
        )
        schema = self.current_schema(session)
        assert schema.storage_format == "co"
        assert schema.compression == "zlib5"
        assert sorted(session.query("SELECT a, b FROM t")) == before

    def test_writes_after_transformation(self, session):
        session.execute("ALTER TABLE t SET WITH (orientation=parquet)")
        session.execute("INSERT INTO t VALUES (100, 'new')")
        assert session.query("SELECT b FROM t WHERE a = 100") == [("new",)]

    def test_alter_rolls_back(self, session):
        before = sorted(session.query("SELECT a, b FROM t"))
        session.execute("BEGIN")
        session.execute("ALTER TABLE t SET WITH (orientation=column)")
        session.execute("ROLLBACK")
        schema = self.current_schema(session)
        assert schema.storage_format == "ao"
        assert sorted(session.query("SELECT a, b FROM t")) == before

    def test_alter_missing_table(self, session):
        from repro.errors import UndefinedObject

        with pytest.raises(UndefinedObject):
            session.execute("ALTER TABLE nope SET WITH (orientation=column)")

    def test_alter_partitioned_table(self, session):
        session.execute(
            """
            CREATE TABLE pt (id INT, g INT)
            DISTRIBUTED BY (id)
            PARTITION BY RANGE (g) (START (0) END (10) EVERY (5))
            """
        )
        session.execute("INSERT INTO pt VALUES (1, 1), (2, 7)")
        session.execute("ALTER TABLE pt SET WITH (orientation=column)")
        assert sorted(session.query("SELECT id FROM pt")) == [(1,), (2,)]


class TestWritableExternalTables:
    @pytest.fixture
    def session(self):
        return Engine(num_segment_hosts=2, segments_per_host=1).connect()

    def test_text_export_roundtrip(self, session):
        session.execute(
            """
            CREATE WRITABLE EXTERNAL TABLE out_t (id INT, name TEXT)
            LOCATION ('pxf://svc/exports/a.tbl?profile=HdfsTextSimple')
            FORMAT 'TEXT' ()
            """
        )
        session.execute("INSERT INTO out_t VALUES (1, 'a'), (2, NULL)")
        raw = session.engine.hdfs.client().read_file("/exports/a.tbl")
        assert raw == b"1|a\n2|\n"

    def test_insert_into_readable_rejected(self, session):
        session.engine.hdfs.client().write_file("/x.tbl", b"1\n")
        session.execute(
            """
            CREATE EXTERNAL TABLE in_t (id INT)
            LOCATION ('pxf://svc/x.tbl?profile=HdfsTextSimple') FORMAT 'TEXT' ()
            """
        )
        with pytest.raises(SemanticError, match="READABLE"):
            session.execute("INSERT INTO in_t VALUES (9)")

    def test_export_then_query_back(self, session):
        session.execute("CREATE TABLE src (id INT, v TEXT) DISTRIBUTED BY (id)")
        session.execute("INSERT INTO src VALUES (1,'x'), (2,'y'), (3,'z')")
        session.execute(
            """
            CREATE WRITABLE EXTERNAL TABLE sink (id INT, v TEXT)
            LOCATION ('pxf://svc/exports/sink.tbl?profile=HdfsTextSimple')
            FORMAT 'TEXT' ()
            """
        )
        session.execute("INSERT INTO sink SELECT id, v FROM src WHERE id > 1")
        session.execute(
            """
            CREATE EXTERNAL TABLE back (id INT, v TEXT)
            LOCATION ('pxf://svc/exports/sink.tbl?profile=HdfsTextSimple')
            FORMAT 'TEXT' ()
            """
        )
        assert sorted(session.query("SELECT id, v FROM back")) == [
            (2, "y"),
            (3, "z"),
        ]

    def test_profile_without_writer(self, session):
        session.execute(
            """
            CREATE WRITABLE EXTERNAL TABLE ws (id INT)
            LOCATION ('pxf://svc/exports/x.seq?profile=SequenceFile')
            FORMAT 'CUSTOM' ()
            """
        )
        with pytest.raises(PxfError, match="writer"):
            session.execute("INSERT INTO ws VALUES (1)")


class TestHadoopFormats:
    """Paper Section 2.1: MapReduce bypasses SQL and reads table files."""

    @pytest.fixture
    def engine(self):
        engine = Engine(num_segment_hosts=2, segments_per_host=2)
        session = engine.connect()
        session.execute(
            "CREATE TABLE words (id INT, text TEXT) WITH (appendonly=true, "
            "orientation=column, compresstype=quicklz) DISTRIBUTED BY (id)"
        )
        session.execute(
            "INSERT INTO words VALUES (1, 'the quick fox'), (2, 'the dog'), "
            "(3, 'quick quick')"
        )
        return engine

    def test_splits_carry_locality(self, engine):
        splits = HawqTableInputFormat(engine).get_splits("words")
        assert splits
        assert all(s.host.startswith("host") for s in splits)

    def test_read_respects_logical_lengths(self, engine):
        """An aborted append must be invisible to the InputFormat too."""
        session = engine.connect()
        session.execute("BEGIN")
        session.execute("INSERT INTO words VALUES (99, 'garbage')")
        session.execute("ROLLBACK")
        rows = sorted(HawqTableInputFormat(engine).read_table("words"))
        assert [r[0] for r in rows] == [1, 2, 3]

    def test_column_projection(self, engine):
        fmt = HawqTableInputFormat(engine)
        split = fmt.get_splits("words")[0]
        for row in fmt.read_split(split, columns=[0]):
            assert row[1] is None  # unread column placeholder

    def test_mapreduce_wordcount_over_hawq_table(self, engine):
        """An actual MR job consuming HAWQ table files directly."""
        from repro.baselines import MapReduceCluster
        from repro.baselines.mapreduce import Dataset

        fmt = HawqTableInputFormat(engine)
        rows = list(fmt.read_table("words"))
        cluster = MapReduceCluster(num_nodes=2, containers_per_node=2)

        def mapper(row):
            for word in row[1].split():
                yield word, 1

        def reducer(key, values):
            yield (key, sum(values))

        output, _ = cluster.run_job(
            "wordcount", [(Dataset.from_rows(rows, 1.0), mapper)], reducer
        )
        counts = dict(output.rows)
        assert counts["quick"] == 3
        assert counts["the"] == 2

    def test_output_format_loads(self, engine):
        out = HawqTableOutputFormat(engine)
        assert out.write_table("words", [(10, "bulk"), (11, "load")]) == 2
        session = engine.connect()
        assert session.query("SELECT count(*) FROM words") == [(5,)]
