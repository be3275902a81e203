"""End-to-end engine tests: DDL, DML, transactions, views, EXPLAIN,
ANALYZE, metadata dispatch, and the full SQL surface."""

import datetime

import pytest

from repro import Engine
from repro.errors import (
    DuplicateObject,
    SemanticError,
    TransactionError,
    UndefinedObject,
)


@pytest.fixture
def engine():
    return Engine(num_segment_hosts=2, segments_per_host=2)


@pytest.fixture
def session(engine):
    return engine.connect()


class TestDdl:
    def test_create_insert_select(self, session):
        session.execute("CREATE TABLE t (a INT, b TEXT) DISTRIBUTED BY (a)")
        session.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, NULL)")
        rows = session.query("SELECT a, b FROM t ORDER BY a")
        assert rows == [(1, "x"), (2, "y"), (3, None)]

    def test_duplicate_table(self, session):
        session.execute("CREATE TABLE t (a INT)")
        with pytest.raises(DuplicateObject):
            session.execute("CREATE TABLE t (a INT)")

    def test_storage_options(self, session, engine):
        session.execute(
            "CREATE TABLE t (a INT) WITH (appendonly=true, orientation=column, "
            "compresstype=zlib, compresslevel=9)"
        )
        snapshot = engine.txns.begin().statement_snapshot()
        schema = engine.catalog.get_schema("t", snapshot)
        assert schema.storage_format == "co"
        assert schema.compression == "zlib9"

    def test_default_distribution_first_column(self, session, engine):
        session.execute("CREATE TABLE t (a INT, b INT)")
        snapshot = engine.txns.begin().statement_snapshot()
        schema = engine.catalog.get_schema("t", snapshot)
        assert schema.distribution.columns == ("a",)

    def test_drop_table(self, session):
        session.execute("CREATE TABLE t (a INT)")
        session.execute("DROP TABLE t")
        with pytest.raises(SemanticError):
            session.query("SELECT * FROM t")

    def test_drop_missing(self, session):
        with pytest.raises(UndefinedObject):
            session.execute("DROP TABLE never_existed")
        session.execute("DROP TABLE IF EXISTS never_existed")  # no error

    def test_drop_blocked_by_view(self, session):
        session.execute("CREATE TABLE t (a INT)")
        session.execute("CREATE VIEW v AS SELECT a FROM t")
        with pytest.raises(SemanticError, match="depend"):
            session.execute("DROP TABLE t")
        session.execute("DROP VIEW v")
        session.execute("DROP TABLE t")

    @pytest.mark.parametrize(
        "where",
        [
            "y IN (SELECT y FROM b)",
            "EXISTS (SELECT 1 FROM b WHERE b.y = a.y)",
            "y = (SELECT max(y) FROM b)",
        ],
    )
    def test_drop_blocked_by_view_subquery(self, session, where):
        # b is read only inside a subquery: the view still depends on it.
        session.execute("CREATE TABLE a (x INT, y INT)")
        session.execute("CREATE TABLE b (y INT)")
        session.execute("INSERT INTO a VALUES (1, 10), (2, 20)")
        session.execute("INSERT INTO b VALUES (10)")
        session.execute(f"CREATE VIEW v AS SELECT x FROM a WHERE {where}")
        with pytest.raises(SemanticError, match="depend"):
            session.execute("DROP TABLE b")
        assert session.query("SELECT * FROM v") == [(1,)]
        session.execute("DROP VIEW v")
        session.execute("DROP TABLE b")

    def test_insert_column_subset(self, session):
        session.execute("CREATE TABLE t (a INT, b TEXT, c INT) DISTRIBUTED BY (a)")
        session.execute("INSERT INTO t (c, a) VALUES (30, 1)")
        assert session.query("SELECT a, b, c FROM t") == [(1, None, 30)]

    def test_insert_select(self, session):
        session.execute("CREATE TABLE src (a INT) DISTRIBUTED BY (a)")
        session.execute("CREATE TABLE dst (a INT) DISTRIBUTED BY (a)")
        session.execute("INSERT INTO src VALUES (1), (2), (3)")
        session.execute("INSERT INTO dst SELECT a FROM src WHERE a > 1")
        assert sorted(session.query("SELECT a FROM dst")) == [(2,), (3,)]

    def test_truncate_table(self, session):
        session.execute("CREATE TABLE t (a INT) DISTRIBUTED BY (a)")
        session.execute("INSERT INTO t VALUES (1), (2)")
        session.execute("TRUNCATE TABLE t")
        assert session.query("SELECT count(*) FROM t") == [(0,)]


class TestLoadRouting:
    def test_rows_land_where_hash_row_sends_them(self, engine, session):
        """The load path places a whole chunk with ``hash_columns``;
        every row must still sit on the segment ``hash_row`` names
        (multi-column key; int, date, text and NULL key values)."""
        from repro.storage.hadoop_formats import HawqTableInputFormat

        session.execute(
            "CREATE TABLE r (a INT, d DATE, t TEXT, x FLOAT) "
            "DISTRIBUTED BY (a, d, t)"
        )
        rows = [
            (
                None if i % 13 == 0 else i % 40,
                None if i % 17 == 0 else datetime.date(1969, 12, 1 + i % 28),
                None if i % 19 == 0 else f"k{i % 7}é",
                i / 4,
            )
            for i in range(600)
        ]
        session.load_rows("r", rows)
        session.execute("INSERT INTO r (t, a) VALUES ('solo', 7)")
        schema = engine.catalog.get_schema(
            "r", engine.txns.begin().statement_snapshot()
        )
        reader = HawqTableInputFormat(engine)
        seen = []
        for split in reader.get_splits("r"):
            for row in reader.read_split(split):
                assert schema.hash_row(row, engine.num_segments) == split.segment_id
                seen.append(row)
        assert sorted(seen, key=repr) == sorted(
            rows + [(7, None, "solo", None)], key=repr
        )
        assert len({s.segment_id for s in reader.get_splits("r")}) > 1


class TestPartitionedTables:
    def test_create_routes_and_prunes(self, session):
        session.execute(
            """
            CREATE TABLE sales (id INT, d DATE, amt DECIMAL(10,2))
            DISTRIBUTED BY (id)
            PARTITION BY RANGE (d)
            (START (date '2008-01-01') INCLUSIVE
             END (date '2008-07-01') EXCLUSIVE
             EVERY (INTERVAL '1 month'))
            """
        )
        session.execute(
            "INSERT INTO sales VALUES (1, date '2008-01-15', 10.0), "
            "(2, date '2008-03-02', 20.0), (3, date '2008-06-30', 30.0)"
        )
        assert session.query("SELECT count(*) FROM sales") == [(3,)]
        rows = session.query(
            "SELECT sum(amt) FROM sales WHERE d >= date '2008-03-01' "
            "AND d < date '2008-04-01'"
        )
        assert rows == [(20.0,)]

    def test_out_of_range_insert_fails(self, session):
        session.execute(
            """
            CREATE TABLE sales (id INT, d DATE)
            DISTRIBUTED BY (id)
            PARTITION BY RANGE (d)
            (START (date '2008-01-01') END (date '2008-02-01'))
            """
        )
        from repro.errors import ExecutorError

        with pytest.raises(ExecutorError, match="no partition"):
            session.execute("INSERT INTO sales VALUES (1, date '2020-01-01')")

    def test_list_partitions(self, session):
        session.execute(
            """
            CREATE TABLE t (id INT, region TEXT)
            DISTRIBUTED BY (id)
            PARTITION BY LIST (region)
            (PARTITION asia VALUES ('ASIA'),
             PARTITION rest VALUES ('EUROPE', 'AFRICA'))
            """
        )
        session.execute(
            "INSERT INTO t VALUES (1, 'ASIA'), (2, 'EUROPE'), (3, 'AFRICA')"
        )
        assert session.query("SELECT count(*) FROM t WHERE region = 'ASIA'") == [
            (1,)
        ]


class TestTransactions:
    def test_commit_visibility(self, engine):
        s1, s2 = engine.connect(), engine.connect()
        s1.execute("CREATE TABLE t (a INT) DISTRIBUTED BY (a)")
        s1.execute("BEGIN")
        s1.execute("INSERT INTO t VALUES (1)")
        # Uncommitted insert invisible to another session.
        assert s2.query("SELECT count(*) FROM t") == [(0,)]
        # ...but visible to the inserting transaction itself.
        assert s1.query("SELECT count(*) FROM t") == [(1,)]
        s1.execute("COMMIT")
        assert s2.query("SELECT count(*) FROM t") == [(1,)]

    def test_rollback_discards(self, engine):
        session = engine.connect()
        session.execute("CREATE TABLE t (a INT) DISTRIBUTED BY (a)")
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES (1), (2)")
        session.execute("ROLLBACK")
        assert session.query("SELECT count(*) FROM t") == [(0,)]

    def test_rollback_truncates_physical_garbage(self, engine):
        """Aborted appends leave physical bytes that are truncated
        eagerly (Section 5.3) so files match committed logical lengths."""
        session = engine.connect()
        session.execute("CREATE TABLE t (a INT) DISTRIBUTED BY (a)")
        session.execute("INSERT INTO t VALUES (1)")
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES (2), (3), (4)")
        session.execute("ROLLBACK")
        assert session.query("SELECT a FROM t") == [(1,)]
        # committed data still loadable after further inserts reuse lanes
        session.execute("INSERT INTO t VALUES (9)")
        assert sorted(session.query("SELECT a FROM t")) == [(1,), (9,)]

    def test_ddl_rolls_back(self, engine):
        session = engine.connect()
        session.execute("BEGIN")
        session.execute("CREATE TABLE t (a INT)")
        session.execute("ROLLBACK")
        with pytest.raises(SemanticError):
            session.query("SELECT * FROM t")

    def test_read_committed_sees_commits_between_statements(self, engine):
        writer, reader = engine.connect(), engine.connect()
        writer.execute("CREATE TABLE t (a INT) DISTRIBUTED BY (a)")
        reader.execute("BEGIN")
        assert reader.query("SELECT count(*) FROM t") == [(0,)]
        writer.execute("INSERT INTO t VALUES (1)")
        assert reader.query("SELECT count(*) FROM t") == [(1,)]
        reader.execute("COMMIT")

    def test_serializable_snapshot_frozen(self, engine):
        writer, reader = engine.connect(), engine.connect()
        writer.execute("CREATE TABLE t (a INT) DISTRIBUTED BY (a)")
        reader.execute("BEGIN ISOLATION LEVEL SERIALIZABLE")
        assert reader.query("SELECT count(*) FROM t") == [(0,)]
        writer.execute("INSERT INTO t VALUES (1)")
        assert reader.query("SELECT count(*) FROM t") == [(0,)]
        reader.execute("COMMIT")
        assert reader.query("SELECT count(*) FROM t") == [(1,)]

    def test_concurrent_writers_swimlanes(self, engine):
        """Two open transactions appending to one table use different
        lanes and neither clobbers the other (Section 5.4)."""
        s1, s2 = engine.connect(), engine.connect()
        s1.execute("CREATE TABLE t (a INT) DISTRIBUTED BY (a)")
        s1.execute("BEGIN")
        s2.execute("BEGIN")
        s1.execute("INSERT INTO t VALUES (1)")
        s2.execute("INSERT INTO t VALUES (2)")
        s1.execute("COMMIT")
        s2.execute("COMMIT")
        assert sorted(engine.connect().query("SELECT a FROM t")) == [(1,), (2,)]

    def test_nested_begin_rejected(self, session):
        session.execute("BEGIN")
        with pytest.raises(TransactionError):
            session.execute("BEGIN")
        session.execute("ROLLBACK")

    def test_commit_without_begin_rejected(self, session):
        with pytest.raises(TransactionError):
            session.execute("COMMIT")

    def test_failed_statement_aborts_txn(self, session):
        session.execute("BEGIN")
        with pytest.raises(SemanticError):
            session.query("SELECT * FROM missing_table")
        assert not session.in_transaction


class TestViewsAndMeta:
    def test_view_roundtrip(self, session):
        session.execute("CREATE TABLE t (a INT, b INT) DISTRIBUTED BY (a)")
        session.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
        session.execute("CREATE VIEW v AS SELECT a, b * 2 AS dbl FROM t")
        assert session.query("SELECT dbl FROM v ORDER BY a") == [(20,), (40,)]

    def test_explain(self, session):
        session.execute("CREATE TABLE t (a INT) DISTRIBUTED BY (a)")
        rows = session.execute("EXPLAIN SELECT count(*) FROM t").rows
        text = "\n".join(r[0] for r in rows)
        assert "SeqScan(t)" in text
        assert "Gather" in text or "gather" in text

    def test_analyze_populates_stats(self, session, engine):
        session.execute("CREATE TABLE t (a INT) DISTRIBUTED BY (a)")
        session.execute("INSERT INTO t VALUES (1), (2), (3)")
        session.execute("ANALYZE t")
        snapshot = engine.txns.begin().statement_snapshot()
        stats = engine.catalog.get_stats("t", snapshot)
        assert stats.row_count == 3

    def test_set_statement_accepted(self, session):
        session.execute("SET random_gucs TO whatever")
        session.execute("SET TRANSACTION ISOLATION LEVEL SERIALIZABLE")

    def test_metadata_dispatch_plan_size(self, session, engine):
        """Self-described plans are measured and compressed (3.1)."""
        from repro.planner.analyzer import Analyzer
        from repro.planner.dispatch import build_self_described_plan
        from repro.ddl import CatalogAdapter
        from repro.sql.parser import parse_statement

        session.execute("CREATE TABLE t (a INT) DISTRIBUTED BY (a)")
        session.execute("INSERT INTO t VALUES (1)")
        txn = engine.txns.begin()
        snapshot = txn.statement_snapshot()
        analyzer = Analyzer(CatalogAdapter(engine.catalog, snapshot))
        query = analyzer.analyze(parse_statement("SELECT * FROM t"))
        plan = session._plan(query, snapshot, query.tables(subplans=True))
        sdp = build_self_described_plan(plan, engine.catalog, snapshot)
        assert "t" in sdp.metadata
        assert sdp.metadata["t"].segfiles
        assert 0 < sdp.compressed_bytes < sdp.plan_bytes

    def test_query_cost_is_positive(self, session):
        session.execute("CREATE TABLE t (a INT) DISTRIBUTED BY (a)")
        session.execute("INSERT INTO t VALUES (1)")
        result = session.execute("SELECT * FROM t")
        assert result.cost.seconds > 0
        assert result.cost.tuples >= 1

    def test_direct_dispatch_lookup(self, session):
        session.execute("CREATE TABLE t (a INT, b TEXT) DISTRIBUTED BY (a)")
        session.execute("INSERT INTO t VALUES (7, 'seven')")
        result = session.execute("SELECT b FROM t WHERE a = 7")
        assert result.rows == [("seven",)]
        assert result.plan.direct_dispatch_segment is not None


class TestExplainAnalyze:
    def test_annotations_present(self, session):
        session.execute("CREATE TABLE ea (a INT, b INT) DISTRIBUTED BY (a)")
        session.execute(
            "INSERT INTO ea VALUES " + ", ".join(f"({i}, {i % 3})" for i in range(30))
        )
        rows = session.execute(
            "EXPLAIN ANALYZE SELECT b, count(*) FROM ea GROUP BY b"
        ).rows
        text = "\n".join(r[0] for r in rows)
        assert "actual time=" in text
        assert "rows sent=" in text
        assert "Total:" in text

    def test_explain_analyze_actually_executes(self, session):
        session.execute("CREATE TABLE ea2 (a INT) DISTRIBUTED BY (a)")
        session.execute("INSERT INTO ea2 VALUES (1), (2)")
        result = session.execute("EXPLAIN ANALYZE SELECT count(*) FROM ea2")
        assert result.cost.tuples >= 2


class TestCopy:
    def test_copy_from_and_to(self, session, engine):
        session.execute(
            "CREATE TABLE ct (a INT, b TEXT, d DATE) DISTRIBUTED BY (a)"
        )
        engine.hdfs.client().write_file(
            "/load/in.tbl", b"1|x|1994-01-01\n2||1995-06-07\n"
        )
        result = session.execute("COPY ct FROM '/load/in.tbl'")
        assert result.message == "COPY 2"
        assert sorted(session.query("SELECT a FROM ct")) == [(1,), (2,)]
        session.execute("COPY ct TO '/load/out.tbl'")
        exported = engine.hdfs.client().read_file("/load/out.tbl").decode()
        assert sorted(exported.splitlines()) == [
            "1|x|1994-01-01",
            "2||1995-06-07",
        ]

    def test_copy_custom_delimiter(self, session, engine):
        session.execute("CREATE TABLE cd (a INT, b TEXT) DISTRIBUTED BY (a)")
        engine.hdfs.client().write_file("/load/c.csv", b"5,hello\n")
        session.execute("COPY cd FROM '/load/c.csv' DELIMITER ','")
        assert session.query("SELECT a, b FROM cd") == [(5, "hello")]

    def test_copy_is_transactional(self, session, engine):
        session.execute("CREATE TABLE tx (a INT) DISTRIBUTED BY (a)")
        engine.hdfs.client().write_file("/load/tx.tbl", b"7\n8\n")
        session.execute("BEGIN")
        session.execute("COPY tx FROM '/load/tx.tbl'")
        session.execute("ROLLBACK")
        assert session.query("SELECT count(*) FROM tx") == [(0,)]


class TestVacuum:
    def test_vacuum_reclaims_crash_garbage(self, session, engine):
        session.execute("CREATE TABLE vt (a INT) DISTRIBUTED BY (a)")
        session.execute("INSERT INTO vt VALUES (1), (2)")
        # Simulate a crashed writer: physical bytes beyond the committed
        # logical length, with no transaction left to truncate them.
        snapshot = engine.txns.begin().statement_snapshot()
        segfile = engine.catalog.segfiles("vt", snapshot)[0]
        path = next(iter(segfile["paths"]))
        client = engine.segments[segfile["segment_id"]].client(engine.hdfs)
        writer = client.append(path)
        writer.write(b"CRASH GARBAGE")
        writer.close()
        result = session.execute("VACUUM vt")
        assert "reclaimed 13 bytes" in result.message
        assert sorted(session.query("SELECT a FROM vt")) == [(1,), (2,)]

    def test_global_vacuum_drops_dead_catalog_versions(self, session, engine):
        session.execute("CREATE TABLE dead (a INT)")
        session.execute("DROP TABLE dead")
        result = session.execute("VACUUM")
        assert "dead catalog rows" in result.message
        # the dropped table's versions are physically gone
        rows = engine.catalog.table("pg_class")._rows
        assert all(v.data["name"] != "dead" for v in rows)

    @pytest.mark.parametrize("statement", ["VACUUM t", "VACUUM"])
    @pytest.mark.parametrize("orientation", ["row", "column", "parquet"])
    def test_vacuum_keeps_an_open_transaction_s_appends(
        self, engine, orientation, statement
    ):
        """Bytes past a segfile's committed length are an open writer's
        appends while its lane is held: VACUUM must leave them for the
        commit to make visible."""
        writer, vacuumer = engine.connect(), engine.connect()
        writer.execute(
            f"CREATE TABLE t (a INT) WITH (appendonly=true, "
            f"orientation={orientation}) DISTRIBUTED BY (a)"
        )
        writer.execute("INSERT INTO t VALUES (1), (2), (3)")
        writer.execute("BEGIN")
        writer.execute("INSERT INTO t VALUES (4), (5), (6)")
        assert "reclaimed 0 bytes" in vacuumer.execute(statement).message
        writer.execute("COMMIT")
        assert sorted(vacuumer.query("SELECT a FROM t")) == [
            (i,) for i in range(1, 7)
        ]
        assert vacuumer.query("SELECT sum(tupcount) FROM gp_segfile") == [(6,)]

    def test_vacuum_missing_table(self, session):
        with pytest.raises(UndefinedObject):
            session.execute("VACUUM ghost")
