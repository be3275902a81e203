"""Tests for PXF: the connector API, built-in connectors (HBase, text,
JSON, sequence files), filter pushdown, locality, and SQL over external
tables — including the paper's Section 6.1 examples."""

import datetime

import pytest

from repro import Engine
from repro.catalog.schema import Column, DataType, Distribution, TableSchema
from repro.errors import PxfError
from repro.pxf import DataFragment, HBaseConnector, PushedFilter, SimulatedHBase
from repro.pxf.files import write_sequence_file
from repro.pxf.registry import PxfRegistry
from repro.simtime import CostAccumulator, CostModel


@pytest.fixture
def hbase():
    store = SimulatedHBase(region_servers=["rs0", "rs1"])
    store.create_table("sales", num_regions=3)
    for i in range(30):
        store.put(
            "sales",
            f"{20130101000000 + i}",
            {"details:storeid": i % 5, "details:price": 10.5 + i},
        )
    return store


class TestSimulatedHBase:
    def test_put_get(self, hbase):
        row = hbase.get("sales", "20130101000005")
        assert row["details:storeid"] == 0

    def test_put_updates(self, hbase):
        hbase.put("sales", "20130101000005", {"details:price": 99.0})
        row = hbase.get("sales", "20130101000005")
        assert row["details:price"] == 99.0
        assert row["details:storeid"] == 0  # merged, not replaced

    def test_missing_row(self, hbase):
        assert hbase.get("sales", "nope") is None

    def test_regions_cover_all_rows(self, hbase):
        regions = hbase.regions("sales")
        assert len(regions) == 3
        total = sum(
            len(list(hbase.scan_region("sales", r))) for r in regions
        )
        assert total == 30

    def test_regions_are_disjoint(self, hbase):
        regions = hbase.regions("sales")
        seen = []
        for region in regions:
            seen.extend(k for k, _ in hbase.scan_region("sales", region))
        assert len(seen) == len(set(seen))

    def test_unknown_table(self, hbase):
        with pytest.raises(PxfError):
            hbase.get("nope", "k")

    def test_duplicate_create(self, hbase):
        with pytest.raises(PxfError):
            hbase.create_table("sales")


class TestRegistry:
    def test_parse_location(self):
        registry = PxfRegistry()
        info = registry.parse_location(
            "pxf://pxf-svc/sales?profile=HBase&opt=1", "CUSTOM", {}
        )
        assert info["profile"] == "HBase"
        assert info["source"] == "sales"
        assert info["options"] == {"opt": "1"}

    def test_parse_location_requires_profile(self):
        registry = PxfRegistry()
        with pytest.raises(PxfError):
            registry.parse_location("pxf://svc/sales", "CUSTOM", {})

    def test_parse_location_requires_scheme(self):
        registry = PxfRegistry()
        with pytest.raises(PxfError):
            registry.parse_location("hdfs://svc/sales?profile=x", "CUSTOM", {})

    def test_unknown_profile(self):
        registry = PxfRegistry()
        with pytest.raises(PxfError, match="registered"):
            registry.connector("hbase")

    def test_locality_aware_assignment(self):
        registry = PxfRegistry()
        fragments = [
            DataFragment("s", 0, host="rs0"),
            DataFragment("s", 1, host="rs0"),
            DataFragment("s", 2, host="rs1"),
            DataFragment("s", 3, host=None),
        ]
        assignment = registry.assign_fragments(
            fragments, 3, segment_hosts={0: "rs0", 1: "rs1", 2: "rs2"}
        )
        assert {f.index for f in assignment[0]} == {0, 1}
        assert {f.index for f in assignment[1]} == {2}
        assert {f.index for f in assignment[2]} == {3}  # round robin

    def test_pushed_filter_semantics(self):
        f = PushedFilter(column="k", op=">=", value=10)
        assert f.matches(10) and f.matches(11) and not f.matches(9)
        assert not f.matches(None)


class TestExternalTablesSql:
    @pytest.fixture
    def engine(self, hbase):
        engine = Engine(num_segment_hosts=2, segments_per_host=2)
        engine.pxf.register(HBaseConnector(hbase))
        return engine

    def test_paper_example_select(self, engine):
        """The paper's Section 6.1 query, verbatim shape."""
        session = engine.connect()
        session.execute(
            """
            CREATE EXTERNAL TABLE my_hbase_sales (
                recordkey INT8,
                "details:storeid" INT,
                "details:price" DOUBLE PRECISION)
            LOCATION ('pxf://pxf-svc/sales?profile=HBase')
            FORMAT 'CUSTOM' (formatter='pxfwritable_import')
            """
        )
        rows = session.query(
            'SELECT sum("details:price") FROM my_hbase_sales '
            "WHERE recordkey < 20130101000010"
        )
        assert rows[0][0] == pytest.approx(sum(10.5 + i for i in range(10)))

    def test_paper_example_join_with_internal_table(self, engine):
        session = engine.connect()
        session.execute(
            """
            CREATE EXTERNAL TABLE my_hbase_sales (
                recordkey INT8,
                "details:storeid" INT,
                "details:price" DOUBLE PRECISION)
            LOCATION ('pxf://pxf-svc/sales?profile=HBase')
            FORMAT 'CUSTOM' (formatter='pxfwritable_import')
            """
        )
        session.execute("CREATE TABLE stores (id INT, name TEXT) DISTRIBUTED BY (id)")
        session.execute(
            "INSERT INTO stores VALUES (0,'zero'), (1,'one'), (2,'two'), "
            "(3,'three'), (4,'four')"
        )
        rows = session.query(
            'SELECT s.name, count(*) FROM stores s, my_hbase_sales h '
            'WHERE s.id = h."details:storeid" GROUP BY s.name ORDER BY s.name'
        )
        assert len(rows) == 5
        assert sum(r[1] for r in rows) == 30

    def test_analyze_external_table(self, engine):
        session = engine.connect()
        session.execute(
            """
            CREATE EXTERNAL TABLE e (recordkey INT8, "details:price" FLOAT)
            LOCATION ('pxf://svc/sales?profile=HBase') FORMAT 'CUSTOM' ()
            """
        )
        session.execute("ANALYZE e")
        snapshot = engine.txns.begin().statement_snapshot()
        stats = engine.catalog.get_stats("e", snapshot)
        assert stats.row_count == 30


class TestFileConnectors:
    @pytest.fixture
    def engine(self):
        return Engine(num_segment_hosts=2, segments_per_host=1)

    def schema(self):
        return TableSchema(
            name="ext",
            columns=[
                Column("id", DataType.parse("INT")),
                Column("name", DataType.parse("TEXT")),
                Column("amount", DataType.parse("DECIMAL(10,2)")),
            ],
            distribution=Distribution.random(),
        )

    def test_text_connector(self, engine):
        client = engine.hdfs.client()
        client.write_file(
            "/ext/data.tbl", b"1|alpha|10.5\n2|beta|20.25\n3||30.0\n"
        )
        session = engine.connect()
        session.execute(
            """
            CREATE EXTERNAL TABLE ext (id INT, name TEXT, amount DECIMAL(10,2))
            LOCATION ('pxf://svc/ext/data.tbl?profile=HdfsTextSimple')
            FORMAT 'TEXT' ()
            """
        )
        rows = session.query("SELECT id, name, amount FROM ext ORDER BY id")
        assert rows == [(1, "alpha", 10.5), (2, "beta", 20.25), (3, None, 30.0)]

    def test_json_connector(self, engine):
        client = engine.hdfs.client()
        client.write_file(
            "/ext/data.json",
            b'{"id": 1, "name": "a"}\n{"id": 2}\n',
        )
        session = engine.connect()
        session.execute(
            """
            CREATE EXTERNAL TABLE ej (id INT, name TEXT)
            LOCATION ('pxf://svc/ext/data.json?profile=json') FORMAT 'CUSTOM' ()
            """
        )
        rows = session.query("SELECT id, name FROM ej ORDER BY id")
        assert rows == [(1, "a"), (2, None)]

    def test_json_export_round_trip(self, engine):
        """``JsonWriter``: two INSERTs into a writable table, read back
        through a readable one on the same path. NULL, DATE and DECIMAL
        survive, and the second INSERT appends."""
        session = engine.connect()
        columns = "(id INT, d DATE, amount DECIMAL(10,2), name TEXT)"
        location = "LOCATION ('pxf://svc/ext/out.json?profile=Json') FORMAT 'CUSTOM' ()"
        session.execute(f"CREATE WRITABLE EXTERNAL TABLE jout {columns} {location}")
        session.execute(f"CREATE EXTERNAL TABLE jin {columns} {location}")
        session.execute(
            "INSERT INTO jout VALUES (1, date '1998-09-02', 12.34, 'a'), (2, NULL, NULL, NULL)"
        )
        session.execute("INSERT INTO jout VALUES (3, date '2000-01-01', -0.5, 'c')")
        assert engine.hdfs.client().read_file("/ext/out.json").count(b"\n") == 3
        assert session.query("SELECT id, d, amount, name FROM jin ORDER BY id") == [
            (1, datetime.date(1998, 9, 2), 12.34, "a"),
            (2, None, None, None),
            (3, datetime.date(2000, 1, 1), -0.5, "c"),
        ]

    def test_sequence_file_connector(self, engine):
        schema = self.schema()
        count = write_sequence_file(
            engine.hdfs,
            "/ext/data.seq",
            [(1, "x", 5.0), (2, "y", 6.0)],
            schema,
        )
        assert count == 2
        session = engine.connect()
        session.execute(
            """
            CREATE EXTERNAL TABLE es (id INT, name TEXT, amount DECIMAL(10,2))
            LOCATION ('pxf://svc/ext/data.seq?profile=SequenceFile')
            FORMAT 'CUSTOM' ()
            """
        )
        assert session.query("SELECT count(*) FROM es") == [(2,)]

    def test_missing_files(self, engine):
        session = engine.connect()
        session.execute(
            """
            CREATE EXTERNAL TABLE missing (id INT)
            LOCATION ('pxf://svc/no/such?profile=HdfsTextSimple') FORMAT 'TEXT' ()
            """
        )
        with pytest.raises(PxfError):
            session.query("SELECT * FROM missing")

    def test_every_row_read_exactly_once_across_segments(self, engine):
        """Striping must neither drop nor duplicate records."""
        client = engine.hdfs.client()
        lines = "".join(f"{i}|n{i}|1.0\n" for i in range(50))
        client.write_file("/ext/big.tbl", lines.encode())
        session = engine.connect()
        session.execute(
            """
            CREATE EXTERNAL TABLE eb (id INT, name TEXT, amount FLOAT)
            LOCATION ('pxf://svc/ext/big.tbl?profile=HdfsTextSimple')
            FORMAT 'TEXT' ()
            """
        )
        rows = session.query("SELECT id FROM eb ORDER BY id")
        assert [r[0] for r in rows] == list(range(50))


class TestGemFireConnector:
    """Section 6.2's scenario: analyze in-memory operational data."""

    @pytest.fixture
    def engine(self):
        from repro.pxf.gemfire import GemFireConnector, SimulatedGemFireXD

        store = SimulatedGemFireXD(members=["gem0", "gem1"])
        store.create_table("trades", ["trade_id", "symbol", "qty"], num_buckets=4)
        store.put_all(
            "trades",
            [(i, "AAPL" if i % 2 else "MSFT", i * 10) for i in range(1, 41)],
        )
        engine = Engine(num_segment_hosts=2, segments_per_host=2)
        engine.pxf.register(GemFireConnector(store))
        self.store = store
        return engine

    def test_query_in_place(self, engine):
        session = engine.connect()
        session.execute(
            """
            CREATE EXTERNAL TABLE trades (trade_id INT, symbol TEXT, qty INT)
            LOCATION ('pxf://svc/trades?profile=GemFireXD') FORMAT 'CUSTOM' ()
            """
        )
        rows = session.query(
            "SELECT symbol, sum(qty) FROM trades GROUP BY symbol ORDER BY symbol"
        )
        assert rows == [
            ("AAPL", sum(i * 10 for i in range(1, 41) if i % 2)),
            ("MSFT", sum(i * 10 for i in range(1, 41) if not i % 2)),
        ]

    def test_exact_filter_pushdown(self, engine):
        session = engine.connect()
        session.execute(
            """
            CREATE EXTERNAL TABLE trades (trade_id INT, symbol TEXT, qty INT)
            LOCATION ('pxf://svc/trades?profile=GemFireXD') FORMAT 'CUSTOM' ()
            """
        )
        rows = session.query("SELECT count(*) FROM trades WHERE qty >= 300")
        assert rows == [(11,)]

    def test_join_operational_with_warehouse(self, engine):
        session = engine.connect()
        session.execute(
            """
            CREATE EXTERNAL TABLE trades (trade_id INT, symbol TEXT, qty INT)
            LOCATION ('pxf://svc/trades?profile=GemFireXD') FORMAT 'CUSTOM' ()
            """
        )
        session.execute(
            "CREATE TABLE companies (symbol TEXT, sector TEXT) DISTRIBUTED RANDOMLY"
        )
        session.execute(
            "INSERT INTO companies VALUES ('AAPL', 'tech'), ('MSFT', 'tech')"
        )
        rows = session.query(
            "SELECT c.sector, count(*) FROM trades t, companies c "
            "WHERE t.symbol = c.symbol GROUP BY c.sector"
        )
        assert rows == [("tech", 40)]

    def test_buckets_spread_over_members(self, engine):
        from repro.pxf.gemfire import GemFireFragmenter

        fragments = GemFireFragmenter(self.store).fragments("trades")
        assert {f.host for f in fragments} == {"gem0", "gem1"}

    def test_analyze(self, engine):
        session = engine.connect()
        session.execute(
            """
            CREATE EXTERNAL TABLE trades (trade_id INT, symbol TEXT, qty INT)
            LOCATION ('pxf://svc/trades?profile=GemFireXD') FORMAT 'CUSTOM' ()
            """
        )
        session.execute("ANALYZE trades")
        snapshot = engine.txns.begin().statement_snapshot()
        assert engine.catalog.get_stats("trades", snapshot).row_count == 40
