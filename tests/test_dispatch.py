"""Tests for metadata dispatch: self-described plans (paper 3.1)."""

import dataclasses
import zlib

import pytest

import repro.engine as engine_module
import repro.planner.dispatch as dispatch_module
from repro import Engine
from repro.ddl import CatalogAdapter
from repro.planner.analyzer import Analyzer
from repro.planner.dispatch import build_self_described_plan, tables_in_plan
from repro.planner.wire import encode
from repro.sql.parser import parse_statement
from repro.tpch import QUERIES, generate, load_tpch
from tests.test_payload_canary import SHORT_TEMPLATES


@pytest.fixture
def env():
    engine = Engine(num_segment_hosts=2, segments_per_host=2)
    session = engine.connect()
    session.execute("CREATE TABLE t (a INT, b INT) DISTRIBUTED BY (a)")
    session.execute("CREATE TABLE s (x INT) DISTRIBUTED BY (x)")
    session.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
    session.execute("INSERT INTO s VALUES (10)")
    session.execute(
        """
        CREATE TABLE pt (id INT, g INT) DISTRIBUTED BY (id)
        PARTITION BY RANGE (g) (START (0) END (10) EVERY (5))
        """
    )
    session.execute("INSERT INTO pt VALUES (1, 2), (2, 7)")
    return engine, session


def plan_for(engine, session, sql):
    txn = engine.txns.begin()
    snapshot = txn.statement_snapshot()
    analyzer = Analyzer(CatalogAdapter(engine.catalog, snapshot))
    query = analyzer.analyze(parse_statement(sql))
    plan = session._plan(query, snapshot, query.tables(subplans=True))
    return plan, snapshot


class TestTablesInPlan:
    def test_join_lists_both(self, env):
        engine, session = env
        plan, _ = plan_for(engine, session, "SELECT 1 FROM t, s WHERE b = x")
        assert tables_in_plan(plan) == {"t", "s"}

    def test_partitioned_table_lists_selected_children(self, env):
        engine, session = env
        plan, _ = plan_for(engine, session, "SELECT * FROM pt WHERE g = 7")
        names = tables_in_plan(plan)
        assert names == {"pt_1_prt_2"}  # pruned to one child

    def test_init_plan_tables_included(self, env):
        engine, session = env
        plan, _ = plan_for(
            engine, session, "SELECT a FROM t WHERE b > (SELECT max(x) FROM s)"
        )
        assert tables_in_plan(plan) == {"t", "s"}


class TestSelfDescribedPlan:
    def test_contains_schemas_and_segfiles(self, env):
        engine, session = env
        plan, snapshot = plan_for(engine, session, "SELECT * FROM t")
        sdp = build_self_described_plan(plan, engine.catalog, snapshot)
        meta = sdp.metadata["t"]
        assert meta.schema.name == "t"
        assert meta.storage_format == "ao"
        total_rows = sum(
            lane.tupcount
            for lanes in meta.segfiles.values()
            for lane in lanes
        )
        assert total_rows == 2

    def test_logical_lengths_follow_snapshot(self, env):
        """The self-described plan carries the *snapshot's* logical
        lengths — a later insert must not appear in an older plan."""
        engine, session = env
        plan, snapshot = plan_for(engine, session, "SELECT * FROM t")
        before = build_self_described_plan(plan, engine.catalog, snapshot)
        session.execute("INSERT INTO t VALUES (3, 30)")
        after_txn = engine.txns.begin()
        after = build_self_described_plan(
            plan, engine.catalog, after_txn.statement_snapshot()
        )
        bytes_before = sum(
            sum(lane.paths.values())
            for lanes in before.metadata["t"].segfiles.values()
            for lane in lanes
        )
        bytes_after = sum(
            sum(lane.paths.values())
            for lanes in after.metadata["t"].segfiles.values()
            for lane in lanes
        )
        assert bytes_after > bytes_before

    def test_plan_is_compressed(self, env):
        engine, session = env
        plan, snapshot = plan_for(
            engine, session, "SELECT b, count(*) FROM t GROUP BY b"
        )
        sdp = build_self_described_plan(plan, engine.catalog, snapshot)
        assert 0 < sdp.compressed_bytes < sdp.plan_bytes

    def test_bigger_query_bigger_plan(self, env):
        engine, session = env
        small, snapshot = plan_for(engine, session, "SELECT a FROM t")
        big, _ = plan_for(
            engine,
            session,
            "SELECT t.b, count(*) FROM t, s WHERE t.b = s.x "
            "GROUP BY t.b ORDER BY 2 DESC LIMIT 3",
        )
        small_sdp = build_self_described_plan(small, engine.catalog, snapshot)
        big_sdp = build_self_described_plan(big, engine.catalog, snapshot)
        assert big_sdp.plan_bytes > small_sdp.plan_bytes


# ------------------------------------------------- the memo's byte identity
def assert_sized_by_value(sdp):
    """The sizes a dispatch charges are those of ``(plan, metadata)``
    encoded whole, however the message was put together."""
    raw = encode((sdp.plan, sdp.metadata))
    assert sdp.plan_bytes == len(raw)
    assert sdp.compressed_bytes == len(zlib.compress(raw, 1))


@pytest.fixture
def dispatches(monkeypatch):
    """Every self-described plan the engine's sessions build, in order."""
    seen = []
    build = engine_module.build_self_described_plan

    def recording(*args, **kwargs):
        sdp = build(*args, **kwargs)
        seen.append(sdp)
        return sdp

    monkeypatch.setattr(engine_module, "build_self_described_plan", recording)
    return seen


@pytest.fixture(scope="module")
def tpch():
    engine = Engine(num_segment_hosts=2, segments_per_host=2)
    session = engine.connect()
    data = load_tpch(session, scale=0.002, data=generate(0.002, seed=2))
    return session, data


class TestMemoizedDispatch:
    def test_tpch_and_short_statements_are_sized_by_value(self, tpch, dispatches):
        session, data = tpch
        shorts = []
        for table, column, sql in SHORT_TEMPLATES:
            rows = getattr(data, table)
            shorts.append(sql.format(k=rows[len(rows) // 3][column]))
        statements = [sql for n in sorted(QUERIES) for sql in QUERIES[n]] + shorts
        for sql in statements * 2:  # the second pass hits the memo
            session.execute(sql)
        assert len(dispatches) >= 2 * (22 + len(shorts))
        for sdp in dispatches:
            assert_sized_by_value(sdp)
        # A table's metadata is built once and shared while its catalog
        # versions stay the ones every statement sees.
        shared = {
            id(meta) for sdp in dispatches for meta in sdp.metadata.values()
        }
        assert len(shared) == len({n for sdp in dispatches for n in sdp.metadata})

    @pytest.mark.parametrize(
        "change",
        [
            "INSERT INTO t VALUES (3, 30), (4, 40)",
            "TRUNCATE TABLE t",
            "ALTER TABLE t SET WITH (orientation=column)",
            "VACUUM t",
            "ANALYZE t",
        ],
    )
    def test_next_dispatch_carries_the_new_versions(self, env, dispatches, change):
        engine, session = env
        session.execute("SELECT * FROM t")
        before = dispatches[-1].metadata["t"]
        before_bytes = encode(before)
        session.execute(change)
        session.execute("SELECT * FROM t")
        sdp = dispatches[-1]
        assert_sized_by_value(sdp)
        fresh = build_self_described_plan(sdp.plan, engine.catalog, sdp.snapshot)
        assert encode(sdp.metadata) == encode(fresh.metadata)
        if change.split()[0] in ("INSERT", "TRUNCATE", "ALTER"):
            assert encode(sdp.metadata["t"]) != before_bytes
        assert encode(before) == before_bytes  # the old entry is untouched

    def test_two_snapshots_get_their_own_metadata(self, env, dispatches):
        engine, session = env
        reader = engine.connect()
        reader.execute("BEGIN ISOLATION LEVEL SERIALIZABLE")
        assert reader.query("SELECT count(*) FROM t") == [(2,)]
        session.execute("INSERT INTO t VALUES (3, 30)")
        assert session.query("SELECT count(*) FROM t") == [(3,)]
        assert reader.query("SELECT count(*) FROM t") == [(2,)]
        assert session.query("SELECT count(*) FROM t") == [(3,)]
        reader.execute("COMMIT")
        old, new, old_again, new_again = (sdp.metadata["t"] for sdp in dispatches)

        def tuples(meta):
            return sum(
                lane.tupcount for lanes in meta.segfiles.values() for lane in lanes
            )

        assert (tuples(old), tuples(new)) == (2, 3)
        assert old_again is old and new_again is new
        for sdp in dispatches:
            assert_sized_by_value(sdp)

    def test_reused_metadata_is_never_mutated(self, env, dispatches):
        engine, session = env
        session.execute("SELECT * FROM t")
        meta = dispatches[-1].metadata["t"]
        pinned = encode(meta)
        with pytest.raises(dataclasses.FrozenInstanceError):
            meta.storage_format = "co"
        for sql in (
            "SELECT a FROM t WHERE b > 10",
            "INSERT INTO t VALUES (5, 50)",
            "SELECT count(*) FROM t, s WHERE b = x",
            "TRUNCATE TABLE s",
            "SELECT * FROM t",
        ):
            session.execute(sql)
        assert encode(meta) == pinned

    def test_memo_is_bounded(self, env, monkeypatch):
        engine, session = env
        monkeypatch.setattr(dispatch_module, "METADATA_MEMO_LIMIT", 2)
        for value in range(5):
            session.execute(f"INSERT INTO s VALUES ({value})")
            session.execute("SELECT count(*) FROM s")
            assert len(engine.dispatch_memo) <= 2
