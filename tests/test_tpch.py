"""TPC-H integration: dbgen properties, each statement's traffic, and
the 22 run three ways — on HAWQ, on the independently implemented
Stinger engine and on the outside reference (``repro.bench.reference``)
— where both engines must give the reference's answer."""

import datetime
import os

import pytest

from repro.baselines import StingerEngine
from repro.bench import contract
from repro.bench.reference import Reference
from repro.bench.statements import TPCH_SEED, traffic, traffic_session
from repro.engine import Engine
from repro.tpch import QUERIES, TABLE_NAMES, generate, load_tpch
from repro.tpch.dbgen import CURRENT_DATE, END_DATE, START_DATE

SCALE = 0.001
#: The three-way run's scale: ``scripts/ci.sh`` sets SF 0.01, where each
#: of the 22 answers rows (Q8 and Q20 answer none at SF 0.001).
THREE_WAY_SCALE = float(os.environ.get("REPRO_REFERENCE_SF", SCALE))


@pytest.fixture(scope="module")
def data():
    return generate(SCALE, seed=TPCH_SEED)


@pytest.fixture(scope="module")
def hawq(data):
    return traffic_session(data)


@pytest.fixture(scope="module")
def three_way(data, hawq):
    """HAWQ on AO tables (list-backed batches) and on CO tables (typed
    batches), Stinger and the reference, holding the same TPC-H data."""
    if THREE_WAY_SCALE != SCALE:
        data = generate(THREE_WAY_SCALE, seed=TPCH_SEED)
        hawq = traffic_session(data)
    hawq_co = Engine(num_segment_hosts=4, segments_per_host=1).connect()
    load_tpch(hawq_co, storage_format="co", data=data)
    engine, reference = hawq.engine, Reference()
    stinger = StingerEngine(num_nodes=4, containers_per_node=2, scale=100.0)
    for table in TABLE_NAMES:
        reference.load(engine, table, getattr(data, table))
        with engine.txns.run() as txn:
            schema = engine.catalog.get_schema(table, txn.statement_snapshot())
        stinger.load_table(schema, getattr(data, table))
    yield {"HAWQ AO": hawq, "HAWQ CO": hawq_co, "Stinger": stinger}, reference
    reference.close()


class TestDbgen:
    def test_cardinality_ratios(self, data):
        counts = data.counts()
        assert counts["region"] == 5
        assert counts["nation"] == 25
        assert counts["partsupp"] == 4 * counts["part"]
        assert counts["orders"] == 10 * counts["customer"]
        assert 1 * counts["orders"] <= counts["lineitem"] <= 7 * counts["orders"]

    def test_deterministic(self):
        a, b = generate(0.001, seed=5), generate(0.001, seed=5)
        assert a.lineitem == b.lineitem
        assert a.orders == b.orders

    def test_seed_changes_data(self):
        a, b = generate(0.001, seed=5), generate(0.001, seed=6)
        assert a.lineitem != b.lineitem

    def test_value_domains(self, data):
        for row in data.lineitem[:500]:
            assert 1 <= row[4] <= 50  # quantity
            assert 0 <= row[6] <= 0.10  # discount
            assert 0 <= row[7] <= 0.08  # tax
            assert row[8] in ("R", "A", "N")
            assert row[9] in ("F", "O")
            assert START_DATE <= row[10] <= END_DATE + datetime.timedelta(days=151)
            assert row[12] > row[10]  # receipt after ship

    def test_returnflag_consistent_with_receipt(self, data):
        for row in data.lineitem[:500]:
            if row[12] <= CURRENT_DATE:
                assert row[8] in ("R", "A")
            else:
                assert row[8] == "N"

    def test_one_third_of_customers_never_order(self, data):
        ordering = {o[1] for o in data.orders}
        assert all(c % 3 != 0 for c in ordering)

    def test_query_predicate_vocabulary_present(self, data):
        part_names = " ".join(p[1] for p in data.part)
        assert "forest" in part_names  # Q20
        assert "green" in part_names  # Q9
        segments = {c[6] for c in data.customer}
        assert "BUILDING" in segments  # Q3
        assert any(
            "special" in o[8] and "requests" in o[8] for o in data.orders
        )  # Q13
        # Q16's supplier-complaints comments appear at ~2%: check at a
        # scale with enough suppliers for the expectation to hold.
        bigger = generate(0.01, seed=3)
        assert any(
            "Customer" in s[6] and "Complaints" in s[6] for s in bigger.supplier
        )

    def test_orderstatus_matches_linestatus(self, data):
        lines_by_order = {}
        for line in data.lineitem:
            lines_by_order.setdefault(line[0], []).append(line[9])
        for order in data.orders[:300]:
            statuses = set(lines_by_order[order[0]])
            if statuses == {"F"}:
                assert order[2] == "F"
            elif statuses == {"O"}:
                assert order[2] == "O"
            else:
                assert order[2] == "P"


@pytest.mark.parametrize("number", sorted(QUERIES))
def test_query_runs_on_hawq(hawq, number):
    result = None
    for stmt in QUERIES[number]:
        r = hawq.execute(stmt)
        if r.plan is not None:
            result = r
    assert result is not None
    assert result.cost.seconds > 0
    # Aggregation queries must return at least the empty-aggregate row.
    if number in (1, 6, 14, 17, 19):
        assert len(result.rows) >= 1


@pytest.mark.parametrize("number", sorted(QUERIES))
def test_the_22_agree_three_ways(three_way, number):
    """HAWQ (MPP, pipelined; on AO and on CO tables) and Stinger
    (rule-based MapReduce) each give the reference's answer: in order
    where there is an ORDER BY, with LIMIT and tie rules
    (``reference.mismatch``)."""
    engines, reference = three_way
    answer = reference.run(";".join(QUERIES[number]))
    # At SF 0.001 and 0.002 Q8 and Q20 answer nothing; at SF 0.01 all 22 do.
    assert answer.rows or (THREE_WAY_SCALE < 0.01 and number in (8, 20)), f"Q{number}"
    for name, engine in engines.items():
        for stmt in QUERIES[number]:  # Q15 runs its SELECT inside CREATE/DROP VIEW
            result = engine.execute(stmt)
            if stmt.lstrip().lower().startswith("select"):
                rows = result.rows
        assert answer.mismatch(rows) is None, f"Q{number}: {name} {answer.mismatch(rows)}"


@pytest.mark.parametrize("number", sorted(QUERIES))
def test_query_traffic_is_pinned(hawq, number):
    """Each statement's messages, bytes, streams and ``cost.seconds``
    (``repro.bench.statements.traffic``) are the contract's."""
    contract.check(("statements", "traffic", number), traffic(hawq, number))
