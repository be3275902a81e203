"""The simulated-clock canary: dispatch payload sizes, pinned.

``build_self_described_plan`` sizes the DISPATCH message with the
by-value wire encoding of ``planner/wire.py`` and charges its compressed
length: ``compressed_bytes`` becomes ``SliceTask.payload_bytes`` and so
charged seconds. Nothing else in tier-1 notices when that encoding
moves — answers stay right and only the simulated clock drifts — so 18
statements' ``(plan_bytes, compressed_bytes, cost.seconds)`` and the 22
TPC-H statements' ``(plan_bytes, compressed_bytes)`` are pinned here.
What the pins guard is the *wire format*: the tags and framing, which
fields of which plan nodes travel, each table's schema once. A change
to any of those re-pins them, deliberately
(``PYTHONPATH=src python tests/test_payload_canary.py`` prints the
tables). They no longer guard who shares which object — the encoding is
identity-free, and ``tests/test_wire.py`` holds it to that.

``PICKLED`` keeps the literals of the encoding this one replaced
(``pickle.dumps`` of ``(plan, metadata)`` with 2-3 private schema copies
per referenced table, pinned at the commit before PR 16): the re-pin may
only have made every message smaller and every statement cheaper, by
at most half a percent.
"""

import pytest

from repro import Engine
from repro.ddl import CatalogAdapter
from repro.planner.analyzer import Analyzer
from repro.planner.dispatch import build_self_described_plan
from repro.sql.parser import parse_statement
from repro.tpch import QUERIES, generate, load_tpch

#: The ten ``short_*`` templates of ``benchmarks/perf/workloads.py``:
#: (table the key is drawn from, key column, SQL).
SHORT_TEMPLATES = (
    ("customer", 0, "SELECT c_custkey, c_name, c_acctbal FROM customer WHERE c_custkey = {k}"),
    ("orders", 0, "SELECT o_orderkey, o_orderstatus, o_totalprice FROM orders WHERE o_orderkey = {k}"),
    ("part", 0, "SELECT p_partkey, p_name, p_retailprice FROM part WHERE p_partkey = {k}"),
    ("lineitem", 0,
     "SELECT l_linenumber, l_quantity, l_extendedprice FROM lineitem "
     "WHERE l_orderkey = {k} ORDER BY l_linenumber"),
    ("customer", 0,
     "SELECT c_name, n_name FROM customer, nation "
     "WHERE c_nationkey = n_nationkey AND c_custkey = {k}"),
    ("supplier", 0,
     "SELECT s_name, n_name FROM supplier, nation "
     "WHERE s_nationkey = n_nationkey AND s_suppkey = {k}"),
    ("orders", 1, "SELECT count(*), sum(o_totalprice) FROM orders WHERE o_custkey = {k}"),
    ("lineitem", 0, "SELECT count(*), max(l_shipdate) FROM lineitem WHERE l_orderkey = {k}"),
    ("orders", 1,
     "SELECT o_orderkey, o_totalprice FROM orders WHERE o_custkey = {k} "
     "ORDER BY o_totalprice DESC, o_orderkey LIMIT 3"),
    ("partsupp", 0,
     "SELECT ps_suppkey, ps_supplycost FROM partsupp WHERE ps_partkey = {k} "
     "ORDER BY ps_supplycost, ps_suppkey LIMIT 2"),
)

#: statement label -> (plan_bytes, compressed_bytes, cost.seconds)
PINS = {
    'short0': (1590, 588, 0.1445811111760684),
    'short1': (1672, 633, 0.1448468344871795),
    'short2': (1598, 598, 0.14459831305128204),
    'short3': (2303, 755, 0.14611308975093537),
    'short4': (2862, 868, 0.2066761686303419),
    'short5': (2804, 862, 0.20664441598579067),
    'short6': (1820, 691, 0.15958366223589743),
    'short7': (2221, 780, 0.14599578814017095),
    'short8': (1999, 688, 0.1595980247131209),
    'short9': (1800, 619, 0.14466524882222223),
    'tpch_q7': (10524, 2495, 0.3994999933053422),
    'tpch_q21': (9046, 2210, 0.40262772749829095),
    'partition_eliminated': (1198, 445, 0.15928689083333336),
    'partition_all': (3191, 638, 0.1593248814444444),
    'view': (2080, 770, 0.15968685695811966),
    'view_self_join': (3209, 924, 0.25505705724957256),
    'external': (1093, 468, 0.15928602047225826),
    'external_join': (2046, 789, 0.20665192305331206),
}

#: TPC-H query -> (plan_bytes, compressed_bytes) of its SELECT, on the
#: same engine (Q15: with its view created).
TPCH_SIZES = {
    1: (4629, 1185),
    2: (11832, 2607),
    3: (5787, 1636),
    4: (4603, 1335),
    5: (10275, 2436),
    6: (2565, 884),
    7: (10524, 2495),
    8: (14164, 3112),
    9: (12128, 2682),
    10: (8948, 2130),
    11: (6442, 1490),
    12: (5119, 1431),
    13: (4221, 1213),
    14: (4379, 1290),
    15: (6718, 1643),
    16: (5720, 1558),
    17: (5595, 1590),
    18: (6744, 1778),
    19: (5487, 1468),
    20: (9400, 2344),
    21: (9046, 2210),
    22: (5405, 1492),
}

#: The same under the pickle this encoding replaced (old -> new).
PICKLED = {
    'short0': (2953, 1298, 0.14458900006495726),
    'short1': (3075, 1340, 0.14485469004273505),
    'short2': (3003, 1316, 0.14460629082905982),
    'short3': (3986, 1592, 0.14612238975093536),
    'short4': (4488, 1745, 0.20683207974145293),
    'short5': (4388, 1712, 0.20679552709690163),
    'short6': (3295, 1479, 0.15965370668034187),
    'short7': (3990, 1635, 0.14600528814017094),
    'short8': (3335, 1471, 0.1596676247131209),
    'short9': (2951, 1366, 0.14467354882222222),
    'tpch_q7': (14071, 4168, 0.40039225997200906),
    'tpch_q21': (13466, 3747, 0.40344746083162414),
    'partition_eliminated': (2448, 1177, 0.15935195749999997),
    'partition_all': (4360, 1399, 0.15939252588888891),
    'view': (3597, 1595, 0.15976019029145302),
    'view_self_join': (5044, 1955, 0.2553319905829061),
    'external': (1835, 997, 0.15933304269448045),
    'external_join': (3304, 1532, 0.206784011942201),
}


def build_session():
    """The fixed engine: default seed, 8 segments, TPC-H SF 0.001 plus a
    partitioned table, two views and an external (PXF) table."""
    engine = Engine(num_segment_hosts=4, segments_per_host=2)
    session = engine.connect()
    data = load_tpch(session, scale=0.001, data=generate(0.001, seed=77))
    session.execute(
        "CREATE TABLE pt (id INT, g INT) DISTRIBUTED BY (id) "
        "PARTITION BY RANGE (g) (START (0) END (40) EVERY (10))"
    )
    session.execute(
        "INSERT INTO pt VALUES " + ", ".join(f"({i}, {i % 40})" for i in range(200))
    )
    session.execute(
        "CREATE VIEW big_orders AS SELECT o_orderkey, o_custkey, o_totalprice "
        "FROM orders WHERE o_totalprice > 100000"
    )
    engine.hdfs.client().write_file(
        "/ext/data.tbl", b"1|alpha|10.5\n2|beta|20.25\n3||30.0\n"
    )
    session.execute(
        "CREATE EXTERNAL TABLE ext (id INT, name TEXT, amount DECIMAL(10,2)) "
        "LOCATION ('pxf://svc/ext/data.tbl?profile=HdfsTextSimple') FORMAT 'TEXT' ()"
    )
    session.execute("ANALYZE")
    return session, data


def statements(data):
    out = {}
    for index, (table, column, sql) in enumerate(SHORT_TEMPLATES):
        rows = getattr(data, table)
        out[f"short{index}"] = sql.format(k=rows[len(rows) // 3][column])
    # Q7 and Q21 reference one table twice (nation n1/n2, lineitem l1/l2/l3).
    out["tpch_q7"] = QUERIES[7][-1]
    out["tpch_q21"] = QUERIES[21][-1]
    out["partition_eliminated"] = "SELECT id, g FROM pt WHERE g = 17"
    out["partition_all"] = "SELECT count(*) FROM pt"
    out["view"] = "SELECT count(*), sum(o_totalprice) FROM big_orders"
    out["view_self_join"] = (
        "SELECT count(*) FROM big_orders a, big_orders b "
        "WHERE a.o_custkey = b.o_custkey"
    )
    out["external"] = "SELECT id, name, amount FROM ext ORDER BY id"
    out["external_join"] = (
        "SELECT e.name, n_name FROM ext e, nation WHERE e.id = n_nationkey"
    )
    return out


def dispatched(session, sql):
    """The self-described plan a SELECT would dispatch, through the same
    analyze -> plan -> self-described-plan path."""
    engine = session.engine
    txn = engine.txns.begin()
    try:
        snapshot = txn.statement_snapshot()
        analyzer = Analyzer(CatalogAdapter(engine.catalog, snapshot))
        query = analyzer.analyze(parse_statement(sql))
        plan = session._plan(query, snapshot, query.tables(subplans=True))
        return build_self_described_plan(plan, engine.catalog, snapshot)
    finally:
        engine.txns.abort(txn)


def measure(session, sql):
    """(plan_bytes, compressed_bytes, cost.seconds) of one statement:
    the sizes as dispatched, the seconds from executing it."""
    sdp = dispatched(session, sql)
    return sdp.plan_bytes, sdp.compressed_bytes, session.execute(sql).cost.seconds


@pytest.fixture(scope="module")
def env():
    session, data = build_session()
    return session, statements(data)


def test_every_statement_is_pinned(env):
    _, sqls = env
    assert sorted(sqls) == sorted(PINS)


@pytest.mark.parametrize("label", sorted(PINS))
def test_payload_size_and_charged_seconds(env, label):
    session, sqls = env
    assert measure(session, sqls[label]) == PINS[label]


@pytest.mark.parametrize("label", sorted(PINS))
def test_the_re_pin_only_made_statements_cheaper(label):
    _, new_compressed, new_seconds = PINS[label]
    _, old_compressed, old_seconds = PICKLED[label]
    assert new_compressed <= old_compressed
    assert old_seconds * 0.995 <= new_seconds <= old_seconds


def test_repeating_a_statement_repeats_its_payload(env):
    """The second run of a statement (same view AST, same schema
    objects, their wire bytes already encoded) is neither cheaper nor
    dearer than the first."""
    session, sqls = env
    for label in ("short4", "view_self_join", "tpch_q21"):
        assert measure(session, sqls[label]) == measure(session, sqls[label])


def tpch_sizes(session):
    """TPC-H query -> (plan_bytes, compressed_bytes) of its SELECT; runs
    Q15's CREATE VIEW / DROP VIEW around it."""
    sizes = {}
    for number in sorted(QUERIES):
        for sql in QUERIES[number]:
            if sql.lstrip().lower().startswith("select"):
                sdp = dispatched(session, sql)
                sizes[number] = (sdp.plan_bytes, sdp.compressed_bytes)
            else:
                session.execute(sql)
    return sizes


def test_every_tpch_payload_size_is_pinned(env):
    session, _ = env
    assert tpch_sizes(session) == TPCH_SIZES


if __name__ == "__main__":
    _session, _data = build_session()
    for _label, _sql in statements(_data).items():
        print(f"    {_label!r}: {measure(_session, _sql)!r},")
    for _number, _sizes in tpch_sizes(_session).items():
        print(f"    {_number}: {_sizes!r},")
