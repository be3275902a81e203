"""The statements whose simulated-clock readings ``CONTRACT.json`` pins.

Every reading here is one the answers cannot show: the bytes a DISPATCH
message is charged for, the messages and seconds of each TPC-H
statement, the plans EXPLAIN prints and the bytes each storage format
writes. The tier-1 tests take each reading through these functions and
compare it with the contract (``repro.bench.contract``); the collector
takes the same readings to write it. Each builder makes its own engine,
so a reading does not depend on what ran before it.
"""

from __future__ import annotations

import datetime
import hashlib
from typing import Dict, List, Tuple

from repro.catalog.schema import Column, DataType, TableSchema
from repro.ddl import CatalogAdapter
from repro.engine import Engine
from repro.hdfs import Hdfs
from repro.planner.analyzer import Analyzer
from repro.planner.dispatch import build_self_described_plan
from repro.sql.parser import parse_statement
from repro.storage import get_format
from repro.tpch import QUERIES, generate, load_tpch

#: The dbgen scale and seed of the TPC-H engines below.
SCALE = 0.001
TPCH_SEED = 77

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


# ------------------------------------------------------- dispatch payloads
def build_session():
    """The payload engine: default seed, 8 segments, TPC-H SF 0.001 plus
    a partitioned table, two views and an external (PXF) table."""
    engine = Engine(num_segment_hosts=4, segments_per_host=2)
    session = engine.connect()
    data = load_tpch(session, scale=SCALE, data=generate(SCALE, seed=TPCH_SEED))
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


def statements(data) -> Dict[str, str]:
    """Label -> SQL of the 18 statements whose payload is pinned."""
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


def measure(session, sql) -> Tuple[int, int, float]:
    """(plan_bytes, compressed_bytes, cost.seconds) of one statement:
    the sizes as dispatched, the seconds from executing it."""
    sdp = dispatched(session, sql)
    return sdp.plan_bytes, sdp.compressed_bytes, session.execute(sql).cost.seconds


def tpch_sizes(session) -> Dict[int, Tuple[int, int]]:
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


def explain_digests(session) -> Dict[int, str]:
    """TPC-H query -> the first 16 hex digits of the sha256 of its
    EXPLAIN text (Q15 between its CREATE VIEW and DROP VIEW)."""
    digests = {}
    for number in sorted(QUERIES):
        for sql in QUERIES[number]:
            if sql.lstrip().lower().startswith("select"):
                text = "\n".join(row[0] for row in session.execute("EXPLAIN " + sql).rows)
                digests[number] = hashlib.sha256(text.encode()).hexdigest()[:16]
            else:
                session.execute(sql)
    return digests


# ------------------------------------------------------------ TPC-H traffic
def traffic_session(data=None):
    """The traffic engine: 4 single-segment hosts, TPC-H SF 0.001."""
    session = Engine(num_segment_hosts=4, segments_per_host=1).connect()
    if data is None:
        data = generate(SCALE, seed=TPCH_SEED)
    load_tpch(session, scale=SCALE, data=data)
    return session


def traffic(session, number: int) -> List[Tuple[int, int, int, int, int, float]]:
    """Per statement of TPC-H query ``number``: (datagrams_delivered,
    rpc_messages, rpc_bytes, motion_streams, motion_bytes, cost.seconds).
    Every queued message of a statement is delivered exactly once, so a
    message lost or doubled moves a reading. A task's ACK is sent (an RPC
    message) but never queued, so each statement delivers its motion
    streams plus two messages per task:
    ``rpc_messages / 3 * 2 + motion_streams``."""
    got = []
    for stmt in QUERIES[number]:
        result = session.execute(stmt)
        counts = (
            result.metrics.total(name)
            for name in ("datagrams_delivered", "rpc_messages", "rpc_bytes",
                         "motion_streams", "motion_bytes")
        )
        got.append((*(int(c) if c == int(c) else c for c in counts), result.cost.seconds))
    return got


# ------------------------------------------------------------------ EXPLAIN
#: The TPC-H queries whose ``EXPLAIN (ANALYZE, VERBOSE)`` tree is pinned.
GOLDEN_QUERIES = (1, 3, 6)


def explain_session():
    """The EXPLAIN engine: 2 x 2 segments, seed 7, TPC-H SF 0.001."""
    session = Engine(num_segment_hosts=2, segments_per_host=2, seed=7).connect()
    load_tpch(session, scale=SCALE)
    return session


def explain_lines(session, stmt: str, options: str = "ANALYZE, VERBOSE") -> List[str]:
    return [row[0] for row in session.execute(f"EXPLAIN ({options}) {stmt}").rows]


def plan_structure(lines: List[str]) -> List[str]:
    """Operator tree with estimates, annotations (``q_err`` among them)
    and timing lines stripped."""
    out = []
    for line in lines:
        if line.lstrip().startswith("->") or line.startswith("Slice"):
            out.append(line.split("  est_rows=")[0].split("  (actual")[0].rstrip())
    return out


def q11_analyze(session=None) -> List[str]:
    """Plain ``EXPLAIN ANALYZE`` of Q11 on a fresh default engine (seed
    7): its InitPlan's slices reuse the statement's slice ids and
    assemble first on the same trace, and must not leak into the
    statement's lines."""
    if session is None:
        session = Engine(seed=7).connect()
        load_tpch(session, scale=SCALE)
    (stmt,) = QUERIES[11]
    return [row[0] for row in session.execute(f"EXPLAIN ANALYZE {stmt}").rows]


# ------------------------------------------------------------ on-disk bytes
#: (format, codec) pairs whose written files are pinned by digest. The
#: compressed bytes are zlib's, so these also pin zlib's output for
#: levels 1 and 5 on this input (stable across zlib 1.2/1.3).
FROZEN_FORMATS = (("ao", "zlib1"), ("co", "zlib5"), ("parquet", "snappy"))

LINEITEM = TableSchema(
    "lineitem",
    [
        Column(name, DataType.parse(sql_type), not_null=True)
        for name, sql_type in (
            ("l_orderkey", "INT8"), ("l_partkey", "INTEGER"),
            ("l_suppkey", "INTEGER"), ("l_linenumber", "INTEGER"),
            ("l_quantity", "DECIMAL(15,2)"), ("l_extendedprice", "DECIMAL(15,2)"),
            ("l_discount", "DECIMAL(15,2)"), ("l_tax", "DECIMAL(15,2)"),
            ("l_returnflag", "CHAR(1)"), ("l_linestatus", "CHAR(1)"),
            ("l_shipdate", "DATE"), ("l_commitdate", "DATE"),
            ("l_receiptdate", "DATE"), ("l_shipinstruct", "CHAR(25)"),
            ("l_shipmode", "CHAR(10)"), ("l_comment", "VARCHAR(44)"),
        )
    ],
)


def lineitem_rows(n: int = 50) -> List[tuple]:
    ship = datetime.date(1992, 1, 2)
    return [
        LINEITEM.coerce_row((
            1 + i // 4, 1 + (i * 37) % 200, 1 + (i * 11) % 10, 1 + i % 4,
            1 + i % 50, 901.0 + i * 13.37, (i % 11) / 100, (i % 9) / 100,
            "ARN"[i % 3], "OF"[i % 2],
            ship + datetime.timedelta(days=i * 37),
            ship + datetime.timedelta(days=i * 37 + 30),
            ship + datetime.timedelta(days=i * 37 + 9),
            ("DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN")[i % 4],
            ("REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB")[i % 7],
            f"carefully final deposits {i} — naïve",
        ))
        for i in range(n)
    ]


def written_digest(fmt_name: str, codec_name: str) -> str:
    """sha256 over (path, bytes) of every file one ``write`` of 50
    lineitem rows produced."""
    fs = Hdfs(block_size=4096, replication=1, seed=5)
    fs.add_datanode("h1")
    client = fs.client("h1")
    result = get_format(fmt_name).write(
        client, "/frozen/f0", lineitem_rows(), LINEITEM, codec_name
    )
    digest = hashlib.sha256()
    for path in sorted(result.paths):
        digest.update(path.encode())
        digest.update(client.read_file(path))
    return digest.hexdigest()


# ---------------------------------------------------------------- collector
def collect() -> dict:
    """Every per-statement reading, in the contract's shape."""
    session, data = build_session()
    payload = {label: measure(session, sql) for label, sql in statements(data).items()}
    sizes = tpch_sizes(session)
    digests = explain_digests(build_session()[0])
    hawq = traffic_session()
    explain = explain_session()
    return {
        "payload": payload,
        "tpch_sizes": sizes,
        "traffic": {number: traffic(hawq, number) for number in sorted(QUERIES)},
        "explain_digests": digests,
        "explain_structure": {
            number: plan_structure(explain_lines(explain, QUERIES[number][0]))
            for number in GOLDEN_QUERIES
        },
        "q11_analyze": q11_analyze(),
        "frozen_formats": {
            f"{fmt}/{codec}": written_digest(fmt, codec) for fmt, codec in FROZEN_FORMATS
        },
    }
