"""Row vs batch executor differential testing.

The vectorized path must be a pure performance change: for every query,
both executors must produce *identical* rows (same values, same order)
and charge the *identical* simulated cost. TPC-H supplies the workload
breadth; the executor query list covers the operator corner cases
(NULL handling, three-valued logic, joins, sorts, LIMIT abandonment).
"""

import datetime

import pytest

from repro import Engine
from repro.tpch import QUERIES, generate, load_tpch

SCALE = 0.001


@pytest.fixture(scope="module")
def data():
    return generate(SCALE, seed=77)


def _tpch_session(data, mode):
    engine = Engine(
        num_segment_hosts=4, segments_per_host=1, executor_mode=mode
    )
    session = engine.connect()
    load_tpch(session, scale=SCALE, data=data)
    return session


@pytest.fixture(scope="module")
def row_tpch(data):
    return _tpch_session(data, "row")


@pytest.fixture(scope="module")
def batch_tpch(data):
    return _tpch_session(data, "batch")


def _run_tpch(session, number):
    result = None
    for stmt in QUERIES[number]:
        r = session.execute(stmt)
        if r.plan is not None:
            result = r
    assert result is not None
    return result


@pytest.mark.parametrize("number", sorted(QUERIES))
def test_tpch_row_vs_batch_identical(row_tpch, batch_tpch, number):
    a = _run_tpch(row_tpch, number)
    b = _run_tpch(batch_tpch, number)
    assert a.column_names == b.column_names
    assert a.rows == b.rows  # exact: values AND order
    # The batch path mirrors every cost-model charging site of the row
    # path, so the simulated clock must agree to the last float bit —
    # both the critical path through the task DAG and the total.
    assert a.makespan == b.makespan
    assert a.cost.seconds == b.cost.seconds


@pytest.mark.parametrize("number", sorted(QUERIES))
def test_tpch_makespan_matches_rederived_critical_path(batch_tpch, number):
    """The reported makespan must equal a critical path independently
    re-derived from the per-task timings of the statement's trace and
    the plan's slice tree.

    Tasks in a gang share one duration (the gang mean — per-segment
    imbalance at a tiny scale factor is sampling noise), every motion
    edge charges one interconnect latency, and a segment's worker runs
    one task at a time in dispatch order — so a task starts at
    ``max(children finish + latency, when its segment frees up)``."""
    batch_tpch.trace_enabled = True
    try:
        result = _run_tpch(batch_tpch, number)
    finally:
        batch_tpch.trace_enabled = False
    tasks = {}
    for span in result.trace.last_plan_tasks():
        tasks.setdefault(span.slice_id, []).append(span)
    plan = result.plan
    model = batch_tpch.engine.cost_model
    finish = {}
    avail = {}  # segment -> simulated time its worker becomes free
    for plan_slice in plan.slices:  # children-first == dispatch order
        spans = tasks[plan_slice.slice_id]
        mean = sum(s.attrs["acc_seconds"] for s in spans) / len(spans)
        barrier = max(
            (finish[c] + model.net_latency for c in plan_slice.child_slices),
            default=0.0,
        )
        slice_finish = 0.0
        for span in spans:
            done = max(barrier, avail.get(span.segment, 0.0)) + mean
            avail[span.segment] = done
            slice_finish = max(slice_finish, done)
        finish[plan_slice.slice_id] = slice_finish
        reported = max(s.attrs["sched_finish"] for s in spans)
        assert reported == pytest.approx(slice_finish, rel=1e-9)
    expected = finish[plan.top_slice.slice_id]
    assert result.makespan == pytest.approx(expected, rel=1e-9)
    assert result.cost.seconds == pytest.approx(
        result.makespan + result.overhead_seconds, rel=1e-9
    )


# --------------------------------------------------------- operator corpus

EXECUTOR_QUERIES = [
    "SELECT * FROM nums",
    "SELECT a, b FROM nums WHERE b IS NULL",
    "SELECT a FROM nums WHERE b > 20 AND t IS NOT NULL",
    "SELECT a, b * 2 + 1, f / 2 FROM nums WHERE a % 3 = 0",
    "SELECT t, count(*), sum(b), avg(f) FROM nums GROUP BY t",
    "SELECT count(b), count(*), min(d), max(d) FROM nums",
    "SELECT a FROM nums ORDER BY b DESC NULLS FIRST, a LIMIT 7",
    "SELECT t, a FROM nums ORDER BY t NULLS LAST, a DESC",
    "SELECT a FROM nums WHERE t LIKE 'str%' ORDER BY a LIMIT 5",
    "SELECT a, CASE WHEN b IS NULL THEN -1 WHEN b > 40 THEN 1 ELSE 0 END"
    " FROM nums ORDER BY a",
    "SELECT a FROM nums WHERE a IN (1, 3, 5, 99) ORDER BY a",
    "SELECT a FROM nums WHERE b IN (SELECT a FROM nums WHERE a < 10)"
    " ORDER BY a",
    "SELECT n1.a, n2.b FROM nums n1 JOIN nums n2 ON n1.a = n2.b"
    " ORDER BY n1.a",
    "SELECT n1.a, n2.a FROM nums n1 LEFT JOIN nums n2 ON n1.b = n2.a"
    " ORDER BY n1.a, n2.a NULLS LAST",
    "SELECT coalesce(b, -a), nullif(a, 5) FROM nums ORDER BY a",
    "SELECT upper(t), length(t), substring(t from 2 for 2) FROM nums"
    " WHERE t IS NOT NULL ORDER BY a",
    "SELECT extract(year from d), count(*) FROM nums"
    " GROUP BY extract(year from d) ORDER BY 1",
    "SELECT CAST(a AS TEXT) || '-' || CAST(f AS TEXT) FROM nums"
    " WHERE a < 4 ORDER BY a",
    "SELECT a FROM nums WHERE d > DATE '1995-06-01' ORDER BY a LIMIT 3",
    "SELECT b, f FROM nums WHERE NOT (b < 30 OR b IS NULL) ORDER BY a",
    "SELECT DISTINCT t FROM nums",
    "SELECT t, sum(a) FROM nums WHERE f < 10 GROUP BY t"
    " HAVING count(*) > 2 ORDER BY t NULLS LAST",
]


def _nums_session(mode):
    engine = Engine(
        num_segment_hosts=2, segments_per_host=2, executor_mode=mode
    )
    s = engine.connect()
    s.execute(
        "CREATE TABLE nums (a INT NOT NULL, b INT, t TEXT, d DATE, f FLOAT) "
        "DISTRIBUTED BY (a)"
    )
    schema = s.engine.catalog.get_schema(
        "nums", s.engine.txns.begin().statement_snapshot()
    )
    rows = []
    for i in range(40):
        rows.append(
            (
                i,
                None if i % 7 == 0 else i * 2,
                None if i % 11 == 0 else f"str{i % 4}",
                datetime.date(1995, 1, 1) + datetime.timedelta(days=i * 17),
                i / 3.0,
            )
        )
    s.load_rows("nums", [schema.coerce_row(r) for r in rows])
    return s


@pytest.fixture(scope="module")
def row_nums():
    return _nums_session("row")


@pytest.fixture(scope="module")
def batch_nums():
    return _nums_session("batch")


@pytest.mark.parametrize("sql", EXECUTOR_QUERIES)
def test_executor_row_vs_batch_identical(row_nums, batch_nums, sql):
    a = row_nums.execute(sql)
    b = batch_nums.execute(sql)
    assert a.rows == b.rows
    assert a.cost.seconds == b.cost.seconds


# ------------------------------------------------- operator-level corpus
#
# The SQL corpora above reach the operators through the planner, which
# never builds some shapes (a zero-key HashJoin, a residual on an anti
# join over NULL-heavy keys). Here the plan trees are built by hand and
# run through one SliceExecutor per mode over fake segment-local scans,
# so every join type x residual x data shape is pinned directly: same
# rows in the same order, same accumulator to the last float bit.

from repro.columnar.vector import dict_vector, float_vector, int_vector  # noqa: E402
from repro.cluster.rpc import MessageQueue  # noqa: E402
from repro.executor.batch import ColumnBatch  # noqa: E402
from repro.executor.runner import ExecutionContext  # noqa: E402
from repro.executor.slice_runner import SliceExecutor, SliceProviders  # noqa: E402
from repro.interconnect.exchange import ExchangeFabric  # noqa: E402
from repro.planner import exprs as ex  # noqa: E402
from repro.planner.dispatch import SliceTask  # noqa: E402
from repro.planner.logical import SortKey, TableSource  # noqa: E402
from repro.planner.physical import (  # noqa: E402
    Filter,
    HashAgg,
    HashJoin,
    Limit,
    Motion,
    MotionRecv,
    NestLoopJoin,
    Project,
    SeqScan,
    Sort,
)
from repro.simtime import CostAccumulator, CostModel  # noqa: E402

BLOCK = 4  # rows per fake storage block: several batches per scan


def _column_vector(values):
    kinds = {type(v) for v in values if v is not None}
    mask = [v is None for v in values]
    if kinds == {int}:
        return int_vector([v or 0 for v in values], mask if any(mask) else None)
    if kinds == {float}:
        return float_vector([v or 0.0 for v in values], mask if any(mask) else None)
    if kinds == {str}:
        dictionary = sorted({v for v in values if v is not None})
        return dict_vector(
            [-1 if v is None else dictionary.index(v) for v in values], dictionary
        )
    return list(values)


class _FakeTables:
    """Segment-local storage for hand-built plans: the one scan charges
    an odd amount per block, when the block is first touched, like
    ``_charged_scan`` does."""

    def __init__(self, tables):
        self.tables = tables  # name -> rows

    def scan(self, table, partitions, segment, columns, acc, late=()):
        rows = self.tables[table.table_name]
        for start in range(0, len(rows), BLOCK):
            acc.fixed(1e-6 * (start + 1) / 3)
            block = rows[start:start + BLOCK]
            yield len(block), {
                c: _column_vector([row[c] for row in block]) for c in columns
            }


def _scan(rel, name, ncols):
    from repro.catalog.schema import Column, DataType, TableSchema, TypeKind

    schema = TableSchema(
        name=name,
        columns=[Column(f"c{i}", DataType(TypeKind.INT8)) for i in range(ncols)],
    )
    return SeqScan(rel=rel, table=TableSource(name, schema), columns=list(range(ncols)))


def _var(rel, col):
    return ex.BVar(rel, col)


def _execute(root, mode, tables, *, is_top=True, receivers=(), inbox=(), trace=None):
    """Run one (slice, segment) task; returns what the differential
    compares: rows, the accumulator, and the streams it sent."""
    queue = MessageQueue()
    fabric = ExchangeFabric(queue)
    for sender, payload, nbytes in inbox:
        fabric.send(1, 0, sender, 0, payload, nbytes)
    queue.deliver()
    ctx = ExecutionContext(
        num_segments=4, cost_model=CostModel(), executor_mode=mode,
        query_id=1, trace=trace,
    )
    fake = _FakeTables(tables)
    providers = SliceProviders(scan=fake.scan, external=None)
    task = SliceTask(
        slice_id=1, segment=0, gang="N", is_top=is_top, receivers=list(receivers),
        num_plan_slices=2,
    )
    acc = CostAccumulator(ctx.cost_model)
    executor = SliceExecutor(root, task, ctx, providers, fabric, acc)
    rows = executor.run()
    queue.deliver()
    sent = {}
    for receiver in receivers:
        streams, nbytes = fabric.receive(1, 1, receiver)
        if streams:
            (payload,) = streams
            if isinstance(payload, ColumnBatch):
                payload = list(payload.to_rows())
            sent[receiver] = (payload, nbytes)
    charged = (acc.seconds, acc.tuples, acc.net_bytes, acc.disk_write_bytes)
    return rows, charged, sent, (executor.rows_out, executor.bytes_out)


def _assert_modes_agree(build_plan, tables, **kwargs):
    row = _execute(build_plan(), "row", tables, **kwargs)
    batch = _execute(build_plan(), "batch", tables, **kwargs)
    assert batch[0] == row[0]  # rows, in order
    assert batch[1] == row[1]  # every charge, float-exact
    assert batch[2:] == row[2:]  # streams, task report
    return batch


#: (probe rows, build rows): columns are (key, second key, value).
JOIN_SHAPES = {
    "nulls_and_duplicates": (
        [(1, 1, 5), (None, 1, 6), (2, None, 7), (3, 3, 1), (2, 2, 9),
         (4, 4, 2), (1, 1, 0), (None, None, 3), (5, 5, 5)],
        [(2, 2, 8), (1, 1, 4), (2, 2, 1), (None, 2, 9), (3, None, 2),
         (1, 1, 6), (6, 6, 6), (2, 2, 10)],
    ),
    "unique_build": (
        [(i % 7, i % 7, i) for i in range(11)],
        [(k, k, 3 * k) for k in range(5)],
    ),
    "every_row_matches_once": (
        [(i % 3, i % 3, i) for i in range(9)],
        [(k, k, k) for k in range(3)],
    ),
    "empty_build": ([(1, 1, 1), (None, 2, 2), (3, 3, 3)], []),
    "empty_probe": ([], [(1, 1, 1), (2, 2, 2)]),
    "all_null_keys": ([(None, 1, 1), (None, 2, 2)], [(None, 1, 1), (None, 2, 5)]),
    "string_keys": (
        [("k%d" % (i % 4), "x", i) for i in range(10)] + [(None, "x", 99)],
        [("k1", "x", 1), ("k3", "x", 3), ("k1", "x", 11), (None, "x", 0),
         ("k9", "y", 9)],
    ),
}


@pytest.mark.parametrize("shape", sorted(JOIN_SHAPES))
@pytest.mark.parametrize("residual", [False, True])
@pytest.mark.parametrize("nkeys", [0, 1, 2])
@pytest.mark.parametrize("join_type", ["inner", "left", "semi", "anti"])
def test_hash_join_corpus(backend, join_type, nkeys, residual, shape):
    probe, build = JOIN_SHAPES[shape]

    def plan():
        return HashJoin(
            join_type=join_type,
            left=_scan(0, "probe", 3),
            right=_scan(1, "build", 3),
            left_keys=[_var(0, c) for c in range(nkeys)],
            right_keys=[_var(1, c) for c in range(nkeys)],
            # probe.value < build.value: NULL-free, so it only filters.
            residual=ex.BOp("<", _var(0, 2), _var(1, 2)) if residual else None,
        )

    _assert_modes_agree(plan, {"probe": probe, "build": build})


@pytest.mark.parametrize("join_type", ["inner", "left", "semi", "anti"])
def test_nest_loop_join(backend, join_type):
    probe, build = JOIN_SHAPES["nulls_and_duplicates"]

    def plan():
        return NestLoopJoin(
            join_type=join_type,
            left=_scan(0, "probe", 3),
            right=_scan(1, "build", 3),
            cond=ex.BOp("<", _var(0, 2), _var(1, 2)),
        )

    _assert_modes_agree(plan, {"probe": probe, "build": build})


#: NULL-heavy grouping input: (key a, key b, int, float, string).
AGG_ROWS = [
    (None if i % 4 == 0 else i % 3, None if i % 5 == 0 else "g%d" % (i % 2),
     None if i % 3 == 0 else i * 7 - 20, None if i % 2 == 0 else i / 8.0,
     None if i % 6 == 0 else "s%d" % (i % 5))
    for i in range(23)
]

AGGS = [
    ex.BAgg("count"),
    ex.BAgg("count", _var(0, 2)),
    ex.BAgg("sum", _var(0, 2)),
    ex.BAgg("sum", _var(0, 3)),
    ex.BAgg("avg", _var(0, 2)),
    ex.BAgg("avg", _var(0, 3)),
    ex.BAgg("min", _var(0, 2)),
    ex.BAgg("max", _var(0, 3)),
    ex.BAgg("min", _var(0, 4)),
    ex.BAgg("max", _var(0, 4)),
]

DISTINCT_AGGS = [
    ex.BAgg("count", _var(0, 2), distinct=True),
    ex.BAgg("sum", _var(0, 2), distinct=True),
    ex.BAgg("count", _var(0, 4), distinct=True),
    ex.BAgg("max", _var(0, 3), distinct=True),
]


@pytest.mark.parametrize("rows", [AGG_ROWS, []], ids=["null_heavy", "empty"])
@pytest.mark.parametrize("nkeys", [0, 1, 2])
def test_hash_agg_single_phase(backend, nkeys, rows):
    def plan():
        return HashAgg(
            child=_scan(0, "t", 5),
            group_keys=[_var(0, c) for c in range(nkeys)],
            aggs=AGGS + DISTINCT_AGGS,
            phase="single",
        )

    _assert_modes_agree(plan, {"t": rows})


@pytest.mark.parametrize("nkeys", [0, 1, 2])
def test_hash_agg_two_phase(backend, nkeys):
    """partial on each of two 'segments', states shipped, final merge:
    the final phase must fold another executor's transition states."""

    def partial():
        return HashAgg(
            child=_scan(0, "t", 5),
            group_keys=[_var(0, c) for c in range(nkeys)],
            aggs=AGGS,
            phase="partial",
        )

    halves = [AGG_ROWS[:11], AGG_ROWS[11:]]
    results = {}
    for mode in ("row", "batch"):
        inbox = []
        charged = []
        for sender, half in enumerate(halves):
            rows, acc, *_ = _execute(partial(), mode, {"t": half})
            charged.append(acc)
            width = nkeys + len(AGGS)
            payload = rows if mode == "row" else ColumnBatch.from_rows(rows, width)
            inbox.append((sender, payload, 8 * len(rows)))
        final = HashAgg(
            child=MotionRecv(
                slice_id=0,
                source_layout=[("g", i) for i in range(nkeys)]
                + [("a", i) for i in range(len(AGGS))],
            ),
            group_keys=[ex.BGroupRef(i) for i in range(nkeys)],
            aggs=AGGS,
            phase="final",
        )
        rows, acc, *_ = _execute(final, mode, {}, inbox=[p for p in inbox if len(p[1])])
        results[mode] = (rows, charged, acc)
    assert results["batch"] == results["row"]


def _sorted_limited(limit, keys):
    def plan():
        node = Sort(
            child=_scan(0, "t", 5),
            keys=[SortKey(_var(0, c), asc, nf) for c, asc, nf in keys],
        )
        return Limit(child=node, count=limit) if limit is not None else node
    return plan


@pytest.mark.parametrize("limit", [None, 0, 3, 23, 100])
def test_sort_then_limit(backend, limit):
    keys = [(0, True, None), (4, False, True), (2, False, None)]
    _assert_modes_agree(_sorted_limited(limit, keys), {"t": AGG_ROWS})


@pytest.mark.parametrize("limit", [0, 1, 4, 5, 8, 9, 50])
def test_limit_above_join_abandons_the_same_charges(backend, limit):
    """LIMIT over a streaming probe: the scan blocks touched and the
    trailing charges skipped must match the row executor, whether the
    limit lands inside a block, on its edge, or past the input."""
    probe, build = JOIN_SHAPES["unique_build"]

    def plan():
        join = HashJoin(
            join_type="inner",
            left=Filter(
                child=_scan(0, "probe", 3), cond=ex.BOp("<>", _var(0, 2), ex.BConst(3))
            ),
            right=_scan(1, "build", 3),
            left_keys=[_var(0, 0)],
            right_keys=[_var(1, 0)],
        )
        project = Project(child=join, exprs=[_var(0, 2), ex.BOp("+", _var(1, 2), ex.BConst(1))])
        return Limit(child=project, count=limit)

    _assert_modes_agree(plan, {"probe": probe, "build": build})


@pytest.mark.parametrize("limit", [0, 2, 5, 6, 40])
def test_limit_above_motion_recv(backend, limit):
    streams = [[(i, "s%d" % i) for i in range(3)], [(9, None), (8, "x")], [(7, "y")]]

    def plan():
        return Limit(
            child=MotionRecv(slice_id=0, source_layout=[("r", 0, 0), ("r", 0, 1)]),
            count=limit,
        )

    results = {}
    for mode in ("row", "batch"):
        inbox = [
            (sender, rows if mode == "row" else ColumnBatch.from_rows(rows, 2), 10 * len(rows))
            for sender, rows in enumerate(streams)
        ]
        results[mode] = _execute(plan(), mode, {}, inbox=inbox)
    assert results["batch"] == results["row"]


MOTION_ROWS = [
    (None if i % 6 == 0 else i % 5, "k%d" % (i % 3) if i % 4 else None,
     datetime.date(1995, 1, 1) + datetime.timedelta(days=i % 3), i / 4.0, i % 2 == 0)
    for i in range(19)
]


@pytest.mark.parametrize("rows", [MOTION_ROWS, MOTION_ROWS[:1], []],
                         ids=["many", "one", "empty"])
@pytest.mark.parametrize("kind,keys", [
    ("gather", []), ("broadcast", []),
    ("redistribute", [0]), ("redistribute", [1]), ("redistribute", [2, 3]),
    ("redistribute", [4, 0, 1]), ("redistribute", []),
])
def test_motion_streams(backend, kind, keys, rows):
    """Per-target rows, stream sizes and the send charges of one
    motion, row executor against batch."""

    def plan():
        child = Filter(
            child=_scan(0, "t", 5), cond=ex.BOp("<>", _var(0, 3), ex.BConst(1.0))
        )
        return Motion(kind=kind, child=child, hash_exprs=[_var(0, c) for c in keys])

    _assert_modes_agree(plan, {"t": rows}, is_top=False, receivers=[0, 1, 2, 3])


# ------------------------------------------------ observability parity


@pytest.mark.parametrize("number", [3, 5, 10, 18])
def test_operator_actuals_identical_across_modes(row_tpch, batch_tpch, number):
    """EXPLAIN (ANALYZE, VERBOSE) — per-operator actual rows/calls/time,
    per-segment rows and bytes sent, gang-skew lines — and the motion
    counters must not depend on the executor: operator and stream marks
    count a batch's live rows exactly as they count tuples."""
    *prelude, query = QUERIES[number]
    outputs = []
    for session in (row_tpch, batch_tpch):
        for stmt in prelude:
            session.execute(stmt)
        plain = session.execute(query)
        explained = session.execute("EXPLAIN (ANALYZE, VERBOSE) " + query)
        outputs.append(
            (
                [line for (line,) in explained.rows],
                plain.metrics.total("motion_streams"),
                plain.metrics.total("motion_bytes"),
            )
        )
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1:] == outputs[1][1:]
    assert any("actual rows=" in line for line in outputs[0][0])
    assert outputs[0][1] > 0


def test_operator_actuals_below_a_streaming_limit(row_tpch, batch_tpch):
    """The one place the two executors' actuals differ, pinned so it
    cannot widen: an operator more than one level below a LIMIT that
    streams counts the whole batch the limit cut into, where the row
    executor counts the rows pulled. The limit, its child, every span's
    time, every other operator and the statement's cost agree."""
    import re

    from repro.executor.batch import DEFAULT_BATCH_ROWS

    query = (
        "SELECT o_orderkey, l_quantity FROM orders "
        "JOIN lineitem ON o_orderkey = l_orderkey LIMIT 13"
    )
    row, batch = (
        [line for (line,) in s.execute("EXPLAIN (ANALYZE, VERBOSE) " + query).rows]
        for s in (row_tpch, batch_tpch)
    )
    actual = re.compile(r"actual rows=(\d+) calls=(\d+)")
    q_err = re.compile(r" q_err=\d+\.\d")  # follows the rows it is taken from
    assert [q_err.sub("", actual.sub("", line)) for line in row] == [
        q_err.sub("", actual.sub("", line)) for line in batch
    ]
    differing = {}
    for a, b in zip(row, batch):
        if a != b:
            name = a.split("->")[1].split("(")[0].strip()
            (rows_a, calls_a), (rows_b, calls_b) = (
                map(int, actual.search(line).groups()) for line in (a, b)
            )
            assert calls_a == calls_b
            assert rows_a < rows_b <= calls_b * DEFAULT_BATCH_ROWS
            differing[name] = rows_a
    # Each of the four segments pulled limit+1 rows through the probe.
    assert differing == {"HashJoin": 56, "SeqScan": 56}


# ----------------------------------------------- master-only relations
MASTER_ONLY = (
    "SELECT name, kind FROM pg_class WHERE kind = 'table'",
    "SELECT status, count(*) FROM gp_segment_configuration GROUP BY status",
    "SELECT name FROM pg_class LIMIT 2",
    "SELECT segment_id, tasks FROM pg_stat_segments WHERE tasks > 0 LIMIT 2",
    "SELECT count(*), sum(tasks) FROM pg_stat_segments",
)


@pytest.fixture(scope="module")
def master_only_sessions():
    sessions = []
    for mode in ("row", "batch"):
        session = Engine(
            num_segment_hosts=2, segments_per_host=2, executor_mode=mode
        ).connect()
        for name in "abcdef":
            session.execute(f"CREATE TABLE {name} (k INT) DISTRIBUTED BY (k)")
        session.execute("INSERT INTO a VALUES (1), (2), (3)")
        session.execute("SELECT count(*) FROM a")
        sessions.append(session)
    return sessions


@pytest.mark.parametrize("query", MASTER_ONLY)
def test_master_only_scans_explain_alike(master_only_sessions, query):
    """Catalog relations and system views reach both executors through
    the one scan provider, a row per block: every EXPLAIN (ANALYZE,
    VERBOSE) line agrees, down to the rows a streaming LIMIT pulls."""
    row, batch = (
        [line for (line,) in s.execute("EXPLAIN (ANALYZE, VERBOSE) " + query).rows]
        for s in master_only_sessions
    )
    assert row == batch
    assert any("SeqScan" in line and "actual rows=" in line for line in row)
