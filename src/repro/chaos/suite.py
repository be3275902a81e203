"""The chaos property suite: seeded fault schedules over a TPC-H subset.

One *schedule* is: build a small cluster (3 hosts x 2 segments, a warm
standby master, 3-way HDFS replication), load a TPC-H subset, attach a
:class:`FaultInjector` carrying a :func:`random_plan` draw, then run a
fixed script of TPC-H queries interleaved with single-row inserts while
the plan kills segments, fails disks and DataNodes, crashes the master
and aborts transactions. The properties asserted per schedule:

* **No wrong answers** — every statement that *returns* must return the
  fault-free twin's rows bit-identically; a fault may only surface as a
  clean :class:`~repro.errors.ClusterError`.
* **No hangs** — simulated cost per statement is bounded, and the
  interconnect drill's event loop runs under a simulated-clock deadline.
* **Recovery invariants** — after healing (recover segments, restore
  DataNodes, let the NameNode re-replicate): the replication factor is
  restored, the (possibly promoted-standby) catalog answers every query
  with fault-free rows, committed inserts survive exactly (no lost
  commits, no resurrected aborts) and no non-empty HDFS file is
  unreferenced by the catalog (no orphaned segfiles).

The *fault-free twin* doubles as the metronome: an empty-plan injector
meters how many chaos-clock seconds the script takes, and that horizon
seeds the random plan so faults land inside the run deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.chaos.injector import FaultInjector
from repro.chaos.netdrill import DrillReport, run_drill
from repro.chaos.plan import FaultEvent, FaultPlan, random_plan
from repro.engine import Engine
from repro.errors import ClusterError
from repro.executor.concurrent import ConcurrentRunner
from repro.obs.trace import rpc_closure_violations, trace_query_id_violations
from repro.storage.table import segfiles
from repro.tpch import QUERIES, create_table_sql, generate
from repro.util import DeterministicRng

#: TPC-H scale factor for chaos runs: small enough that one schedule is
#: sub-second, large enough that every segment holds multiple blocks.
SCALE = 0.0005
DATA_SEED = 19940601
#: Tables needed by the query mix (Q1/Q6 on lineitem, Q3 joins all three).
CHAOS_TABLES = ("customer", "orders", "lineitem")
#: Chaos-clock seconds charged between statements (dispatch overhead),
#: kept small so in-query scan pulses are a big slice of the horizon.
STATEMENT_QUANTUM = 0.01
#: A statement whose simulated cost exceeds this has hung by any
#: reasonable reading of the cost model (the whole script costs < 10s).
SIM_WATCHDOG_SECONDS = 3600.0
REPLICATION = 3
#: The concurrent phase (PR 7): every schedule also replays this many
#: closed-loop SELECT streams with a seeded mid-flight segment kill.
CONCURRENT_STREAMS = 4
CONCURRENT_STATEMENTS = 3


def build_engine(seed: int = 0) -> Engine:
    """A chaos-sized cluster: small blocks force multi-block files."""
    return Engine(
        num_segment_hosts=3,
        segments_per_host=2,
        seed=seed,
        replication=REPLICATION,
        block_size=16 * 1024,
    )


def generate_data(scale: float = SCALE, seed: int = DATA_SEED):
    return generate(scale, seed=seed)


def load_workload(engine: Engine, data):
    """Create + load the TPC-H subset and the chaos_log scratch table."""
    session = engine.connect()
    for table in CHAOS_TABLES:
        session.execute(create_table_sql(table))
        session.load_rows(table, getattr(data, table))
    session.execute(
        "CREATE TABLE chaos_log (id INTEGER, note VARCHAR(32)) DISTRIBUTED BY (id)"
    )
    session.execute("ANALYZE")
    return session


def script() -> List[Tuple[str, str, str]]:
    """The fixed statement script every schedule runs: (kind, name, sql)."""
    return [
        ("query", "q6", QUERIES[6][0]),
        ("insert", "ins0", "INSERT INTO chaos_log VALUES (0, 'chaos-0')"),
        ("query", "q1", QUERIES[1][0]),
        ("insert", "ins1", "INSERT INTO chaos_log VALUES (1, 'chaos-1')"),
        ("query", "q3", QUERIES[3][0]),
        ("insert", "ins2", "INSERT INTO chaos_log VALUES (2, 'chaos-2')"),
        ("query", "q6-again", QUERIES[6][0]),
    ]


@dataclass
class Baseline:
    """The fault-free twin: expected rows per query step + the horizon."""

    expected: Dict[int, List[tuple]]
    horizon: float


@dataclass
class ScheduleReport:
    """What one chaos schedule did and whether any property broke."""

    seed: int
    violations: List[str]
    clean_failures: List[str]
    fired: List[Tuple[float, str]]
    retries: int
    promoted: bool
    committed: int
    drill: Optional[DrillReport] = None
    #: Queries the concurrent-phase kill cleanly failed (all of which
    #: must have touched the dead segment).
    concurrent_failed: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


def fault_free_baseline(data) -> Baseline:
    """Run the script with an empty plan: expected rows + chaos horizon."""
    engine = build_engine()
    session = load_workload(engine, data)
    session.trace_enabled = True
    meter = FaultInjector(engine, FaultPlan())
    engine.attach_chaos(meter)
    expected: Dict[int, List[tuple]] = {}
    for index, (kind, _name, sql) in enumerate(script()):
        result = session.execute(sql)
        if kind == "query":
            expected[index] = result.rows
        meter.pulse(STATEMENT_QUANTUM)
    meter.detach()
    return Baseline(expected=expected, horizon=max(meter.clock, STATEMENT_QUANTUM))


def run_schedule(seed: int, data, baseline: Baseline) -> ScheduleReport:
    """Run the script under one seeded fault schedule and check every
    chaos property; any violation lands in the report's ``violations``."""
    engine = build_engine()
    session = load_workload(engine, data)
    # Trace every scripted statement: the per-attempt RPC event log is
    # what the protocol-closure invariant below is checked against.
    session.trace_enabled = True
    plan = random_plan(
        seed,
        baseline.horizon,
        hosts=engine.hosts,
        num_segments=engine.num_segments,
        replication=REPLICATION,
    )
    injector = FaultInjector(engine, plan)
    engine.attach_chaos(injector)

    violations: List[str] = []
    clean_failures: List[str] = []
    committed = 0
    retries = 0

    def quantum() -> None:
        # Applying a due event can itself run a catalog transaction
        # (fault detection marking a segment down) and trip a WAL abort
        # trigger — a clean failure with no statement attached.
        try:
            injector.pulse(STATEMENT_QUANTUM)
        # lint: allow[R4] — a due event may abort a WAL txn: recorded, not lost
        except ClusterError as exc:
            clean_failures.append(
                f"between statements: {type(exc).__name__}: {exc}"
            )

    for index, (kind, name, sql) in enumerate(script()):
        try:
            result = session.execute(sql)
        # lint: allow[R4] — the allowed outcome under faults, recorded
        except ClusterError as exc:
            # The allowed failure mode: a clean, typed cluster error.
            clean_failures.append(f"step {index} ({name}): {type(exc).__name__}: {exc}")
            quantum()
            continue
        # lint: allow[R4] — a non-ClusterError escaping is the violation
        except Exception as exc:
            violations.append(
                f"step {index} ({name}): NON-CLEAN failure "
                f"{type(exc).__name__}: {exc}"
            )
            quantum()
            continue
        retries += result.retries
        if result.cost.seconds > SIM_WATCHDOG_SECONDS:
            violations.append(
                f"step {index} ({name}): simulated hang "
                f"({result.cost.seconds:.1f}s simulated)"
            )
        if kind == "query" and result.rows != baseline.expected[index]:
            violations.append(f"step {index} ({name}): WRONG ANSWER under faults")
        if kind == "insert":
            committed += 1
        quantum()

    # Fire whatever the plan still holds so heal sees the full fault
    # state, then stop injecting before recovery runs. Events are popped
    # before application, so draining past a WAL-trigger abort resumes
    # with the next event.
    while True:
        try:
            if injector.drain() == 0:
                break
        # lint: allow[R4] — a drained event may abort a WAL txn: recorded
        except ClusterError as exc:
            clean_failures.append(f"during drain: {type(exc).__name__}: {exc}")
    promoted = engine.standby is None
    net_conditions = injector.net_conditions
    engine.chaos = None
    injector.detach()

    heal(engine)
    check_recovery_invariants(engine, session, baseline, committed, violations)

    # Trace invariant (RPC protocol closure): in every traced attempt —
    # including failed ones — each DISPATCH is closed by exactly one
    # COMPLETE or synthetic ABORT, and a killed segment never COMPLETEs.
    for trace in session.tracer.queries:
        violations.extend(rpc_closure_violations(trace))

    # Concurrency under chaos (PR 7): replay seeded concurrent streams
    # on the healed cluster with one mid-flight segment kill.
    concurrent_failed = run_concurrent_phase(engine, seed, violations)

    # Packet-level chaos: the paper-§4 UDP protocol must still deliver
    # exactly-once in-order over the plan's degraded fabric.
    drill = run_drill(seed, conditions=net_conditions)
    if not drill.ok:
        violations.append(
            f"interconnect drill: delivered {drill.delivered}/{drill.messages},"
            f" in_order={drill.in_order}"
        )

    return ScheduleReport(
        seed=seed,
        violations=violations,
        clean_failures=clean_failures,
        fired=list(injector.fired),
        retries=retries,
        promoted=promoted,
        committed=committed,
        drill=drill,
        concurrent_failed=concurrent_failed,
    )


def concurrent_streams(seed: int) -> List[List[str]]:
    """Seeded SELECT-only stream mix: full scans (Q6/Q1) that touch
    every segment, plus direct-dispatch customer point lookups that
    touch exactly one — so a kill can hit or miss a given query."""
    pool = [
        QUERIES[6][0],
        QUERIES[1][0],
    ]
    streams: List[List[str]] = []
    for stream_id in range(CONCURRENT_STREAMS):
        rng = DeterministicRng(seed, "chaos-concurrent", f"stream{stream_id}")
        stream = []
        for _ in range(CONCURRENT_STATEMENTS):
            if rng.chance(0.5):
                key = rng.randrange(1, 76)  # SCALE=0.0005 -> keys 1..75
                stream.append(
                    "SELECT c_custkey, c_name FROM customer "
                    f"WHERE c_custkey = {key}"
                )
            else:
                stream.append(pool[rng.randrange(len(pool))])
        streams.append(stream)
    return streams


def _metered_concurrent_run(
    engine: Engine,
    injector: FaultInjector,
    streams: List[List[str]],
    starts: List[float],
    ends: List[float],
    queues: Optional[Dict[int, str]] = None,
):
    """Run the streams concurrently while metering submission windows
    on the injector's chaos clock. The clock right before each pulse
    closes the *previous* submission's window; right after it opens the
    next one's. A kill must land between a statement's own start and
    end to be mid-query."""

    def before_query(stream_id, index):
        ends.append(injector.clock)
        injector.pulse(STATEMENT_QUANTUM)
        starts.append(injector.clock)

    runner = ConcurrentRunner(
        engine,
        streams,
        queues=queues,
        trace=True,
        allow_failures=True,
        before_query=before_query,
    )
    batch = runner.run()
    ends.append(injector.clock)
    del ends[0]  # clock before the first statement's pulse
    return runner, batch


def run_concurrent_phase(
    engine: Engine, seed: int, violations: List[str]
) -> int:
    """Chaos under concurrency: 4 closed-loop streams, one seeded kill.

    An empty-plan metering run establishes the expected rows, the set of
    segments each statement touches, and the chaos-clock time of every
    submission. A seeded (victim segment, submission) pair then places a
    ``kill_segment`` inside that submission's execution window and the
    same streams replay with no query retries. Properties:

    * a killed segment fails only queries whose slices touch it (clean
      :class:`~repro.errors.QueryRetriesExhausted`, nothing else);
    * every surviving query returns rows bit-identical to the fault-free
      run;
    * per-query traces stay disjoint: each trace's RPC protocol closes
      per attempt, carries only its own query id, and no query id
      repeats across the phase's sessions.
    """
    streams = concurrent_streams(seed)
    total = sum(len(s) for s in streams)

    # Fault-free twin: expected rows, touched segments, scan windows.
    meter = FaultInjector(engine, FaultPlan())
    engine.attach_chaos(meter)
    starts: List[float] = []
    ends: List[float] = []
    try:
        _runner, expected = _metered_concurrent_run(
            engine, meter, streams, starts, ends
        )
    finally:
        engine.chaos = None
        meter.detach()
    for outcome in expected.outcomes:
        if outcome.error is not None:
            violations.append(
                f"concurrent fault-free run failed: {outcome.error}"
            )
            return 0

    rng = DeterministicRng(seed, "chaos-concurrent", "kill")
    victim = rng.randrange(engine.num_segments)
    # Aim at a statement that actually charges scan time (a point
    # lookup's window is near-empty and the kill would drift past it).
    candidates = [
        k for k in range(total) if ends[k] - starts[k] > 1e-6
    ] or list(range(total))
    target = candidates[rng.randrange(len(candidates))]
    kill_at = (starts[target] + ends[target]) / 2

    saved_retries = engine.max_query_retries
    engine.max_query_retries = 0
    injector = FaultInjector(
        engine,
        FaultPlan(events=[
            FaultEvent(at=kill_at, kind="kill_segment", target=victim)
        ]),
    )
    engine.attach_chaos(injector)
    try:
        chaos_runner, chaos = _metered_concurrent_run(
            engine, injector, streams, [], []
        )
    finally:
        engine.max_query_retries = saved_retries
        engine.chaos = None
        injector.detach()

    failed = 0
    expected_by_key = {
        (o.stream, o.index): o for o in expected.outcomes
    }
    for outcome in chaos.outcomes:
        twin = expected_by_key[(outcome.stream, outcome.index)]
        if outcome.error is not None:
            failed += 1
            if victim not in twin.segments:
                violations.append(
                    f"concurrent kill of seg{victim} failed stream "
                    f"{outcome.stream} stmt {outcome.index}, whose slices "
                    f"touch only {twin.segments}"
                )
            if "QueryRetriesExhausted" not in outcome.error:
                violations.append(
                    f"concurrent kill: stream {outcome.stream} stmt "
                    f"{outcome.index} failed NON-CLEANLY: {outcome.error}"
                )
        elif outcome.rows != twin.rows:
            violations.append(
                f"concurrent survivor diverged: stream {outcome.stream} "
                f"stmt {outcome.index} rows differ from fault-free run"
            )

    seen_ids = set()
    for session in chaos_runner.sessions:
        for trace in session.tracer.queries:
            violations.extend(rpc_closure_violations(trace))
            violations.extend(trace_query_id_violations(trace))
            if trace.query_id and trace.query_id in seen_ids:
                violations.append(
                    f"duplicate query id {trace.query_id} across "
                    "concurrent sessions"
                )
            seen_ids.add(trace.query_id)

    heal(engine)
    failed += run_admission_kill_phase(
        engine, seed, violations, expected_by_key
    )
    heal(engine)
    return failed


def run_admission_kill_phase(
    engine: Engine,
    seed: int,
    violations: List[str],
    expected_by_key: Dict[Tuple[int, int], object],
) -> int:
    """Chaos inside the admission window: the same streams replay
    through a one-slot resource queue, so at any instant one statement
    executes while the other stream heads sit *parked* waiting for
    admission — a mid-execution kill therefore lands inside the
    waiters' admission windows. On top of the mid-flight phase's
    properties:

    * **waiters drain** — every submitted statement settles with rows
      or a clean error; the failed query's slot is released, nobody
      waits forever, and the closed-loop streams run to completion;
    * parking provably happened (the queue's stats saw waiters), so
      the kill overlapped admission waits;
    * queue pressure changes no rows: the queued fault-free twin and
      every chaos survivor stay bit-identical to the unqueued run.
    """
    session = engine.connect()
    session.execute(
        "CREATE RESOURCE QUEUE chaos_narrow WITH (active_statements=1)"
    )
    streams = concurrent_streams(seed)
    total = sum(len(s) for s in streams)
    queues = {sid: "chaos_narrow" for sid in range(len(streams))}

    # Queued fault-free twin: parking reshapes every window, so the
    # unqueued phase's windows cannot place this phase's kill.
    meter = FaultInjector(engine, FaultPlan())
    engine.attach_chaos(meter)
    starts: List[float] = []
    ends: List[float] = []
    try:
        _runner, queued = _metered_concurrent_run(
            engine, meter, streams, starts, ends, queues
        )
    finally:
        engine.chaos = None
        meter.detach()
    queued_by_key = {}
    for outcome in queued.outcomes:
        if outcome.error is not None:
            violations.append(
                f"admission-window fault-free run failed: {outcome.error}"
            )
            return 0
        queued_by_key[(outcome.stream, outcome.index)] = outcome
        twin = expected_by_key[(outcome.stream, outcome.index)]
        if outcome.rows != twin.rows:
            violations.append(
                f"queue pressure changed rows: stream {outcome.stream} "
                f"stmt {outcome.index} diverges from the unqueued run"
            )
    if not any(o.queue_wait > 0 for o in queued.outcomes):
        violations.append(
            "admission-window phase: a one-slot queue under "
            f"{len(streams)} streams parked nobody"
        )
        return 0

    rng = DeterministicRng(seed, "chaos-concurrent", "admission-kill")
    victim = rng.randrange(engine.num_segments)
    candidates = [
        k for k in range(total) if ends[k] - starts[k] > 1e-6
    ] or list(range(total))
    target = candidates[rng.randrange(len(candidates))]
    kill_at = (starts[target] + ends[target]) / 2

    saved_retries = engine.max_query_retries
    engine.max_query_retries = 0
    injector = FaultInjector(
        engine,
        FaultPlan(events=[
            FaultEvent(at=kill_at, kind="kill_segment", target=victim)
        ]),
    )
    engine.attach_chaos(injector)
    try:
        chaos_runner, chaos = _metered_concurrent_run(
            engine, injector, streams, [], [], queues
        )
    finally:
        engine.max_query_retries = saved_retries
        engine.chaos = None
        injector.detach()

    failed = 0
    settled = 0
    for outcome in chaos.outcomes:
        twin = queued_by_key[(outcome.stream, outcome.index)]
        if outcome.error is not None or outcome.rows is not None:
            settled += 1
        if outcome.error is not None:
            failed += 1
            if victim not in twin.segments:
                violations.append(
                    f"admission-window kill of seg{victim} failed stream "
                    f"{outcome.stream} stmt {outcome.index}, whose slices "
                    f"touch only {twin.segments}"
                )
            if "QueryRetriesExhausted" not in outcome.error:
                violations.append(
                    f"admission-window kill: stream {outcome.stream} stmt "
                    f"{outcome.index} failed NON-CLEANLY: {outcome.error}"
                )
        elif outcome.rows != twin.rows:
            violations.append(
                f"admission-window survivor diverged: stream "
                f"{outcome.stream} stmt {outcome.index} rows differ "
                "from fault-free run"
            )
    if len(chaos.outcomes) != total or settled != total:
        violations.append(
            "admission-window waiters did not drain: "
            f"{settled}/{total} statements settled"
        )
    stats = chaos.queue_stats.get("chaos_narrow")
    if stats is None or stats.parked == 0:
        violations.append(
            "admission-window kill replay parked nobody: the kill "
            "cannot have overlapped an admission wait"
        )

    for session in chaos_runner.sessions:
        for trace in session.tracer.queries:
            violations.extend(rpc_closure_violations(trace))
            violations.extend(trace_query_id_violations(trace))

    return failed


def heal(engine: Engine) -> None:
    """The operator playbook: recover segments, restore DataNodes, let
    the NameNode re-replicate until nothing is under-replicated."""
    for segment in engine.segments:
        if not segment.alive:
            engine.recover_segment(segment.segment_id)
    for host, node in engine.hdfs.datanodes.items():
        if not node.alive:
            engine.hdfs.restore_datanode(host)
    for _ in range(4):
        engine.hdfs.check_replication()
        if not engine.hdfs.under_replicated():
            break


def check_recovery_invariants(
    engine: Engine,
    session,
    baseline: Baseline,
    committed: int,
    violations: List[str],
) -> None:
    """Post-heal invariants: replication restored, catalog correct on the
    serving master, committed data exact, no orphaned segfiles."""
    under = engine.hdfs.under_replicated()
    if under:
        violations.append(f"replication factor not restored for blocks {under}")

    for index, (kind, name, sql) in enumerate(script()):
        if kind != "query":
            continue
        try:
            rows = session.query(sql)
        # lint: allow[R4] — post-heal must succeed: a failure is a violation
        except Exception as exc:
            violations.append(
                f"post-heal {name}: {type(exc).__name__}: {exc}"
            )
            continue
        if rows != baseline.expected[index]:
            violations.append(f"post-heal {name}: rows diverge from fault-free run")

    try:
        count = session.query("SELECT count(*) FROM chaos_log")[0][0]
    # lint: allow[R4] — post-heal must succeed: a failure is a violation
    except Exception as exc:
        violations.append(f"post-heal chaos_log count: {type(exc).__name__}: {exc}")
    else:
        if count != committed:
            violations.append(
                f"durability: chaos_log has {count} rows,"
                f" client saw {committed} commits"
            )

    orphans = orphaned_files(engine)
    if orphans:
        violations.append(f"orphaned segfiles: {orphans[:3]}")


def orphaned_files(engine: Engine) -> List[str]:
    """HDFS files under the data path no catalog segfile references —
    files an aborted transaction or a DROP failed to delete."""
    with engine.txns.run() as txn:
        snapshot = txn.statement_snapshot()
        referenced = {
            path
            for relation in engine.catalog.relations(snapshot)
            for _schema, segfile in segfiles(engine.catalog, relation, snapshot)
            for path in segfile["paths"]
        }
    return [
        status.path
        for status in engine.hdfs.list_status(engine.data_path)
        if status.path not in referenced
    ]


def run_smoke(
    schedules: int = 5, scale: float = SCALE, data=None, seed: int = 0
) -> Dict[str, object]:
    """A quick seeded chaos sweep (the ``python -m repro.chaos --smoke``
    entry point and the tier-1 smoke test). ``seed`` offsets the block
    of schedule seeds, so ``--seed 100 --schedules 5`` replays exactly
    schedules 100..104."""
    if data is None:
        data = generate_data(scale)
    baseline = fault_free_baseline(data)
    reports = [
        run_schedule(s, data, baseline)
        for s in range(seed, seed + schedules)
    ]
    return {
        "schedules": len(reports),
        "violations": [v for r in reports for v in r.violations],
        "clean_failures": sum(len(r.clean_failures) for r in reports),
        "retries": sum(r.retries for r in reports),
        "promotions": sum(1 for r in reports if r.promoted),
        "faults_fired": sum(len(r.fired) for r in reports),
        "ok": all(r.ok for r in reports),
    }
