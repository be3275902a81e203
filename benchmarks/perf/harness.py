"""One workload, measured in this process; prints one JSON line.

``run.py`` starts this file in a fresh subprocess per workload
(``PYTHONHASHSEED=0``, one client thread, closed loop). The sequence:

1. generate the inputs from ``--seed`` (untimed; ``harness.datagen_s``);
2. set up engine A — build, DDL, chunked load, ``ANALYZE`` — and run the
   warm-up round, whose answers become the reference;
3. measure ``rounds`` rounds untraced (``gc.collect()`` between rounds,
   the collector left on), checking every answer against the reference;
4. with ``--trace 1``: two more rounds with the layer wrappers installed
   and one under ``cProfile``; the per-layer metrics come from these;
5. without: read peak RSS, drop A, set up a fresh twin engine B the same
   way (the second ``setup_s`` sample), compare its warm-up answers,
   re-run the round with ``executor_mode="row"`` as the oracle, and run
   the workload's own check (serial twin, fail-over durability).

All timings are calibrated seconds (see calibrate.py). Statistics are
taken per op across rounds first (median), then across ops, so a slow
stretch of the machine cannot land on the same op twice.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pstats
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
sys.path.insert(0, REPO_SRC)

import spec  # noqa: E402
import tracing  # noqa: E402
from calibrate import CalibratedTimer, Timing  # noqa: E402
from workloads import WORKLOADS, Outcome, State, Workload, space  # noqa: E402

TRACED_ROUNDS = 2
#: Untraced rounds of a ``--trace 1`` run: enough for the overhead share.
TRACE_BASELINE_ROUNDS = 3
#: Never measure longer than this many times ``--seconds``.
OVERRUN = 2.5
MAX_ERRORS_SHOWN = 3


@dataclass
class Sample:
    """One op of one round; its spans are ``[first_span, end_span)``."""

    op_id: str
    timing: Timing
    sim_s: float
    first_span: int
    end_span: int


class Run:
    def __init__(self, workload: Workload, seed: int, seconds: float, quick: bool):
        self.workload = workload
        self.seconds = seconds
        self.quick = quick
        self.timer = CalibratedTimer()
        self.attempted = 0
        self.failed = 0
        #: op id -> the warm-up round's answer on engine A.
        self.reference: Dict[str, object] = {}
        self.next_round = 0
        started = time.perf_counter()
        self.inputs = workload.generate(seed, quick)
        self.datagen_s = time.perf_counter() - started

    # -------------------------------------------------------------- checking
    def _judge(self, op_id: str, outcome: Optional[Outcome],
               error: Optional[BaseException]) -> None:
        self.attempted += 1
        if error is None:
            if op_id not in self.reference:
                self.reference[op_id] = outcome.rows
                return
            if outcome.rows == self.reference[op_id]:
                return
            message = f"answer differs from the reference: {str(outcome.rows)[:200]}"
        else:
            message = "".join(traceback.format_exception_only(type(error), error)).strip()
        self.failed += 1
        if self.failed <= MAX_ERRORS_SHOWN:
            print(f"perf: {self.workload.name} op {op_id} failed: {message}",
                  file=sys.stderr)

    # ---------------------------------------------------------------- rounds
    def round(self, state: State, tracer: Optional[tracing.Tracer] = None,
              profiler: Optional[cProfile.Profile] = None) -> List[Sample]:
        round_no = self.next_round
        self.next_round += 1
        gc.collect()
        samples = []
        for op in self.workload.ops(state, round_no):
            fn = op.fn
            if profiler is not None:
                fn = lambda fn=fn: profiler.runcall(fn)  # noqa: E731
            first_span = len(tracer.spans) if tracer is not None else 0
            outcome, timing = self.timer.run(fn)
            end_span = len(tracer.spans) if tracer is not None else 0
            self._judge(op.id, outcome, timing.error)
            samples.append(Sample(op.id, timing, outcome.sim_s if outcome else 0.0,
                                  first_span, end_span))
        self.timer.flush()
        return samples

    def setup(self) -> Tuple[State, float]:
        """Build + load + ANALYZE + the warm-up round; calibrated seconds."""
        timings: List[Timing] = []

        def step(fn):
            value, timing = self.timer.run(fn)
            if timing.error is not None:
                raise timing.error
            timings.append(timing)
            return value

        self.next_round = 0
        state = self.workload.setup(self.inputs, step)
        warm_up = self.round(state)
        timings += [sample.timing for sample in warm_up]
        return state, sum(self.timer.seconds(t) for t in timings)

    def rounds(self, state: State, count: int) -> List[List[Sample]]:
        out = []
        started = time.perf_counter()
        for done in range(count):
            if done >= 3 and time.perf_counter() - started > OVERRUN * self.seconds:
                break
            out.append(self.round(state))
        return out

    # ----------------------------------------------------------------- stats
    def op_seconds(self, rounds: List[List[Sample]]) -> Dict[str, List[float]]:
        per_op: Dict[str, List[float]] = defaultdict(list)
        for samples in rounds:
            for sample in samples:
                per_op[sample.op_id].append(self.timer.seconds(sample.timing))
        return per_op

    def round_seconds(self, rounds: List[List[Sample]]) -> float:
        """Sum over ops of the op's median across rounds."""
        return sum(statistics.median(v) for v in self.op_seconds(rounds).values())


def end_to_end(run: Run, rounds: List[List[Sample]],
               first_setup_s: float) -> Dict[str, float]:
    """The untraced pass's metrics. Engine A is already gone: the fresh
    twin B gives the second set-up sample and the verification pass."""
    per_op = run.op_seconds(rounds)
    medians = [statistics.median(values) for values in per_op.values()]
    pooled = sorted(value for values in per_op.values() for value in values)
    metrics = {
        "round_s": sum(medians),
        "op_p50_ms": statistics.median(medians) * 1e3,
        "op_tail_ms": statistics.mean(pooled[-max(1, len(pooled) // 10):]) * 1e3,
        "sim_s": statistics.median(
            sum(sample.sim_s for sample in samples) for samples in rounds
        ),
        # Linux reports ru_maxrss in KiB. Read before the twin engine exists.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    gc.collect()
    twin, second_setup_s = run.setup()
    metrics["setup_s"] = statistics.median([first_setup_s, second_setup_s])
    verify(run, twin)
    stored, user = space(twin)
    metrics["stored_bytes_per_user_byte"] = stored / user
    return metrics


def verify(run: Run, twin: State) -> None:
    """Row-executor oracle on the twin, then the workload's own check."""
    twin.engine.executor_mode = "row"
    try:
        run.round(twin)
    finally:
        twin.engine.executor_mode = "batch"
    try:
        attempted, failed = run.workload.check(twin)
    except Exception:  # the check itself broke: that is a failed check
        traceback.print_exc()
        attempted, failed = 1, 1
    run.attempted += attempted
    run.failed += failed


def per_layer(run: Run, state: State, baseline: List[List[Sample]]) -> Dict[str, float]:
    timer = run.timer
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = []
        for _ in range(1 if run.quick else TRACED_ROUNDS):
            tracer.counts.clear()
            traced.append(run.round(state, tracer=tracer))
    finally:
        tracer.uninstall()

    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    root_s = 0.0
    trace_ops = []
    for round_index, samples in enumerate(traced):
        last = round_index == len(traced) - 1
        for sample in samples:
            first, end = sample.first_span, sample.end_span
            trace_ops.append((f"r{round_index}:{sample.op_id}", first, end))
            factor = timer.seconds(sample.timing) / sample.timing.wall
            own = tracing.self_times(tracer.spans, first, end)
            for index in range(first, end):
                name, begin, finish, parent = tracer.spans[index]
                self_s[name] += own[index - first] * factor / len(traced)
                if parent < first:
                    root_s += (finish - begin) * factor / len(traced)
                if last:
                    calls[name] += 1
    write_trace(run.workload.name, tracer, trace_ops)

    engine = state.engine
    profiler = cProfile.Profile()
    counters_before = engine.metrics.snapshot()
    wal_before = len(engine.txns.wal)
    run.round(state, profiler=profiler)
    counters = engine.metrics.snapshot().diff(counters_before)
    wal_records = len(engine.txns.wal) - wal_before
    pycalls: Dict[str, int] = defaultdict(int)
    package_root = os.path.join(REPO_SRC, "repro") + os.sep
    for (filename, _line, _name), (_cc, ncalls, *_rest) in pstats.Stats(profiler).stats.items():
        pycalls["python"] += ncalls
        if filename.startswith(package_root):
            pycalls[filename[len(package_root):].split(os.sep)[0]] += ncalls

    hits = counters.total("cache_hits")
    misses = counters.total("cache_misses")
    untraced_round_s = run.round_seconds(baseline)
    cal_deciles = statistics.quantiles(timer.samples, n=10)
    metrics = {
        "sql.parse.self_s": self_s["sql.parse"],
        "sql.parse.calls": calls["sql.parse"],
        "planner.analyze.self_s": self_s["planner.analyze"],
        "planner.plan.self_s": self_s["planner.plan"],
        "planner.dispatch.self_s": self_s["planner.dispatch"],
        "planner.calls": calls["planner.analyze"] + calls["planner.plan"]
        + calls["planner.dispatch"],
        "catalog.self_s": self_s["catalog"],
        "catalog.calls": calls["catalog"],
        "txn.self_s": self_s["txn"],
        "txn.calls": calls["txn"],
        "txn.wal_records": wal_records,
        "cluster.rpc.self_s": self_s["cluster.rpc"],
        "cluster.rpc.messages": counters.total("rpc_messages"),
        "cluster.rpc.bytes": counters.total("rpc_bytes"),
        "cluster.resqueue.self_s": self_s["cluster.resqueue"],
        "cluster.resqueue.parked": counters.total("resqueue_parked"),
        "cluster.resqueue.wait_sim_s": counters.total("resqueue_wait_seconds.total"),
        "network.simnet.self_s": self_s["network.simnet"],
        "network.datagrams": counters.total("datagrams_delivered"),
        "simtime.scheduler.self_s": self_s["simtime.scheduler"],
        "simtime.scheduler.tasks": tracer.counts["simtime.scheduler.tasks"],
        "executor.runtime.self_s": self_s["executor.runtime"],
        "executor.concurrent.self_s": self_s["executor.concurrent"],
        "executor.slice.self_s": self_s["executor.slice"],
        "executor.slice.tasks": calls["executor.slice"],
        "executor.tuples": tracer.counts["executor.tuples"],
        "storage.scan.self_s": self_s["storage.scan"],
        "storage.scan.calls": tracer.counts["storage.scan.calls"],
        "storage.scan.bytes_read": counters.total("bytes_read"),
        "storage.write.self_s": self_s["storage.write"],
        "storage.write.bytes": tracer.counts["storage.write.bytes"],
        "storage.cache.hits": hits,
        "storage.cache.misses": misses,
        "storage.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "hdfs.self_s": sum(v for name, v in self_s.items() if name.startswith("hdfs.")),
        "hdfs.reads": calls["hdfs.read"],
        "hdfs.writes": calls["hdfs.write"],
        # After every round's DROPs: what DROP TABLE leaves behind is a number.
        "hdfs.stored_bytes": sum(s.length for s in engine.hdfs.list_status("")),
        "interconnect.exchange.self_s": self_s["interconnect.exchange"],
        "interconnect.motion_streams": counters.total("motion_streams"),
        "interconnect.motion_bytes": counters.total("motion_bytes"),
        "obs.self_s": self_s["obs"],
        "obs.calls": calls["obs"],
        "python.gc_s": self_s[tracing.GC_SPAN],
        "python.gc_collections": calls[tracing.GC_SPAN],
        "harness.unattributed_share": self_s[tracing.ROOT_SPAN] / root_s,
        "harness.trace_overhead_share": run.round_seconds(traced) / untraced_round_s - 1.0,
        "harness.cal_ms": statistics.median(timer.samples) * 1e3,
        "harness.cal_spread": cal_deciles[8] / cal_deciles[0],
        "harness.round_wall_s": statistics.median(
            sum(sample.timing.wall for sample in samples) for samples in baseline
        ),
        "harness.datagen_s": run.datagen_s,
    }
    for name, _unit, _better in spec.PER_LAYER:
        if name.endswith(".pycalls"):  # python.pycalls is the profile's total
            metrics[name] = pycalls[name[: -len(".pycalls")]]
    return metrics


def write_trace(name: str, tracer: tracing.Tracer, ops) -> None:
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{name}.trace.json"), "w") as fh:
        json.dump(tracing.chrome_trace(tracer.spans, ops), fh)


def measure(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    workload = WORKLOADS[name]
    run = Run(workload, seed, seconds, quick)
    state, first_setup_s = run.setup()
    if quick:
        count = 1
    elif trace:
        count = TRACE_BASELINE_ROUNDS
    else:
        count = max(3, round(workload.rounds * seconds / spec.RUN_SECONDS))
    rounds = run.rounds(state, count)
    if trace:
        values = per_layer(run, state, rounds)
        units = {n: u for n, u, _b in spec.PER_LAYER}
    else:
        del state
        values = end_to_end(run, rounds, first_setup_s)
        units = {n: u for n, u, _b, _bound in spec.END_TO_END}
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
