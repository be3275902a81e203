"""Bench-owned spans around each engine layer's public functions.

ROADMAP item 1 asks for the per-layer split to come from "hooks/wrappers
the bench installs", with no ``perf_counter`` in the engine (lint R1).
:class:`Tracer` monkeypatches a timing wrapper around every function in
:data:`TARGETS` for the duration of the traced pass and puts the
originals back, by identity, when it is uninstalled.

A span is ``[name, start, end, parent]`` (parent is an index into
``Tracer.spans``, -1 for a root). Spans stay in memory; the harness
slices them per op and :func:`chrome_trace` turns them into trace-event
JSON at exit. A layer's *self time* is its spans' durations minus the
part covered by their direct children, so nested layers (a catalog
lookup under the analyzer under ``Session.execute``) are not counted
twice. Generator functions (``scan``, ``scan_blocks``) are timed per
``next()``, because that is when their work happens.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: Span name of the statement drivers' own glue (``engine.py``): what is
#: left of ``Session.execute`` once every wrapped layer is taken out.
ROOT_SPAN = "engine.session"
GC_SPAN = "python.gc"


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module.owner.attr`` (``owner`` is a class
    name, or None when ``attr`` is bound at module level)."""

    span: str
    module: str
    owner: Optional[str]
    attr: str
    generator: bool = False
    #: Counter bumped once per call (per creation for a generator) ...
    counter: Optional[str] = None
    #: ... by ``amount(args, result)`` when given, else by one.
    amount: Optional[Callable[[tuple, object], float]] = None


def _scheduled_tasks(args: tuple, schedule: object) -> float:
    return len(schedule.finish)


def _slice_tuples(args: tuple, rows: object) -> float:
    return args[0].acc.tuples


def _written_bytes(args: tuple, result: object) -> float:
    return len(args[1])


def _storage_targets() -> List[Target]:
    out = []
    for fmt in ("ao", "co", "parquet"):
        module = f"repro.storage.{fmt}"
        for attr in ("scan", "scan_blocks"):
            out.append(Target("storage.scan", module, None, attr,
                              generator=True, counter="storage.scan.calls"))
        out.append(Target("storage.write", module, None, "write"))
    return out


def _methods(span: str, module: str, owner: str, *attrs: str) -> List[Target]:
    return [Target(span, module, owner, attr) for attr in attrs]


#: Every wrapped entry point, by layer. ``parse_sql`` and
#: ``build_self_described_plan`` are wrapped where ``repro.engine``
#: bound them at import, ``make_slice_tasks`` where the runtime did.
TARGETS: Tuple[Target, ...] = tuple(
    _methods(ROOT_SPAN, "repro.engine", "Session",
             "execute", "load_rows", "prepare_select")
    + [
        Target("sql.parse", "repro.engine", None, "parse_sql"),
        Target("planner.analyze", "repro.planner.analyzer", "Analyzer", "analyze"),
        Target("planner.plan", "repro.planner.planner", "Planner", "plan"),
        Target("planner.dispatch", "repro.engine", None, "build_self_described_plan"),
        Target("planner.dispatch", "repro.executor.runner", None, "make_slice_tasks"),
    ]
    + _methods(
        "catalog", "repro.catalog.service", "CatalogService",
        "lookup_relation", "get_schema", "get_stats", "relations", "segfiles",
        "register_segfile", "update_segfile",
    )
    + _methods("txn", "repro.txn.manager", "TransactionManager",
               "begin", "commit", "abort")
    + [
        Target("txn", "repro.txn.wal", "WriteAheadLog", "append"),
        Target("cluster.rpc", "repro.cluster.rpc", "RpcBus", "send"),
    ]
    + _methods("cluster.resqueue", "repro.cluster.resqueue",
               "ResourceQueueManager", "submit", "release")
    + [
        Target("network.simnet", "repro.network.simnet", "SimNetwork", "run"),
        Target("simtime.scheduler", "repro.simtime.scheduler", "EventScheduler",
               "run", counter="simtime.scheduler.tasks", amount=_scheduled_tasks),
        Target("simtime.scheduler", "repro.simtime.scheduler", "TaskGraph", "replay"),
        Target("executor.runtime", "repro.executor.runner", "DistributedRuntime",
               "execute"),
        Target("executor.concurrent", "repro.executor.concurrent",
               "ConcurrentRunner", "run"),
        Target("executor.slice", "repro.executor.slice_runner", "SliceExecutor",
               "run", counter="executor.tuples", amount=_slice_tuples),
    ]
    + _storage_targets()
    + [
        Target("hdfs.read", "repro.hdfs.filesystem", "HdfsReader", "read"),
        Target("hdfs.write", "repro.hdfs.filesystem", "HdfsWriter", "write",
               counter="storage.write.bytes", amount=_written_bytes),
        Target("hdfs.close", "repro.hdfs.filesystem", "HdfsWriter", "close"),
        Target("hdfs.list", "repro.hdfs.filesystem", "Hdfs", "list_status"),
    ]
    + _methods("interconnect.exchange", "repro.interconnect.exchange",
               "ExchangeFabric", "send", "receive")
    + [
        Target("obs", "repro.obs.activity", "ClusterTelemetry", "record_statement"),
        Target("obs", "repro.obs.metrics", "MetricsRegistry", "snapshot"),
        Target("obs", "repro.obs.metrics", "MetricsSnapshot", "diff"),
    ]
)


class Tracer:
    """Installs the wrappers, collects spans and counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ install
    def install(self, targets: Tuple[Target, ...] = TARGETS) -> None:
        for target in targets:
            try:
                owner = importlib.import_module(target.module)
            except ImportError:
                owner = None
            if owner is not None and target.owner is not None:
                owner = getattr(owner, target.owner, None)
            original = vars(owner).get(target.attr) if owner is not None else None
            if original is None:
                # A later refactor may retire an entry point; its metric
                # then reads 0 instead of the traced pass crashing.
                print(
                    f"perf: no {target.module}.{target.owner or ''}.{target.attr} "
                    f"to wrap; {target.span} will miss it",
                    file=sys.stderr,
                )
                continue
            wrap = self._wrap_generator if target.generator else self._wrap_call
            setattr(owner, target.attr, wrap(target, original))
            self._patched.append((owner, target.attr, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ----------------------------------------------------------- wrappers
    def _push(self, name: str) -> list:
        stack = self._stack
        span = [name, self._clock(), 0.0, stack[-1] if stack else -1]
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _pop(self, span: list) -> None:
        self._stack.pop()
        span[2] = self._clock()

    def _count(self, target: Target, args: tuple, result: object) -> None:
        if target.counter is not None:
            self.counts[target.counter] += (
                target.amount(args, result) if target.amount is not None else 1
            )

    def _wrap_call(self, target: Target, fn: Callable) -> Callable:
        push, pop, name = self._push, self._pop, target.span
        counted = target.counter is not None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                pop(span)
            if counted:
                self._count(target, args, result)
            return result

        return wrapper

    def _wrap_generator(self, target: Target, fn: Callable) -> Callable:
        push, pop, name = self._push, self._pop, target.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(target, args, None)
            inner = fn(*args, **kwargs)
            try:
                while True:
                    span = push(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        pop(span)
                    yield item
            finally:
                inner.close()  # an abandoned scan (LIMIT) closes its source

        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._push(GC_SPAN)
        elif self._stack and self.spans[self._stack[-1]][0] == GC_SPAN:
            self._pop(self.spans[self._stack[-1]])


def self_times(spans: List[list], start: int, end: int) -> List[float]:
    """Self time of ``spans[start:end]`` (one op's spans): duration minus
    the direct children's durations."""
    own = [span[2] - span[1] for span in spans[start:end]]
    for index in range(start, end):
        parent = spans[index][3]
        if parent >= start:
            span = spans[index]
            own[parent - start] -= span[2] - span[1]
    return own


def chrome_trace(spans: List[list], ops: List[Tuple[str, int, int]]) -> dict:
    """Chrome trace-event JSON (load in ``chrome://tracing`` or Perfetto).

    ``ops`` lists ``(op id, first span, one past the last span)``; each
    event carries its own index, its parent's and the op it belongs to.
    """
    events = []
    origin = spans[0][1] if spans else 0.0
    for op_id, start, end in ops:
        for index in range(start, end):
            name, begin, finish, parent = spans[index]
            events.append(
                {
                    "name": name,
                    "cat": name.split(".")[0],
                    "ph": "X",
                    "ts": (begin - origin) * 1e6,
                    "dur": (finish - begin) * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": {"id": index, "parent": parent, "op": op_id},
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
