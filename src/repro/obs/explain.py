"""EXPLAIN ANALYZE: a statement's plan, annotated from its trace.

Every number printed here comes from one record, the statement's
:class:`~repro.obs.trace.QueryTrace`. Each slice's composed finish time
on the event clock, the rows it sent and its per-segment task breakdown
are read off the task spans of the trace's last assembled plan (a
statement's init plans assemble before it); VERBOSE's per-operator and
per-table columns come from its operator and storage spans. Rendering
only reads the trace and the plan.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.trace import Span
from repro.planner.dispatch import QD_SEGMENT


def render_analyze(result, verbose: bool) -> List[str]:
    """The ``QUERY PLAN`` lines of ``EXPLAIN ANALYZE`` — of ``EXPLAIN
    (ANALYZE, VERBOSE)`` with ``verbose`` — for a statement's traced
    :class:`~repro.executor.runner.QueryResult`.

    Each slice is annotated from its scheduler timeline: the composed
    finish time on the event clock, rows moved, and the per-segment
    task breakdown beneath it. VERBOSE adds per-operator rows/time,
    per-table bytes/cache columns and each gang's skew."""
    plan = result.plan
    trace = result.trace
    annotate = _trace_annotator(trace) if verbose else None
    lines = plan.explain(annotate=annotate).splitlines()
    slices: Dict[int, List[Span]] = {}
    for span in trace.last_plan_tasks():
        slices.setdefault(span.slice_id, []).append(span)
    annotated = []
    for line in lines:
        annotated.append(line)
        if line.startswith("Slice "):
            slice_id = int(line.split()[1])
            tasks = sorted(slices.get(slice_id, []), key=lambda s: s.segment)
            if tasks:
                finish = max(task.attrs["sched_finish"] for task in tasks)
                rows = sum(task.attrs["rows_out"] for task in tasks)
                annotated.append(
                    f"  (actual time={finish:.4f}s, "
                    f"rows sent={rows})"
                )
                if verbose:
                    gang = [
                        task.attrs["acc_seconds"]
                        for task in tasks
                        if task.segment != QD_SEGMENT
                    ]
                    if len(gang) >= 2:
                        # Skew attribution across the gang: how
                        # unevenly the slice's work landed.
                        annotated.append(
                            f"  (skew: max={max(gang):.4f}s "
                            f"mean={sum(gang) / len(gang):.4f}s "
                            f"min={min(gang):.4f}s "
                            f"across {len(gang)} tasks)"
                        )
                for task in tasks:
                    who = (
                        "QD"
                        if task.segment == QD_SEGMENT
                        else f"seg{task.segment}"
                    )
                    annotated.append(
                        f"    {who}: {task.attrs['acc_seconds']:.4f}s, "
                        f"{task.attrs['rows_out']} rows, "
                        f"{task.attrs['bytes_out']} bytes"
                    )
    annotated.append(
        f"Total: {result.cost.seconds:.4f}s simulated "
        f"(critical path {result.makespan:.4f}s + overhead "
        f"{result.overhead_seconds:.4f}s), "
        f"{len(result.rows)} rows, {result.cost.tuples} tuples "
        f"processed, {result.cost.net_bytes} bytes moved"
    )
    return annotated


def _trace_annotator(trace):
    """Build the EXPLAIN (ANALYZE, VERBOSE) per-node annotation callback
    from a query trace: operator spans keyed by plan-node identity, plus
    storage-layer per-table read/cache aggregates for scans.

    An operator's ``q_err`` is how many times the printed estimate is off
    from the actual rows, either way: ``max / min`` of the two, each
    clamped to at least 1 so an empty result stays finite."""
    ops = trace.operator_stats()
    scans = trace.scan_stats()

    def annotate(node) -> Optional[str]:
        parts: List[str] = []
        stats = ops.get(id(node))
        if stats is not None:
            est, act = max(1, round(node.est_rows)), max(1, stats["rows"])
            parts.append(
                f"(actual rows={stats['rows']} calls={stats['calls']} "
                f"time={stats['acc_seconds']:.4f}s "
                f"q_err={max(est, act) / min(est, act):.1f})"
            )
        table = getattr(getattr(node, "table", None), "table_name", None)
        if table is not None and table in scans:
            scan = scans[table]
            lookups = scan["cache_hits"] + scan["cache_misses"]
            parts.append(
                f"(read={scan['read_bytes']}B remote={scan['remote_bytes']}B "
                f"cache hits={scan['cache_hits']}/{lookups})"
            )
        return " ".join(parts) if parts else None

    return annotate
