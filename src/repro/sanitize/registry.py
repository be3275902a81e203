"""The shared-state registry: every deliberately-shared mutable.

This file is the single source of truth consumed by **both** isolation
checkers:

* lint rule **R7 cross-query-isolation** parses the :data:`SHARED_STATE`
  literal out of this module's AST (of the tree being linted, so tests
  can plant their own copies) and exempts writes to registered state;
* the **DetSan** runtime sanitizer (:mod:`repro.sanitize`) allows
  cross-query mutations of guarded structures whose label matches a
  registered entry, and raises :class:`~repro.sanitize.IsolationViolation`
  for everything else.

Keys are ``"<repo-relative-path>::<qualname>"`` — the same shape the
lint call graph uses — where the qualname is the module-level name or
``Class.attribute`` of the shared structure.  Values are the human
reason the sharing is sound.  An entry here is a *claim* that concurrent
queries may mutate the structure without breaking the serial≡concurrent
bit-identity contract; keep the reason concrete enough to audit.

The dict literal must stay statically evaluable (string keys/values
only): R7 reads it with ``ast.literal_eval`` without importing the
module.
"""

from __future__ import annotations

from typing import Dict

#: ``path::qualname`` → why cross-query mutation is sound.
SHARED_STATE: Dict[str, str] = {
    # --- pure memo caches: value is a pure function of the key, so the
    # --- winner of any write race stores the same value every run.
    "src/repro/executor/expr.py::_LIKE_CACHE": (
        "pure memo (LIKE pattern -> compiled regex); the value depends "
        "only on the key, so concurrent fills are idempotent"
    ),
    "src/repro/catalog/schema.py::_PLACEMENTS": (
        "pure memo (segment count -> distribution key -> segment); each "
        "place is FNV-1a of the key's text, keys restricted to types whose "
        "== implies that text, and a full memo is cleared whole, so no "
        "placement depends on what it holds"
    ),
    "src/repro/catalog/schema.py::_DAYS": (
        "pure memo (stored day number -> immutable date); __missing__ "
        "stores date.fromordinal of the key only once it succeeded, and a "
        "full memo is cleared whole, so no decoded value depends on what "
        "it holds"
    ),
    # --- scheduler slot bookkeeping: contention is the *product* here.
    # --- Per-segment slots are shared by design; determinism is
    # --- guaranteed by the (ready_time, key) drain order, which R8
    # --- polices statically.
    "src/repro/simtime/scheduler.py::EventScheduler._busy": (
        "per-segment slot occupancy is the cross-query contention the "
        "scheduler models; drain order is pinned to (ready_time, key)"
    ),
    "src/repro/simtime/scheduler.py::EventScheduler._parked": (
        "queue of tasks waiting for a busy slot; shared across queries "
        "by design, drained in sorted (ready_time, key) order"
    ),
    "src/repro/simtime/scheduler.py::EventScheduler._heap": (
        "the event heap interleaves all queries' arrivals/finishes; "
        "entries carry (time, rank, seq, key) so pops are total-ordered"
    ),
    # --- resource queue admission: the whole point is cross-query
    # --- arbitration of slots/memory; drain order is pinned to
    # --- (-priority, arrival, query_id).
    "src/repro/cluster/resqueue.py::_QueueState.running": (
        "admission control arbitrates slots across queries by design; "
        "release/admit order is pinned to (-priority, arrival, query_id)"
    ),
    "src/repro/cluster/resqueue.py::_QueueState.waiting": (
        "head-of-line wait list shared across queries by design; "
        "sorted by (-priority, arrival, query_id) before every drain"
    ),
    # --- segment-local services that outlive any one query.
    "src/repro/cluster/worker.py::SegmentWorker._task": (
        "one serialized task slot per worker: the RPC bus delivers one "
        "DISPATCH at a time, so the previous query's task is always "
        "fully retired before the next overwrite"
    ),
    "src/repro/cluster/worker.py::SegmentWorker._ctx": (
        "paired with _task: per-dispatch execution context, serialized "
        "by the one-task-at-a-time worker loop"
    ),
    "src/repro/storage/cache.py::BlockDecodeCache._entries": (
        "the segment block cache is engine-lifetime shared by design; "
        "epoch keys invalidate staleness and hit-replay recharges the "
        "same simulated cost, keeping results bit-identical"
    ),
}


def runtime_labels() -> Dict[str, str]:
    """Registry keyed by bare ``qualname`` for the runtime sanitizer.

    DetSan guards know their structure as ``Class.attr`` (no file path),
    so the runtime lookup drops the path half of the static key.
    """
    return {key.split("::", 1)[1]: reason for key, reason in SHARED_STATE.items()}
