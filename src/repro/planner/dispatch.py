"""Metadata dispatch: self-described plans (paper Section 3.1).

Segments are stateless and the catalog lives only on the master, so a
dispatched plan must carry everything QEs need: table schemas, storage
formats, and each segment's data files with their transaction-visible
logical lengths (the snapshot, in effect). Plans are measured and
compressed exactly as the paper describes — metadata that is constant
across queries (the "readonly catalog store" bootstrapped on segments,
here: type and function definitions) is excluded from the plan, and a
compression pass shrinks what remains.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.catalog.schema import TableSchema
from repro.catalog.master_relations import is_master_only
from repro.catalog.service import CatalogService
from repro.errors import PlannerError
from repro.planner.physical import PhysicalPlan, PlanNode, PlanSlice, SeqScan
from repro.planner.wire import encode, encode_dispatch
from repro.txn.mvcc import Snapshot

#: Pseudo segment id of the query dispatcher's own executor (gang "1"
#: slices — final gathers, Result-only plans — run on the master).
QD_SEGMENT = -1

#: Most table versions a dispatch memo holds; a full one is cleared whole.
METADATA_MEMO_LIMIT = 256


@dataclass(frozen=True)
class SegfileMeta:
    """One lane of one table on one segment, as dispatched to QEs."""

    segfile_id: int
    paths: Dict[str, int]  # path -> logical length
    tupcount: int = 0


@dataclass(frozen=True)
class TableMetadata:
    """Everything a QE needs to scan one table. Shared by every
    dispatch that sees the same catalog versions, so never changed."""

    schema: TableSchema
    storage_format: str
    compression: str
    #: segment id -> lanes visible under the dispatching snapshot
    segfiles: Dict[int, List[SegfileMeta]] = field(default_factory=dict)


@dataclass
class SelfDescribedPlan:
    """A physical plan plus its piggybacked metadata."""

    plan: PhysicalPlan
    metadata: Dict[str, TableMetadata]
    #: Serialized plan sizes, for the dispatch cost model and EXPLAIN.
    plan_bytes: int = 0
    compressed_bytes: int = 0
    #: The dispatching snapshot (QEs evaluating master-only catalog
    #: scans need it; regular tables already carry logical lengths).
    snapshot: Optional[Snapshot] = None


@dataclass
class SliceTask:
    """One unit of dispatch: one plan slice assigned to one segment.

    The dispatcher cuts a :class:`SelfDescribedPlan` into per-segment
    tasks; each task travels to its :class:`~repro.cluster.worker.
    SegmentWorker` inside one RPC DISPATCH message, and the worker
    executes exactly one serialized task at a time.
    """

    slice_id: int
    #: Executing segment (``QD_SEGMENT`` for gang "1" slices).
    segment: int
    gang: str
    is_top: bool
    #: Segments of the consuming (parent) gang — the targets of this
    #: slice's root motion. Empty for the top slice.
    receivers: List[int] = field(default_factory=list)
    #: Slice count of the whole plan (interconnect stream arithmetic).
    num_plan_slices: int = 1
    #: Charged wire size of the DISPATCH message carrying this task
    #: (the compressed self-described plan for QE tasks, 0 for the
    #: master's loopback dispatch to its own executor).
    payload_bytes: int = 0


def gang_segments(
    plan: PhysicalPlan, plan_slice: PlanSlice, num_segments: int
) -> List[int]:
    """Segments a slice's gang runs on: the QD for gang "1", the single
    direct-dispatch target when the planner proved one, else all."""
    if plan_slice.gang == "1":
        return [QD_SEGMENT]
    if plan.direct_dispatch_segment is not None:
        return [plan.direct_dispatch_segment]
    return list(range(num_segments))


def make_slice_tasks(
    plan: PhysicalPlan, sdp: "SelfDescribedPlan", num_segments: int
) -> List[List[SliceTask]]:
    """Cut a self-described plan into dispatchable per-segment tasks.

    Returns one wave per slice, in the slicer's children-first order, so
    a wave's motion inputs are fully produced by earlier waves. Direct
    dispatch naturally shrinks QE waves to the single contacted segment.
    """
    parent_gang: Dict[int, List[int]] = {}
    for plan_slice in plan.slices:
        receivers = gang_segments(plan, plan_slice, num_segments)
        for child_id in plan_slice.child_slices:
            parent_gang[child_id] = receivers
    waves: List[List[SliceTask]] = []
    for plan_slice in plan.slices:
        is_top = plan_slice is plan.top_slice
        wave = [
            SliceTask(
                slice_id=plan_slice.slice_id,
                segment=segment,
                gang=plan_slice.gang,
                is_top=is_top,
                receivers=parent_gang.get(plan_slice.slice_id, [QD_SEGMENT]),
                num_plan_slices=len(plan.slices),
                payload_bytes=(
                    0 if segment == QD_SEGMENT else sdp.compressed_bytes
                ),
            )
            for segment in gang_segments(plan, plan_slice, num_segments)
        ]
        waves.append(wave)
    return waves


def tables_in_plan(plan: PhysicalPlan) -> Set[str]:
    """All table names (including selected partitions) the plan scans."""
    names: Set[str] = set()
    pending: List[PlanNode] = [plan_slice.root for plan_slice in plan.slices]
    while pending:
        node = pending.pop()
        if isinstance(node, SeqScan):
            if node.partitions is not None:
                names.update(node.partitions)
            else:
                names.add(node.table.table_name)
        pending.extend(node.children)
    for init in plan.init_plans:
        names.update(tables_in_plan(init))
    return names


def _table_entry(
    name: str, relation: Dict[str, object], lanes: List[Dict[str, object]]
) -> Tuple[TableMetadata, bytes]:
    """One table's metadata and its wire bytes as a ``metadata`` item
    (its name, then the :class:`TableMetadata`)."""
    schema: TableSchema = relation["schema"]
    segfiles: Dict[int, List[SegfileMeta]] = {}
    for row in lanes:
        segfiles.setdefault(row["segment_id"], []).append(
            SegfileMeta(
                segfile_id=row["segfile_id"],
                paths=dict(row["paths"]),
                tupcount=row["tupcount"],
            )
        )
    table_meta = TableMetadata(
        schema=schema,
        storage_format=schema.storage_format,
        compression=schema.compression,
        segfiles=segfiles,
    )
    return table_meta, encode(name) + encode(table_meta)


def build_self_described_plan(
    plan: PhysicalPlan,
    catalog: CatalogService,
    snapshot: Snapshot,
    memo: Optional[dict] = None,
) -> SelfDescribedPlan:
    """Decorate a plan with the metadata its QEs will need.

    A table's metadata is a function of the catalog row versions the
    snapshot sees — its ``pg_class`` row and its ``gp_segfile`` rows, in
    scan order — and those versions are immutable. ``memo`` (the
    engine's) keeps each table's :class:`TableMetadata` and wire bytes
    under the identities of those versions, and holds the versions
    themselves so no identity can be reused while its entry lives; a
    full memo is cleared whole. The message is framed around the stored
    bytes, byte-identical to ``encode((plan, metadata))``.
    """
    if memo is None:
        memo = {}
    metadata: Dict[str, TableMetadata] = {}
    entries: List[bytes] = []
    for name in sorted(tables_in_plan(plan)):
        if is_master_only(name):
            continue
        relation = catalog.lookup_relation(name, snapshot)
        if relation is None:
            raise PlannerError(f"table {name!r} vanished before dispatch")
        lanes = catalog.segfiles(name, snapshot)
        key = (name, id(relation), *map(id, lanes))
        hit = memo.get(key)
        if hit is None:
            if len(memo) >= METADATA_MEMO_LIMIT:
                memo.clear()
            hit = memo[key] = (relation, lanes, *_table_entry(name, relation, lanes))
        _relation, _lanes, metadata[name], table_bytes = hit
        entries.append(table_bytes)

    raw = encode_dispatch(plan, entries)
    compressed = zlib.compress(raw, 1)
    return SelfDescribedPlan(
        plan=plan,
        metadata=metadata,
        plan_bytes=len(raw),
        compressed_bytes=len(compressed),
        snapshot=snapshot,
    )
