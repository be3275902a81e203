"""Master-only relations: the one module that knows which relations live
on the master alone, what they look like and where their rows come from.

Two kinds, both queryable with ordinary SQL and composing with WHERE,
ORDER BY and aggregation: the flattened projections of the system tables
(paper Section 2.2: "External applications can query the catalog using
standard SQL"), and the system views over live cluster telemetry
(:class:`~repro.obs.activity.ClusterTelemetry`) — ``pg_stat_activity``
(each live statement: state, queue, queue wait, attempt, slices),
``pg_resqueue_status`` (slots and memory per queue), ``pg_stat_segments``
(tasks, busy seconds and utilization per segment) and
``pg_stat_statements`` (the workload repository by fingerprint). They
resolve like tables, are neither locked nor privilege-checked, carry no
dispatch metadata, and the segment-0 QE scans them at no charge: reading
one perturbs no other statement (the passivity differential in
``tests/test_sysviews.py``).
"""

from __future__ import annotations

from typing import Dict, List

from repro.catalog.schema import Column, DataType, Distribution, TableSchema
from repro.obs.activity import ClusterTelemetry
from repro.txn.mvcc import Snapshot

#: Scalar projections of the system tables, in SELECT * order.
CATALOG_RELATION_COLUMNS: Dict[str, List[str]] = {
    "pg_class": ["name", "kind", "owner", "storage_format", "compression"],
    "gp_segment_configuration": ["segment_id", "host", "status"],
    "gp_segfile": [
        "table", "segment_id", "segfile_id", "tupcount", "logical_length",
    ],
    "pg_statistic": ["table", "row_count", "total_bytes"],
    "pg_depend": ["dependent", "referenced"],
}

#: System table -> its SELECT * values from one visible row version.
_CATALOG_ROW = {
    "pg_class": lambda r: (
        r["name"], r["kind"], r["owner"],
        r["schema"].storage_format, r["schema"].compression,
    ),
    "gp_segment_configuration": lambda r: (r["segment_id"], r["host"], r["status"]),
    "gp_segfile": lambda r: (
        r["table"], r["segment_id"], r["segfile_id"], r["tupcount"],
        sum(r["paths"].values()),
    ),
    "pg_statistic": lambda r: (
        r["table"], r["stats"].row_count, r["stats"].total_bytes,
    ),
    "pg_depend": lambda r: (r["dependent"], r["referenced"]),
}

#: Column layout of every system view, in SELECT * order.
SYSTEM_VIEW_COLUMNS: Dict[str, List[str]] = {
    "pg_stat_activity": [
        "query_id", "state", "queue", "queue_wait_seconds",
        "attempt", "slices_dispatched", "slices_completed",
    ],
    "pg_resqueue_status": [
        "queue", "slots", "slots_in_use", "memory_limit",
        "memory_used", "waiters", "head_of_line",
    ],
    "pg_stat_segments": [
        "segment_id", "host", "tasks", "busy_seconds", "utilization",
    ],
    "pg_stat_statements": [
        "fingerprint", "calls", "total_seconds", "mean_seconds",
        "total_rows", "queue_wait_seconds", "retries",
        "cache_hits", "cache_misses",
    ],
}

#: System view -> the telemetry reader of its live rows.
_VIEW_ROWS = {
    "pg_stat_activity": ClusterTelemetry.activity_rows,
    "pg_resqueue_status": ClusterTelemetry.resqueue_rows,
    "pg_stat_segments": ClusterTelemetry.segment_rows,
    "pg_stat_statements": ClusterTelemetry.statement_rows,
}

#: Every column not named here is text.
_COLUMN_TYPES = {
    "segment_id": "int", "segfile_id": "int", "tupcount": "int8",
    "logical_length": "int8", "row_count": "float8", "total_bytes": "float8",
    "query_id": "int", "attempt": "int", "slices_dispatched": "int",
    "slices_completed": "int", "queue_wait_seconds": "float8",
    "slots": "int", "slots_in_use": "int", "memory_limit": "float8",
    "memory_used": "float8", "waiters": "int", "head_of_line": "int",
    "tasks": "int", "busy_seconds": "float8",
    "utilization": "float8", "calls": "int", "total_seconds": "float8",
    "mean_seconds": "float8", "total_rows": "int8", "retries": "int",
    "cache_hits": "int8", "cache_misses": "int8",
}

#: Every master-only relation's schema, by name.
SCHEMAS: Dict[str, TableSchema] = {
    name: TableSchema(
        name=name,
        columns=[
            Column(col, DataType.parse(_COLUMN_TYPES.get(col, "text")))
            for col in columns
        ],
        distribution=Distribution.random(),
    )
    for name, columns in [
        *CATALOG_RELATION_COLUMNS.items(), *SYSTEM_VIEW_COLUMNS.items()
    ]
}


def is_master_only(name: str) -> bool:
    """True when ``name`` (lower case) is a master-only relation."""
    return name in SCHEMAS


def rows(engine, name: str, snapshot: Snapshot) -> List[tuple]:
    """Rows of a master-only relation: a system view's live state, or a
    system table's rows visible to ``snapshot``."""
    if name in _VIEW_ROWS:
        return _VIEW_ROWS[name](engine.telemetry)
    return list(map(_CATALOG_ROW[name], engine.catalog.table(name).scan(snapshot)))
