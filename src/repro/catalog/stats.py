"""Optimizer statistics, populated by ANALYZE (and by PXF analyzers)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


@dataclass(frozen=True)
class ColumnStats:
    """Per-column statistics used for selectivity estimation."""

    n_distinct: float = 0.0
    null_frac: float = 0.0
    min_value: Optional[object] = None
    max_value: Optional[object] = None
    avg_width: float = 8.0

    @classmethod
    def from_values(cls, values: Sequence[object]) -> "ColumnStats":
        non_null = [v for v in values if v is not None]
        if not values:
            return cls()
        widths = [len(v) if isinstance(v, (str, bytes)) else 8 for v in non_null]
        comparable = non_null
        try:
            lo = min(comparable) if comparable else None
            hi = max(comparable) if comparable else None
        except TypeError:
            lo = hi = None
        return cls(
            n_distinct=float(len(set(map(repr, non_null)))),
            null_frac=1.0 - len(non_null) / len(values),
            min_value=lo,
            max_value=hi,
            avg_width=sum(widths) / len(widths) if widths else 8.0,
        )


@dataclass(frozen=True)
class TableStats:
    """Whole-table statistics: cardinality, width, per-column details.
    Frozen: ANALYZE writes a new catalog version, readers share the old."""

    row_count: float = 0.0
    total_bytes: float = 0.0
    columns: Dict[str, ColumnStats] = field(default_factory=dict)

    @property
    def avg_row_width(self) -> float:
        if self.row_count <= 0:
            return 64.0
        return self.total_bytes / self.row_count if self.total_bytes else sum(
            c.avg_width for c in self.columns.values()
        ) or 64.0

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence[object]], column_names: Sequence[str]
    ) -> "TableStats":
        """Compute stats from (a sample of) rows."""
        columns = {
            name: ColumnStats.from_values([row[i] for row in rows])
            for i, name in enumerate(column_names)
        }
        total = sum(
            sum(len(v) if isinstance(v, (str, bytes)) else 8 for v in row if v is not None)
            for row in rows
        )
        return cls(row_count=float(len(rows)), total_bytes=float(total), columns=columns)
