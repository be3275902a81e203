"""Optimizer statistics, populated by ANALYZE (and by PXF analyzers).

ANALYZE never builds a row: :meth:`TableStats.from_blocks` folds the
column vectors of ``scan_blocks`` into one :class:`ColumnAccumulator`
per column.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.columnar import fresh_list


@dataclass(frozen=True)
class ColumnStats:
    """Per-column statistics used for selectivity estimation."""

    n_distinct: float = 0.0
    null_frac: float = 0.0
    min_value: Optional[object] = None
    max_value: Optional[object] = None
    avg_width: float = 8.0


#: Types whose values are equal exactly when their reprs are: a column
#: holding one of them, and nothing else, counts its distinct values
#: themselves. (``True == 1`` and ``1 == 1.0`` are why it must be one;
#: floats always count by repr: ``-0.0 == 0.0``, and no NaN equals any.)
_VALUE_KEYED = frozenset({int, str, bytes, datetime.date, bool})
#: A value is as wide as its ``len`` if it is a string, 8 bytes if not.
_SIZED = frozenset({str, bytes})
_FIXED_WIDTH = frozenset({int, float, bool, datetime.date})
_NONE_TYPE = type(None)
_UNSEEN = object()


class ColumnAccumulator:
    """What ANALYZE keeps of one column while the table's blocks go by:
    rows, non-NULL values, their total width, the running minimum and
    maximum, and the set of distinct values.

    **The distinct set counts reprs** (``n_distinct`` is the number of
    different ``repr``\\ s among the non-NULL values), but holds reprs
    only when it must: while every value seen so far has exactly one
    type of :data:`_VALUE_KEYED` it holds the values, and the first
    block that breaks the run turns what was collected into reprs.

    Minimum and maximum are Python's ``min`` / ``max`` over the values
    in scan order — continued from the running value, so the first of
    two equal values wins and a NaN counts by position, as there."""

    __slots__ = (
        "rows", "present", "width", "_lo", "_hi", "_comparable",
        "_kind", "_distinct",
    )

    def __init__(self) -> None:
        self.rows = 0
        self.present = 0  # non-NULL values
        self.width = 0
        #: The running minimum / maximum, once there is one.
        self._lo: List[object] = []
        self._hi: List[object] = []
        self._comparable = True
        #: The one value-keyed type all values had so far; None once the
        #: set holds reprs.
        self._kind: object = _UNSEEN
        self._distinct: set = set()

    def add(self, column) -> None:
        """Fold in one block's vector of this column."""
        values = fresh_list(column)
        self.rows += len(values)
        kinds = set(map(type, values))
        if _NONE_TYPE in kinds:
            kinds.discard(_NONE_TYPE)
            values = [value for value in values if value is not None]
        if not values:
            return
        self.present += len(values)
        if kinds <= _FIXED_WIDTH:
            self.width += 8 * len(values)
        elif kinds <= _SIZED:
            self.width += sum(map(len, values))
        else:
            self.width += sum(
                len(v) if isinstance(v, (str, bytes)) else 8 for v in values
            )
        if self._comparable:
            try:
                self._lo = [min(chain(self._lo, values))]
                self._hi = [max(chain(self._hi, values))]
            except TypeError:
                self._comparable = False
        kind = kinds.pop() if len(kinds) == 1 else None
        if kind not in _VALUE_KEYED:
            kind = None
        if self._kind is _UNSEEN:
            self._kind = kind
        if kind is not self._kind or kind is None:
            if self._kind is not None:
                self._distinct = set(map(repr, self._distinct))
                self._kind = None
            values = map(repr, values)
        self._distinct.update(values)

    def result(self) -> ColumnStats:
        if not self.rows:
            return ColumnStats()
        present = self.present
        ordered = self._comparable and present
        return ColumnStats(
            n_distinct=float(len(self._distinct)),
            null_frac=1.0 - present / self.rows,
            min_value=self._lo[0] if ordered else None,
            max_value=self._hi[0] if ordered else None,
            avg_width=self.width / present if present else 8.0,
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
    def from_blocks(
        cls,
        blocks: Iterable[Tuple[int, Dict[int, object]]],
        column_names: Sequence[str],
    ) -> "TableStats":
        """Statistics of the table whose ``scan_blocks`` output —
        ``(row_count, {column index: vector})`` per block, every column
        present — is ``blocks``."""
        folds = [ColumnAccumulator() for _ in column_names]
        rows = 0
        for row_count, columns in blocks:
            rows += row_count
            for i, fold in enumerate(folds):
                fold.add(columns[i])
        return cls(
            row_count=float(rows),
            total_bytes=float(sum(fold.width for fold in folds)),
            columns={
                name: fold.result() for name, fold in zip(column_names, folds)
            },
        )
