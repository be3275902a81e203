"""Column batches for the vectorized execution path.

A :class:`ColumnBatch` is the unit of data flow between every operator
of the batch executor, and across motions: per-column vectors — typed
:mod:`repro.columnar` vectors straight from the storage decoders
(int64/float64 buffers with null masks, dictionary-encoded strings) or
plain Python lists for formats and kernels without a typed
representation — plus the underlying row count and an optional
*selection vector*. The selection vector is what fuses an operator into
its neighbours: a filter, a sort or a LIMIT narrows or reorders ``sel``
instead of copying rows out of every column, and downstream kernels
evaluate through the selection, so materialization (``take``) is
deferred to the operator that has to build new columns anyway (a join's
output, a motion's per-target streams) or to the top slice's return.

Storage scans produce batches of ``DEFAULT_BATCH_ROWS`` rows (aligned
with the storage block size so a decoded block becomes a batch with zero
copying), and ``compile_expr_batch`` kernels evaluate expressions over
whole batches.

Batches are read-only by convention: operators build new batches rather
than mutating inputs, because a projection may alias an input column
(zero-copy column references). That is also what lets a batch be *sized
once*: ``nbytes()`` — ``4·rows + Σ column bytes``, additive over rows —
is kept on the batch, ``dense``, ``concat`` and ``partition`` hand the
known size on to the batches they build from sized ones, and a motion
ships the batch it charged for, so the join build or sort that consumes
the stream does not walk it again. ``select`` starts a batch with no
size: fewer rows are live.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

from repro.columnar import as_list, concat, gather, take_columns
from repro.executor.expr import column_bytes, fixed_width
from repro.storage.base import DEFAULT_BLOCK_ROWS

#: Rows per batch on the vectorized path. Matches the storage block row
#: count so decoded blocks map 1:1 onto batches.
DEFAULT_BATCH_ROWS = DEFAULT_BLOCK_ROWS


class ColumnBatch:
    """``nrows`` stored rows held as per-column vectors, of which the
    rows indexed by ``sel`` (all of them when ``sel`` is None) are live."""

    __slots__ = ("columns", "nrows", "sel", "_nbytes")

    def __init__(
        self,
        columns: List[object],
        nrows: int,
        sel: Optional[List[int]] = None,
    ):
        self.columns = columns
        self.nrows = nrows
        #: Live row indices into the columns in output order (ascending
        #: after a filter, a permutation after a sort), or None for all.
        self.sel = sel
        self._nbytes: Optional[int] = None

    @property
    def count(self) -> int:
        """Number of live rows."""
        sel = self.sel
        return self.nrows if sel is None else len(sel)

    def __len__(self) -> int:
        """Live rows — what a motion stream of this batch carries."""
        return self.count

    @classmethod
    def from_rows(cls, rows: Sequence[tuple], ncols: int) -> "ColumnBatch":
        """Transpose row tuples into a batch (``ncols`` governs the
        column count even when ``rows`` is empty)."""
        if not rows:
            return cls([[] for _ in range(ncols)], 0)
        if not ncols:
            return cls([], len(rows))
        return cls([list(col) for col in zip(*rows)], len(rows))

    @classmethod
    def concat(cls, batches: Sequence["ColumnBatch"]) -> "ColumnBatch":
        """The (one or more) batches' live rows, in order, as one dense
        batch."""
        if len(batches) == 1:
            return batches[0].dense()
        dense = [b.dense() for b in batches]
        out = cls(
            [concat(chunks) for chunks in zip(*(b.columns for b in dense))],
            sum(b.nrows for b in dense),
        )
        sizes = [b._nbytes for b in dense]
        if None not in sizes:
            out._nbytes = sum(sizes)
        return out

    def dense(self) -> "ColumnBatch":
        """This batch with the selection applied (itself when it has none)."""
        sel = self.sel
        if sel is None:
            return self
        out = ColumnBatch(take_columns(self.columns, sel), len(sel))
        out._nbytes = self._nbytes
        return out

    def partition(self, picks: Sequence[List[int]]) -> List["ColumnBatch"]:
        """``[self.select(rows).dense() for rows in picks]`` over a dense
        batch, each part sized: one type census per column here, and a
        part walks only the columns that census could not give a width."""
        widths = [fixed_width(col) for col in self.columns]
        row_bytes = 4 + sum(w for w in widths if w is not None)
        walked = [i for i, w in enumerate(widths) if w is None]
        parts = []
        for rows in picks:
            part = ColumnBatch(take_columns(self.columns, rows), len(rows))
            part._nbytes = row_bytes * len(rows) + sum(
                column_bytes(part.columns[i]) for i in walked
            )
            parts.append(part)
        return parts

    def select(self, picks: Sequence[int]) -> "ColumnBatch":
        """The live rows at positions ``picks`` (indices into the live
        rows, in any order) — a narrower selection, no column copies."""
        sel = self.sel
        return ColumnBatch(
            self.columns,
            self.nrows,
            list(picks) if sel is None else [sel[i] for i in picks],
        )

    def nbytes(self) -> int:
        """``sum(RowSizer()(row) for row in self.to_rows())``, sized
        column-wise and once: the motion and spill charges' byte count."""
        size = self._nbytes
        if size is None:
            dense = self.dense()
            size = 4 * dense.nrows + sum(map(column_bytes, dense.columns))
            self._nbytes = size
        return size

    def to_rows(self) -> Iterator[tuple]:
        """Yield the live rows as tuples of Python values.

        This is *the* batch→row boundary: each column is materialized
        once per batch (``tolist``/``gather``, both cached on typed
        vectors), never value-by-value, and dictionary columns hand out
        their shared decoded ``str`` objects.
        """
        if not self.columns:
            for _ in range(self.count):
                yield ()
            return
        sel = self.sel
        if sel is None:
            plain = [as_list(col) for col in self.columns]
        else:
            plain = [gather(col, sel) for col in self.columns]
        yield from zip(*plain)
