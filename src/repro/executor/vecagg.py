"""Columnar hash aggregation on factorized group codes.

:class:`GroupTable` is the batch executor's hash-aggregate state. Each
input batch is *factorized* — every row's group key (one value, or a
tuple over several key columns) is mapped to a dense integer code in
first-appearance order by one C-level ``map`` over a self-numbering
dict — and every aggregate then folds its argument column into
per-group accumulator arrays indexed by that code. There is no per-row
``accumulate`` call and no per-group state object until a ``partial``
phase has to ship :class:`~repro.executor.aggregates.AggState` values
across a motion.

The fold is *exact*, not approximate — the row/batch differential
contract demands identical results:

* Groups come out in code order, which is the order the row executor's
  insertion-ordered dict would list them in.
* The generic folds add each group's values left to right, exactly as
  ``accumulate`` would.
* A typed NumPy argument column is folded with ``np.bincount``, which
  accumulates weights in array-index order, so per-group float sums add
  values in row order — and each group's *running total from earlier
  batches is prepended as its first weight*, reproducing
  ``((total + v0) + v1)`` rather than the differently-rounded
  ``total + (v0 + v1)``.
* Integer sums ride float64 only under the proof obligation
  ``M * S < 2**53`` (``M`` = max |addend| including prior totals, ``S``
  = worst-case addend count), under which every partial sum is exactly
  representable; otherwise that column takes the generic fold.
* min/max and DISTINCT always use the generic fold (NaN and ordering
  semantics are not worth vectorizing bit-compatibly).

Which fold runs is decided by what the batch holds (a typed NumPy
vector or a plain list), never by a size or a setting.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import compress, count, islice, repeat
from operator import is_not
from typing import List, Sequence

from repro.columnar import as_list
from repro.columnar.vector import (
    ConstVector,
    DictVector,
    FloatVector,
    IntVector,
    Vector,
    numpy_module,
)
from repro.errors import ExecutorError
from repro.executor.aggregates import (
    AvgState,
    CountState,
    MinMaxState,
    SumState,
)
from repro.executor.expr import column_bytes

#: Addend-count × magnitude bound under which float64 int sums are exact.
_EXACT_INT = 2**53


class _Codes:
    """One batch's group codes: a list, and on demand an index array."""

    __slots__ = ("codes", "_array")

    def __init__(self, codes: List[int]):
        self.codes = codes
        self._array = None

    def array(self, np):
        if self._array is None:
            self._array = np.fromiter(
                self.codes, dtype=np.intp, count=len(self.codes)
            )
        return self._array


def _valid(col):
    """Bool array selecting non-NULL rows, or None when all rows are."""
    mask = col.mask
    return ~mask if mask is not None and mask.any() else None


def _non_null(codes: Sequence[int], values: Sequence[object]):
    """(codes, values) of the rows whose value is not NULL."""
    if None not in values:
        return codes, values
    keep = list(map(is_not, values, repeat(None)))
    return list(compress(codes, keep)), list(compress(values, keep))


class _Count:
    """count(*) / count(x)."""

    __slots__ = ("star", "counts")

    def __init__(self, star: bool):
        self.star = star
        self.counts: List[int] = []

    def grow(self, k: int) -> None:
        self.counts.extend([0] * (k - len(self.counts)))

    def add(self, codes: _Codes, col, n: int) -> None:
        picked = codes.codes
        if self.star or (
            isinstance(col, Vector)
            and not isinstance(col, DictVector)
            and col.mask is None
        ):
            pass  # count(*), or a typed NULL-free column: every row counts
        elif isinstance(col, ConstVector):
            if col.value is None:
                return
        else:
            picked, _ = _non_null(picked, as_list(col))
        self.add_values(picked, None)

    def add_values(self, codes: Sequence[int], values) -> None:
        counts = self.counts
        if len(counts) == 1:  # one group: nothing to tally per code
            counts[0] += len(codes)
            return
        for code, m in Counter(codes).items():
            counts[code] += m

    def merge(self, codes: Sequence[int], states: Sequence[CountState]) -> None:
        counts = self.counts
        for code, state in zip(codes, states):
            counts[code] += state.count

    def states(self) -> list:
        out = []
        for c in self.counts:
            state = CountState(self.star)
            state.count = c
            out.append(state)
        return out

    def results(self) -> list:
        return self.counts


class _Sum:
    """sum(x) — and the total half of avg(x)."""

    __slots__ = ("totals",)

    #: A group's total before its first non-NULL value.
    EMPTY: object = None
    #: Totals of int columns are Python ints (arbitrary precision), so a
    #: float64 ``bincount`` needs the exactness guard.
    INT_TOTALS = True

    def __init__(self) -> None:
        self.totals: list = []

    def grow(self, k: int) -> None:
        self.totals.extend([self.EMPTY] * (k - len(self.totals)))

    def add(self, codes: _Codes, col, n: int) -> None:
        if isinstance(col, (IntVector, FloatVector)):
            np = numpy_module()
            if self._add_typed(np, codes.array(np), col):
                return
        self.add_values(*_non_null(codes.codes, as_list(col)))

    def add_values(self, codes: Sequence[int], values: Sequence[object]) -> None:
        totals = self.totals
        for code, value in zip(codes, values):
            total = totals[code]
            totals[code] = value if total is None else total + value

    def _add_typed(self, np, gids, col) -> bool:
        """``bincount`` fold of a typed vector; False when an int sum
        could leave float64's exact range (the caller folds generically)."""
        valid = _valid(col)
        data = col.data
        if valid is not None:
            data = data[valid]
            gids = gids[valid]
        if not len(data):
            return True
        totals = self.totals
        k = len(totals)
        touched = np.flatnonzero(np.bincount(gids, minlength=k)).tolist()
        prior = [(g, totals[g]) for g in touched if totals[g] is not None]
        to_int = self.INT_TOTALS and isinstance(col, IntVector)
        if to_int:
            magnitude = max(abs(int(data.max())), abs(int(data.min())))
            for _g, total in prior:
                magnitude = max(magnitude, abs(total))
            if magnitude * (len(data) + 1) >= _EXACT_INT:
                return False
        weights = data.astype(np.float64, copy=False)
        if prior:
            # Prepend each group's running total as its first addend.
            gids = np.concatenate(
                [np.asarray([g for g, _t in prior], dtype=np.intp), gids]
            )
            weights = np.concatenate(
                [np.asarray([float(t) for _g, t in prior]), weights]
            )
        sums = np.bincount(gids, weights=weights, minlength=k).tolist()
        for g in touched:
            totals[g] = int(sums[g]) if to_int else sums[g]
        return True

    def merge(self, codes: Sequence[int], states: Sequence[SumState]) -> None:
        self.add_values(*_non_null(codes, [s.total for s in states]))

    def states(self) -> list:
        out = []
        for total in self.totals:
            state = SumState()
            state.total = total
            out.append(state)
        return out

    def results(self) -> list:
        return self.totals


class _Avg(_Sum):
    """avg(x): a float running total (from 0.0) and a non-NULL count."""

    __slots__ = ("counter",)

    EMPTY = 0.0
    #: ``total += int`` converts each int to float64 first, which is
    #: what ``astype(float64)`` does to the whole column: no guard.
    INT_TOTALS = False

    def __init__(self) -> None:
        super().__init__()
        self.counter = _Count(star=False)

    def grow(self, k: int) -> None:
        super().grow(k)
        self.counter.grow(k)

    def add(self, codes: _Codes, col, n: int) -> None:
        super().add(codes, col, n)
        self.counter.add(codes, col, n)

    def add_values(self, codes: Sequence[int], values: Sequence[object]) -> None:
        totals = self.totals
        for code, value in zip(codes, values):
            totals[code] += value

    def merge(self, codes: Sequence[int], states: Sequence[AvgState]) -> None:
        self.add_values(codes, [s.total for s in states])
        self.counter.merge(codes, states)

    def states(self) -> list:
        out = []
        for total, c in zip(self.totals, self.counter.counts):
            state = AvgState()
            state.total = total
            state.count = c
            out.append(state)
        return out

    def results(self) -> list:
        return [
            None if c == 0 else total / c
            for total, c in zip(self.totals, self.counter.counts)
        ]


class _MinMax:
    __slots__ = ("is_min", "values")

    def __init__(self, is_min: bool):
        self.is_min = is_min
        self.values: list = []

    def grow(self, k: int) -> None:
        self.values.extend([None] * (k - len(self.values)))

    def add(self, codes: _Codes, col, n: int) -> None:
        self.add_values(*_non_null(codes.codes, as_list(col)))

    def add_values(self, codes: Sequence[int], values: Sequence[object]) -> None:
        best = self.values
        if self.is_min:
            for code, value in zip(codes, values):
                current = best[code]
                if current is None or value < current:
                    best[code] = value
        else:
            for code, value in zip(codes, values):
                current = best[code]
                if current is None or value > current:
                    best[code] = value

    def merge(self, codes: Sequence[int], states: Sequence[MinMaxState]) -> None:
        self.add_values(*_non_null(codes, [s.value for s in states]))

    def states(self) -> list:
        out = []
        for value in self.values:
            state = MinMaxState(self.is_min)
            state.value = value
            out.append(state)
        return out

    def results(self) -> list:
        return self.values


class _Distinct:
    """DISTINCT wrapper: the inner aggregate sees each (group, value)
    pair once. Single-phase only, like ``DistinctState``."""

    __slots__ = ("inner", "seen")

    def __init__(self, inner):
        self.inner = inner
        self.seen: set = set()

    def grow(self, k: int) -> None:
        self.inner.grow(k)

    def add(self, codes: _Codes, col, n: int) -> None:
        seen = self.seen
        fresh = [
            pair
            for pair in dict.fromkeys(zip(codes.codes, as_list(col)))
            if pair[1] is not None and pair not in seen
        ]
        if fresh:
            seen.update(fresh)
            self.inner.add_values(*zip(*fresh))

    def merge(self, codes, states) -> None:
        raise ExecutorError("DISTINCT aggregates cannot be merged across phases")

    def states(self) -> list:
        raise ExecutorError("DISTINCT aggregates cannot be merged across phases")

    def results(self) -> list:
        return self.inner.results()


def _accumulator(agg):
    func = agg.func
    if func == "count":
        acc = _Count(star=agg.arg is None)
    elif func == "sum":
        acc = _Sum()
    elif func == "avg":
        acc = _Avg()
    elif func in ("min", "max"):
        acc = _MinMax(is_min=func == "min")
    else:  # pragma: no cover - analyzer rejects unknown aggregates
        raise ExecutorError(f"unknown aggregate {func!r}")
    return _Distinct(acc) if agg.distinct else acc


class GroupTable:
    """Group key → dense code, plus one accumulator per aggregate."""

    def __init__(self, aggs: Sequence, nkeys: int):
        self.nkeys = nkeys
        # A key's code is its rank by first appearance: a missing key
        # takes the next integer, inside dict lookup itself.
        self._codes: dict = defaultdict(count().__next__)
        self._accs = [_accumulator(a) for a in aggs]
        #: ``sizer(key) + 16 * naggs`` summed over the groups, the
        #: spill charge's working-set estimate.
        self.group_bytes = 0

    def __len__(self) -> int:
        return len(self._codes)

    def _factorize(self, key_cols: Sequence[object], n: int) -> _Codes:
        index = self._codes
        known = len(index)
        if self.nkeys == 0:
            codes = [index[()]] * n
        elif self.nkeys == 1:
            codes = list(map(index.__getitem__, as_list(key_cols[0])))
        else:
            codes = list(map(index.__getitem__, zip(*map(as_list, key_cols))))
        fresh = len(index) - known
        if fresh:
            self.group_bytes += fresh * (4 + 16 * len(self._accs))
            new_keys = islice(index, known, None)
            if self.nkeys == 1:
                self.group_bytes += column_bytes(list(new_keys))
            elif self.nkeys:
                self.group_bytes += sum(map(column_bytes, zip(*new_keys)))
            for acc in self._accs:
                acc.grow(len(index))
        return _Codes(codes)

    def add(self, key_cols: Sequence[object], arg_cols: Sequence[object],
            n: int) -> None:
        """Fold ``n`` input rows: key columns and, per aggregate, its
        argument column (None for ``count(*)``)."""
        if not n:
            return
        codes = self._factorize(key_cols, n)
        for acc, col in zip(self._accs, arg_cols):
            acc.add(codes, col, n)

    def merge(self, key_cols: Sequence[object], state_cols: Sequence[object],
              n: int) -> None:
        """Fold ``n`` rows of partial-phase output: key columns and, per
        aggregate, a column of its transition states."""
        if not n:
            return
        codes = self._factorize(key_cols, n).codes
        for acc, states in zip(self._accs, state_cols):
            acc.merge(codes, as_list(states))

    def ensure_global_group(self) -> None:
        """An aggregate without GROUP BY over no rows still has its one
        group (unsized: the spill charge has already been made)."""
        if not self._codes:
            self._codes[()]
            for acc in self._accs:
                acc.grow(1)

    def key_columns(self) -> List[list]:
        if self.nkeys == 1:
            return [list(self._codes)]
        if not self._codes:
            return [[] for _ in range(self.nkeys)]
        return [list(col) for col in zip(*self._codes)]

    def state_columns(self) -> List[list]:
        return [acc.states() for acc in self._accs]

    def result_columns(self) -> List[list]:
        return [acc.results() for acc in self._accs]
