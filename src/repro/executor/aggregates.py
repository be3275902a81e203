"""Aggregate transition states for one- and two-phase aggregation.

Each aggregate has a *state*; ``accumulate`` folds input values in,
``merge`` combines partial states from different QEs (the two-phase
plan's final side), and ``finalize`` produces the SQL value. NULLs are
skipped by every aggregate except ``count(*)``, per the standard.

The ``count``/``total``/``value`` slots of Count/Sum/Avg/MinMaxState
are the contract with the vectorized executor:
``repro.executor.vecagg.GroupTable`` keeps its own per-group
accumulator arrays, and builds these objects only for a ``partial``
phase's output — ``state_columns`` writes the slots, the ``final``
phase's ``merge`` reads them — so they must keep their meaning.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.errors import ExecutorError
from repro.planner.exprs import BAgg


class AggState:
    """Base class; one instance per (group, aggregate)."""

    def accumulate(self, value: object) -> None:
        raise NotImplementedError

    def merge(self, other: "AggState") -> None:
        raise NotImplementedError

    def finalize(self) -> object:
        raise NotImplementedError


class CountState(AggState):
    __slots__ = ("count", "count_star")

    def __init__(self, count_star: bool):
        self.count = 0
        self.count_star = count_star

    def accumulate(self, value: object) -> None:
        if self.count_star or value is not None:
            self.count += 1

    def merge(self, other: "CountState") -> None:
        self.count += other.count

    def finalize(self) -> int:
        return self.count


class SumState(AggState):
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total: Optional[object] = None

    def accumulate(self, value: object) -> None:
        if value is None:
            return
        self.total = value if self.total is None else self.total + value

    def merge(self, other: "SumState") -> None:
        if other.total is not None:
            self.accumulate(other.total)

    def finalize(self) -> object:
        return self.total


class AvgState(AggState):
    __slots__ = ("total", "count")

    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0

    def accumulate(self, value: object) -> None:
        if value is None:
            return
        self.total += value
        self.count += 1

    def merge(self, other: "AvgState") -> None:
        self.total += other.total
        self.count += other.count

    def finalize(self) -> Optional[float]:
        if self.count == 0:
            return None
        return self.total / self.count


class MinMaxState(AggState):
    __slots__ = ("value", "is_min")

    def __init__(self, is_min: bool):
        self.value: Optional[object] = None
        self.is_min = is_min

    def accumulate(self, value: object) -> None:
        if value is None:
            return
        if self.value is None:
            self.value = value
        elif self.is_min:
            if value < self.value:
                self.value = value
        elif value > self.value:
            self.value = value

    def merge(self, other: "MinMaxState") -> None:
        self.accumulate(other.value)

    def finalize(self) -> object:
        return self.value


class DistinctState(AggState):
    """Wrapper deduplicating inputs before the inner aggregate.

    Only used in single-phase plans (the planner never runs DISTINCT
    aggregates in two phases).
    """

    __slots__ = ("seen", "inner")

    def __init__(self, inner: AggState):
        self.seen: Set[object] = set()
        self.inner = inner

    def accumulate(self, value: object) -> None:
        if value is None or value in self.seen:
            return
        self.seen.add(value)
        self.inner.accumulate(value)

    def merge(self, other: "DistinctState") -> None:
        raise ExecutorError("DISTINCT aggregates cannot be merged across phases")

    def finalize(self) -> object:
        return self.inner.finalize()


def make_state(agg: BAgg) -> AggState:
    """Create a fresh transition state for one aggregate definition."""
    func = agg.func
    if func == "count":
        state: AggState = CountState(count_star=agg.arg is None)
    elif func == "sum":
        state = SumState()
    elif func == "avg":
        state = AvgState()
    elif func == "min":
        state = MinMaxState(is_min=True)
    elif func == "max":
        state = MinMaxState(is_min=False)
    else:  # pragma: no cover - analyzer rejects unknown aggregates
        raise ExecutorError(f"unknown aggregate {func!r}")
    if agg.distinct:
        return DistinctState(state)
    return state
