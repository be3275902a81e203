"""Per-node counters, gauges and histograms on the simulated cluster.

A :class:`MetricsRegistry` is process-global per :class:`~repro.engine.
Engine`: instrumentation points across the runtime (RPC bus, exchange
fabric, segment workers, the write path) increment labeled metrics as a
side effect of execution. Metrics are *passive observers* — they never
charge the simulated clock (lint R6 enforces this for the whole ``obs``
package), so enabling or reading them cannot perturb any simulated
figure.

Per-query attribution works by diffing: the session takes the
registry's ``levels()`` before a statement and exposes ``since(levels)``
— what ``after.diff(before)`` of two snapshots would give — on
``QueryResult.metrics``. That is what lets the bench harness report a
cache hit *rate per query* even though the block decode cache itself
only keeps process-global counters.

Metric keys render Prometheus-style: ``name{label=value,...}`` with
labels sorted, so snapshots are deterministic and diff-able by string
key alone.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Tuple


def _key(name: str, labels: Dict[str, object]) -> str:
    if not labels:
        return name
    inner = ",".join([f"{k}={labels[k]}" for k in sorted(labels)])
    return f"{name}{{{inner}}}"


#: Scalar series a snapshot expands each Histogram into.
_HISTOGRAM_SUFFIXES = ("count", "total", "min", "max")


def _parse_series(key: str) -> Tuple[str, Optional[str], Optional[str]]:
    """Split a snapshot key into (name, labels, histogram-suffix).

    ``"h{queue=q1}.count"`` -> ``("h", "queue=q1", "count")``;
    ``"n{node=seg0}"`` -> ``("n", "node=seg0", None)``; ``"n"`` ->
    ``("n", None, None)``. A dot inside a label value never splits
    (the suffix must follow the closing brace or a brace-less name).
    """
    suffix = None
    if "." in key:
        head, _, tail = key.rpartition(".")
        if tail in _HISTOGRAM_SUFFIXES and (head.endswith("}") or "{" not in head):
            key, suffix = head, tail
    if key.endswith("}") and "{" in key:
        name, _, labels = key.partition("{")
        return name, labels[:-1], suffix
    return key, None, suffix


def _series_matches(key: str, name: str) -> bool:
    """True when snapshot ``key`` belongs to the queried series
    ``name`` (optionally suffix-qualified), any labels."""
    want_base, want_suffix = name, None
    if "." in name:
        head, _, tail = name.rpartition(".")
        if tail in _HISTOGRAM_SUFFIXES:
            want_base, want_suffix = head, tail
    base, _labels, suffix = _parse_series(key)
    return base == want_base and suffix == want_suffix


class Counter:
    """A monotonically increasing count (events, bytes, rows)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time level (queue depth, cache bytes resident)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A cheap summary histogram: count / total / min / max.

    Enough to answer "how many, how big, how skewed" without bucket
    bookkeeping; snapshots expand it into four scalar series.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value


class MetricsRegistry:
    """Labeled metric instruments, keyed by rendered name.

    A call finds a series it has seen before through ``(kind, name,
    labels in the order passed)`` without rendering the key; only the
    first call in each label order renders it. Label values that are
    not strings always go through the rendered key, because ``==`` can
    join values that render apart (``1``, ``1.0``, ``True``).
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}
        self._series: Dict[tuple, object] = {}

    def _get(self, kind, name: str, labels: Dict[str, object]):
        """The series a lookup in ``_series`` missed: found (or made)
        under its rendered key, and filed for the next lookup."""
        key = _key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = kind()
            self._metrics[key] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {key!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}"
            )
        if all(type(value) is str for value in labels.values()):
            self._series[(kind, name, *labels.items())] = metric
        return metric

    def counter(self, name: str, **labels: object) -> Counter:
        metric = self._series.get((Counter, name, *labels.items()))
        return metric if metric is not None else self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        metric = self._series.get((Gauge, name, *labels.items()))
        return metric if metric is not None else self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: object) -> Histogram:
        metric = self._series.get((Histogram, name, *labels.items()))
        return metric if metric is not None else self._get(Histogram, name, labels)

    def snapshot(self) -> "MetricsSnapshot":
        """A flat, immutable view: key -> scalar value."""
        data: Dict[str, float] = {}
        for key, metric in self._metrics.items():
            if type(metric) is Histogram:
                data.update(_histogram_series(key, _histogram_level(metric)))
            else:
                data[key] = metric.value
        return MetricsSnapshot(data)

    def levels(self) -> List[object]:
        """Every series' level in registration order, rendering no key:
        the before-image :meth:`since` diffs against."""
        return [
            _histogram_level(metric) if type(metric) is Histogram else metric.value
            for metric in self._metrics.values()
        ]

    def since(self, levels: List[object]) -> "MetricsSnapshot":
        """``snapshot().diff(before)``, where ``levels`` was taken when
        ``before`` would have been: the same keys, order and deltas,
        without copying the registry twice. A counter or gauge is
        compared with its level and gets an entry only if it moved.
        Series are never unregistered, so ``levels`` is a prefix of the
        registry."""
        out: Dict[str, float] = {}
        metrics = iter(self._metrics.items())
        # ``levels`` first: zip stops on it without taking a series.
        for before, (key, metric) in zip(levels, metrics):
            if type(metric) is Histogram:
                _diff_into(
                    out,
                    _histogram_series(key, _histogram_level(metric)),
                    _histogram_series(key, before),
                )
            else:
                delta = metric.value - before
                if delta != 0:
                    out[key] = delta
        for key, metric in metrics:  # registered since ``levels``
            if type(metric) is Histogram:
                _diff_into(out, _histogram_series(key, _histogram_level(metric)), {})
            elif metric.value != 0:
                out[key] = metric.value
        return MetricsSnapshot(out)


def _histogram_level(histogram: Histogram) -> tuple:
    return (histogram.count, histogram.total, histogram.min, histogram.max)


def _histogram_series(key: str, level: tuple) -> Dict[str, float]:
    """The scalar series a snapshot expands one histogram's level into
    (no min / max before its first observation)."""
    count, total, low, high = level
    series = {f"{key}.count": count, f"{key}.total": total}
    if low is not None:
        series[f"{key}.min"] = low
    if high is not None:
        series[f"{key}.max"] = high
    return series


def _diff_into(out: Dict[str, float], now: Dict[str, float],
               before: Dict[str, float]) -> None:
    """``now - before`` by key into ``out``, keeping only the series
    that changed (a key missing from ``before`` counts from 0)."""
    for key, value in now.items():
        delta = value - before.get(key, 0)
        if delta != 0:
            out[key] = delta


class MetricsSnapshot(Mapping):
    """Immutable flat metrics view; ``diff`` gives per-query deltas."""

    def __init__(self, data: Optional[Dict[str, float]] = None) -> None:
        self._data: Dict[str, float] = dict(data or {})

    # ----------------------------------------------------------- Mapping api
    def __getitem__(self, key: str) -> float:
        return self._data[key]

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._data))

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:
        return f"MetricsSnapshot({len(self._data)} series)"

    # ------------------------------------------------------------- analysis
    def diff(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """self - earlier, keeping only series that changed.

        Gauges and histogram min/max are levels, not rates — the delta
        of a level is still meaningful per query (how much it moved), so
        one subtraction rule covers every instrument.
        """
        out: Dict[str, float] = {}
        _diff_into(out, self._data, earlier._data)
        return MetricsSnapshot(out)

    def total(self, name: str) -> float:
        """Sum one series across all label combinations.

        ``name`` is either a bare metric (counters/gauges) or one
        histogram component qualified with its suffix — ``h.count``,
        ``h.total``, ``h.min``, ``h.max``. Histogram components never
        leak into a bare-name sum: ``total("h")`` of a histogram is 0,
        while ``total("h.count")`` is the observation count — so a
        mean is always ``total("h.total") / total("h.count")``.
        """
        out = 0.0
        for key, value in self._data.items():
            if _series_matches(key, name):
                out += value
        return out

    def by_label(self, name: str) -> Dict[str, float]:
        """``labels -> value`` for every series of one metric.

        The unlabeled series maps from ``""``. Histogram components
        use the same suffix qualification as :meth:`total`:
        ``by_label("h.count")`` gives per-label observation counts
        with the label string intact (no suffix mangling).
        """
        out: Dict[str, float] = {}
        for key, value in self._data.items():
            if _series_matches(key, name):
                _base, labels, _suffix = _parse_series(key)
                out[labels or ""] = value
        return out

    def items(self) -> Iterator[Tuple[str, float]]:  # type: ignore[override]
        return iter(sorted(self._data.items()))

    def unsorted_items(self) -> Iterator[Tuple[str, float]]:
        """The series in no set order, for a fold that does not need
        :meth:`items`' sort."""
        return iter(self._data.items())

    def as_dict(self) -> Dict[str, float]:
        return dict(sorted(self._data.items()))
