"""DetSan: a runtime cross-query isolation sanitizer.

The static analyzer (lint R7–R9) proves things about the *source*; this
module watches the *run*.  When enabled, the concurrent runtime's shared
structures — the event scheduler's slot bookkeeping, the resource-queue
manager's admission state, the engine-lifetime caches the workers lean
on — are replaced with guard proxies that shadow-track every mutation as
``(query_id, structure, op)``.

Rules enforced:

* Each ``(structure, key)`` entry is **owned** by the first query scope
  that writes it.  A mutation from a *different* query scope raises
  :class:`IsolationViolation` immediately — unless the structure's label
  appears in the shared-state registry
  (:mod:`repro.sanitize.registry`), which is the explicit, reasoned
  claim that cross-query sharing is sound there.
* Deleting an entry (``pop``/``del``/``clear``) releases ownership: the
  per-query lifecycle handing a slot back is not a race.
* Mutations outside any query scope (engine setup, teardown, healing)
  are counted but never owned — single-threaded housekeeping is not a
  cross-query hazard.

Everything is opt-in: with no :class:`DetSan` attached, the runtime
constructs plain dicts/lists and pays nothing.

Usage::

    ds = DetSan()
    ds.install_engine(engine)          # guard engine-lifetime caches
    try:
        runner = ConcurrentRunner(engine, streams, detsan=ds)
        result = runner.run()          # raises IsolationViolation on a race
    finally:
        ds.uninstall_engine(engine)
    print(ds.summary())

``python -m repro.sanitize --seeds 10 --streams 4`` runs the chaos
suite's concurrent workload under the sanitizer across seeded schedules.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.sanitize.registry import SHARED_STATE, runtime_labels

__all__ = [
    "DetSan",
    "IsolationViolation",
    "SHARED_STATE",
    "runtime_labels",
]


class IsolationViolation(ReproError):
    """A query mutated shared state owned by another query.

    Subclasses :class:`ReproError` (not ClusterError) on purpose: the
    chaos retry loop treats ClusterError as a recoverable fault, and a
    determinism bug must never be retried into silence."""

    def __init__(self, label: str, op: str, key, owner, writer):
        self.label = label
        self.op = op
        self.key = key
        self.owner = owner
        self.writer = writer
        super().__init__(
            f"cross-query mutation: query {writer!r} performed {op} on "
            f"{label}[{key!r}] owned by query {owner!r}; if this sharing "
            f"is intentional, register {label!r} in "
            "repro/sanitize/registry.py with a reason"
        )


class DetSan:
    """The shadow tracker guard proxies report into."""

    def __init__(self, registry: Optional[Dict[str, str]] = None):
        #: label -> reason; mutations on these labels are exempt.
        self.registry = dict(
            runtime_labels() if registry is None else registry
        )
        self._scopes: List[object] = []
        #: (label, key) -> owning query scope.
        self._owner: Dict[Tuple[str, object], object] = {}
        #: label -> mutation count (scoped or not).
        self.counts: Dict[str, int] = {}
        #: label -> count of mutations observed under some query scope.
        self.scoped_counts: Dict[str, int] = {}
        self.violations: List[IsolationViolation] = []
        self._installed: List[Tuple[object, str, object]] = []

    # --------------------------------------------------------------- scoping
    @property
    def current(self) -> Optional[object]:
        return self._scopes[-1] if self._scopes else None

    def scope(self, query: object) -> "_Scope":
        """Context manager: mutations inside belong to ``query``."""
        return _Scope(self, query)

    # -------------------------------------------------------------- tracking
    def note(self, label: str, op: str, key: object = None) -> None:
        """Record one mutation of ``label`` at entry ``key``."""
        self.counts[label] = self.counts.get(label, 0) + 1
        query = self.current
        if query is None:
            return
        self.scoped_counts[label] = self.scoped_counts.get(label, 0) + 1
        if label in self.registry:
            return
        try:
            hash(key)
        except TypeError:
            key = None
        entry = (label, key)
        owner = self._owner.get(entry)
        if owner is None:
            self._owner[entry] = query
        elif owner != query:
            violation = IsolationViolation(label, op, key, owner, query)
            self.violations.append(violation)
            raise violation

    def forget(self, label: str, key: object = None) -> None:
        """Entry removed: release ownership (per-query lifecycle)."""
        try:
            hash(key)
        except TypeError:
            key = None
        self._owner.pop((label, key), None)

    def reset(self, label: str) -> None:
        """Structure cleared: release every entry of ``label``."""
        for entry in [e for e in self._owner if e[0] == label]:
            del self._owner[entry]

    # ---------------------------------------------------------------- guards
    def guard_dict(self, mapping: dict, label: str) -> dict:
        cls = (
            GuardedOrderedDict
            if isinstance(mapping, OrderedDict)
            else GuardedDict
        )
        guarded = cls(mapping)
        guarded._ds = self
        guarded._label = label
        return guarded

    def guard_list(self, items: list, label: str) -> list:
        guarded = GuardedList(items)
        guarded._ds = self
        guarded._label = label
        return guarded

    def guard_set(self, items: set, label: str) -> set:
        guarded = GuardedSet(items)
        guarded._ds = self
        guarded._label = label
        return guarded

    # --------------------------------------------------- engine installation
    def install_engine(self, engine) -> None:
        """Guard the engine-lifetime shared caches (worker-side state).

        Covers the block-decode cache every worker reads through and
        the module-level LIKE cache — the structures serial phase-A
        execution mutates across queries."""
        from repro.executor import expr as expr_module

        engine.detsan = self
        cache = getattr(engine, "block_cache", None)
        if cache is not None and not isinstance(cache._entries, GuardedOrderedDict):
            self._swap(cache, "_entries", "BlockDecodeCache._entries")
        if not isinstance(expr_module._LIKE_CACHE, GuardedDict):
            self._swap(expr_module, "_LIKE_CACHE", "_LIKE_CACHE")

    def uninstall_engine(self, engine) -> None:
        """Restore every structure :meth:`install_engine` replaced."""
        engine.detsan = None
        for holder, attr, original in reversed(self._installed):
            guarded = getattr(holder, attr)
            original.clear()
            original.update(guarded)
            setattr(holder, attr, original)
        self._installed = []

    def _swap(self, holder, attr: str, label: str) -> None:
        original = getattr(holder, attr)
        setattr(holder, attr, self.guard_dict(original, label))
        self._installed.append((holder, attr, original))

    # --------------------------------------------------------------- reports
    @property
    def total_mutations(self) -> int:
        return sum(self.counts.values())

    def summary(self) -> dict:
        return {
            "structures": {
                label: self.counts[label] for label in sorted(self.counts)
            },
            "total_mutations": self.total_mutations,
            "scoped_mutations": sum(self.scoped_counts.values()),
            "tracked_entries": len(self._owner),
            "violations": [str(v) for v in self.violations],
        }


class _Scope:
    def __init__(self, ds: DetSan, query: object):
        self._ds = ds
        self._query = query

    def __enter__(self) -> "_Scope":
        self._ds._scopes.append(self._query)
        return self

    def __exit__(self, *exc) -> None:
        self._ds._scopes.pop()


# ------------------------------------------------------------------- proxies
class _Guarded:
    """Shared plumbing: guards report to their DetSan, if attached."""

    _ds: Optional[DetSan] = None
    _label: str = "?"

    def _note(self, op: str, key: object = None) -> None:
        if self._ds is not None:
            self._ds.note(self._label, op, key)

    def _forget(self, key: object = None) -> None:
        if self._ds is not None:
            self._ds.forget(self._label, key)

    def _reset(self) -> None:
        if self._ds is not None:
            self._ds.reset(self._label)


class _DictGuards(_Guarded):
    def __setitem__(self, key, value):
        self._note("setitem", key)
        super().__setitem__(key, value)

    def __delitem__(self, key):
        self._note("delitem", key)
        super().__delitem__(key)
        self._forget(key)

    def pop(self, key, *default):
        self._note("pop", key)
        result = super().pop(key, *default)
        self._forget(key)
        return result

    def popitem(self, *args):
        self._note("popitem")
        key, value = super().popitem(*args)
        self._forget(key)
        return key, value

    def setdefault(self, key, default=None):
        if key not in self:
            self._note("setdefault", key)
        return super().setdefault(key, default)

    def update(self, *args, **kwargs):
        incoming = dict(*args, **kwargs)
        for key in incoming:
            self._note("update", key)
        super().update(incoming)

    def clear(self):
        self._note("clear")
        super().clear()
        self._reset()


class GuardedDict(_DictGuards, dict):
    """A dict that reports every mutation to a :class:`DetSan`."""


class GuardedOrderedDict(_DictGuards, OrderedDict):
    """OrderedDict flavor (the block cache's LRU map)."""


class GuardedList(_Guarded, list):
    """A list that reports every mutation (whole-structure ownership)."""

    def append(self, value):
        self._note("append")
        super().append(value)

    def extend(self, values):
        self._note("extend")
        super().extend(values)

    def insert(self, index, value):
        self._note("insert")
        super().insert(index, value)

    def remove(self, value):
        self._note("remove")
        super().remove(value)

    def pop(self, *args):
        self._note("pop")
        result = super().pop(*args)
        if not self:
            self._reset()
        return result

    def clear(self):
        self._note("clear")
        super().clear()
        self._reset()

    def sort(self, **kwargs):
        self._note("sort")
        super().sort(**kwargs)

    def reverse(self):
        self._note("reverse")
        super().reverse()

    def __setitem__(self, index, value):
        self._note("setitem")
        super().__setitem__(index, value)

    def __delitem__(self, index):
        self._note("delitem")
        super().__delitem__(index)
        if not self:
            self._reset()

    def __iadd__(self, values):
        self._note("iadd")
        return super().__iadd__(values)


class GuardedSet(_Guarded, set):
    """A set that reports every mutation (per-element ownership)."""

    def add(self, value):
        self._note("add", value)
        super().add(value)

    def discard(self, value):
        self._note("discard", value)
        super().discard(value)
        self._forget(value)

    def remove(self, value):
        self._note("remove", value)
        super().remove(value)
        self._forget(value)

    def pop(self):
        self._note("pop")
        value = super().pop()
        self._forget(value)
        return value

    def clear(self):
        self._note("clear")
        super().clear()
        self._reset()

    def update(self, *others):
        for other in others:
            for value in other:
                self._note("update", value)
        super().update(*others)

    def __ior__(self, other):
        for value in other:
            self._note("ior", value)
        return super().__ior__(other)
