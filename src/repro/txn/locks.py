"""Table-level locking with deadlock detection (paper Section 5.2).

DML takes weak locks (ACCESS_SHARE for reads, ROW_EXCLUSIVE for inserts)
and DDL takes ACCESS_EXCLUSIVE, which conflicts with both. ANALYZE takes
SHARE_UPDATE_EXCLUSIVE, which conflicts only with itself and
ACCESS_EXCLUSIVE, so one table's statistics have one writer. Statements ask
with ``wait=False``: a conflict fails the statement with LockTimeout. A
queued request keeps a wait-for graph, checked on every blocked request;
the requester that would close a cycle is aborted (HAWQ runs its checker
periodically — on a discrete simulation, checking at wait time is
equivalent and deterministic).
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import DeadlockDetected, LockTimeout


class LockMode(enum.IntEnum):
    """Subset of PostgreSQL lock modes that HAWQ uses for DDL/DML."""

    ACCESS_SHARE = 1
    ROW_EXCLUSIVE = 2
    #: ANALYZE's: one at a time per table, beside readers and inserters.
    SHARE_UPDATE_EXCLUSIVE = 3
    ACCESS_EXCLUSIVE = 4


#: (held, requested) pairs that conflict.
_CONFLICTS: Set[Tuple[LockMode, LockMode]] = set()


def _conflict(a: LockMode, b: LockMode) -> None:
    _CONFLICTS.add((a, b))
    _CONFLICTS.add((b, a))


_conflict(LockMode.ACCESS_EXCLUSIVE, LockMode.ACCESS_SHARE)
_conflict(LockMode.ACCESS_EXCLUSIVE, LockMode.ROW_EXCLUSIVE)
_conflict(LockMode.ACCESS_EXCLUSIVE, LockMode.SHARE_UPDATE_EXCLUSIVE)
_conflict(LockMode.ACCESS_EXCLUSIVE, LockMode.ACCESS_EXCLUSIVE)
_conflict(LockMode.SHARE_UPDATE_EXCLUSIVE, LockMode.SHARE_UPDATE_EXCLUSIVE)


def modes_conflict(held: LockMode, requested: LockMode) -> bool:
    return (held, requested) in _CONFLICTS


@dataclass
class _PendingRequest:
    xid: int
    key: str
    mode: LockMode


class LockManager:
    """Grants, queues and deadlock-checks lock requests."""

    def __init__(self) -> None:
        # key -> list of (xid, mode) currently granted
        self._granted: Dict[str, List[Tuple[int, LockMode]]] = defaultdict(list)
        self._waiting: List[_PendingRequest] = []

    # ------------------------------------------------------------ public api
    def acquire(self, xid: int, key: str, mode: LockMode, wait: bool = True) -> bool:
        """Try to take a lock.

        Returns True if granted. If blocked and ``wait`` is True the
        request is queued and False is returned — unless queueing would
        create a deadlock cycle, in which case :class:`DeadlockDetected`
        is raised for the requester. If blocked with ``wait=False``,
        :class:`LockTimeout` is raised.
        """
        if self._grantable(xid, key, mode):
            self._grant(xid, key, mode)
            return True
        if not wait:
            raise LockTimeout(f"xid {xid} could not lock {key!r} ({mode.name})")
        request = _PendingRequest(xid, key, mode)
        self._waiting.append(request)
        if self._creates_cycle(xid):
            self._waiting.remove(request)
            raise DeadlockDetected(
                f"xid {xid} waiting for {key!r} would deadlock"
            )
        return False

    def release_all(self, xid: int) -> List[Tuple[int, str, LockMode]]:
        """Drop every lock held by ``xid``; grant what became unblocked.

        Returns the requests granted as a result, so callers (the engine)
        can resume blocked sessions.
        """
        for key in list(self._granted):
            self._granted[key] = [(x, m) for x, m in self._granted[key] if x != xid]
            if not self._granted[key]:
                del self._granted[key]
        self._waiting = [r for r in self._waiting if r.xid != xid]
        return self._grant_waiters()

    def holders(self, key: str) -> List[Tuple[int, LockMode]]:
        return list(self._granted.get(key, []))

    # ------------------------------------------------------------- internals
    def _grantable(self, xid: int, key: str, mode: LockMode) -> bool:
        for holder_xid, held_mode in self._granted.get(key, []):
            if holder_xid != xid and modes_conflict(held_mode, mode):
                return False
        return True

    def _grant(self, xid: int, key: str, mode: LockMode) -> None:
        self._granted[key].append((xid, mode))

    def _grant_waiters(self) -> List[Tuple[int, str, LockMode]]:
        granted = []
        still_waiting = []
        for request in self._waiting:
            if self._grantable(request.xid, request.key, request.mode):
                self._grant(request.xid, request.key, request.mode)
                granted.append((request.xid, request.key, request.mode))
            else:
                still_waiting.append(request)
        self._waiting = still_waiting
        return granted

    def _creates_cycle(self, start_xid: int) -> bool:
        """DFS over the wait-for graph looking for a cycle through start."""
        edges: Dict[int, Set[int]] = defaultdict(set)
        for request in self._waiting:
            for holder_xid, held_mode in self._granted.get(request.key, []):
                if holder_xid != request.xid and modes_conflict(
                    held_mode, request.mode
                ):
                    edges[request.xid].add(holder_xid)
        seen: Set[int] = set()
        stack = [start_xid]
        first = True
        while stack:
            node = stack.pop()
            if node == start_xid and not first:
                return True
            if node in seen:
                continue
            seen.add(node)
            first = False
            stack.extend(edges.get(node, ()))
        return False
