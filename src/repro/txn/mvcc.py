"""Transaction ids and snapshot visibility (PostgreSQL-style MVCC).

A row version carries ``xmin`` (creating transaction) and ``xmax``
(deleting transaction, if any). A :class:`Snapshot` decides which
versions a statement sees: versions created by transactions that
committed before the snapshot and not deleted by such a transaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Set


class XidManager:
    """Allocates transaction ids and tracks their fate."""

    def __init__(self) -> None:
        self._next_xid = 1
        self.active: Set[int] = set()
        self.committed: Set[int] = set()
        self.aborted: Set[int] = set()

    def begin(self) -> int:
        xid = self._next_xid
        self._next_xid += 1
        self.active.add(xid)
        return xid

    def commit(self, xid: int) -> None:
        self.active.discard(xid)
        self.committed.add(xid)

    def abort(self, xid: int) -> None:
        self.active.discard(xid)
        self.aborted.add(xid)

    def committed_since(self, snapshot: "Snapshot") -> bool:
        """Has a transaction committed whose effects ``snapshot`` cannot
        see (it was running, or not yet begun, when it was taken)?"""
        return not snapshot.active.isdisjoint(self.committed) or any(
            xid in self.committed for xid in range(snapshot.xmax, self._next_xid)
        )

    def snapshot(self, for_xid: int) -> "Snapshot":
        """Take a snapshot as of now, on behalf of transaction ``for_xid``."""
        return Snapshot(
            xid=for_xid,
            xmax=self._next_xid,
            active=frozenset(self.active - {for_xid}),
            committed=frozenset(self.committed),
        )


@dataclass(frozen=True)
class Snapshot:
    """A point-in-time visibility horizon.

    ``xid`` is the owning transaction: it always sees its own writes.
    A foreign transaction's effects are visible iff it committed before
    this snapshot was taken (committed and < xmax and not active).
    """

    xid: int
    xmax: int
    active: FrozenSet[int]
    committed: FrozenSet[int]

    def sees_xid(self, other_xid: int) -> bool:
        if other_xid == self.xid:
            return True
        if other_xid >= self.xmax or other_xid in self.active:
            return False
        return other_xid in self.committed

    def row_visible(self, xmin: int, xmax: Optional[int]) -> bool:
        """Is a row version with these stamps visible to this snapshot?"""
        if not self.sees_xid(xmin):
            return False
        if xmax is None:
            return True
        return not self.sees_xid(xmax)
