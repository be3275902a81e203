"""Swimming-lane concurrent inserts (paper Section 5.4).

Different concurrent writers to the same table append to *different*
segment files — like swimmers in separate lanes they never interfere, so
no user-data locking or logging is needed. A segfile freed by a committed
or aborted transaction is reused by the next writer (so the number of
small files stays bounded).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple


class SegfileAllocator:
    """Hands out per-table segment-file ids, one lane per concurrent writer."""

    def __init__(self) -> None:
        # table -> segfile_id -> xid using it (None when free)
        self._lanes: Dict[str, Dict[int, Optional[int]]] = defaultdict(dict)

    def acquire(self, table: str, xid: int) -> int:
        """Reserve the lowest free lane of ``table`` for ``xid``.

        A transaction that already holds a lane keeps getting the same one
        (all of its inserts to the table go to one file).
        """
        table = table.lower()
        lanes = self._lanes[table]
        for segfile_id, owner in sorted(lanes.items()):
            if owner == xid:
                return segfile_id
        for segfile_id, owner in sorted(lanes.items()):
            if owner is None:
                lanes[segfile_id] = xid
                return segfile_id
        segfile_id = max(lanes) + 1 if lanes else 0
        lanes[segfile_id] = xid
        return segfile_id

    def release(self, xid: int) -> None:
        """Free every lane held by ``xid`` (commit or abort)."""
        for lanes in self._lanes.values():
            for segfile_id, owner in lanes.items():
                if owner == xid:
                    lanes[segfile_id] = None

    def holder(self, table: str, segfile_id: int) -> Optional[int]:
        """The xid holding lane ``segfile_id`` of ``table``; None if free."""
        return self._lanes.get(table.lower(), {}).get(segfile_id)

    def drop_table(self, table: str) -> None:
        self._lanes.pop(table.lower(), None)
