"""Warm standby master kept current by transaction-log shipping.

Only the catalog needs replication (the master holds no user data), so
the standby subscribes to the WAL and replays every catalog change with
the original transaction stamps. ``promote()`` turns it into a primary:
its replayed catalog plus xid fate table can serve queries immediately.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.catalog.service import CatalogService
from repro.errors import ClusterError
from repro.txn.mvcc import Snapshot, XidManager
from repro.txn.wal import WalRecord, WriteAheadLog


class StandbyMaster:
    """Replays the primary's WAL into a shadow catalog."""

    def __init__(self, wal: WriteAheadLog, synchronous: bool = True):
        self.xids = XidManager()
        self.catalog = CatalogService(aborted=self.xids.aborted)
        self.applied_lsn = 0
        self.promoted = False
        self._wal = wal
        if synchronous:
            wal.subscribe(self.apply)

    # -------------------------------------------------------------- shipping
    def catch_up(self) -> int:
        """Pull-mode log shipping: replay records we have not seen."""
        records = self._wal.records_from(self.applied_lsn)
        for record in records:
            self.apply(record)
        return len(records)

    def apply(self, record: WalRecord) -> None:
        if record.lsn <= self.applied_lsn:
            return  # duplicate replay (subscribe + catch_up overlap)
        if record.lsn > self.applied_lsn + 1:
            # Out-of-order shipping left a gap: pull the missing records
            # from the log in order (this record rides along), keeping
            # ``applied_lsn`` monotonic and the replay exactly-once.
            self.catch_up()
            return
        self.applied_lsn = record.lsn
        if record.kind == "begin":
            self._ensure_active(record.xid)
        elif record.kind == "commit":
            self._ensure_active(record.xid)
            self.xids.commit(record.xid)
        elif record.kind == "abort":
            self._ensure_active(record.xid)
            self.xids.abort(record.xid)
        elif record.kind == "change":
            self._apply_change(record)

    def _ensure_active(self, xid: int) -> None:
        if (
            xid not in self.xids.active
            and xid not in self.xids.committed
            and xid not in self.xids.aborted
        ):
            # Keep the standby's xid counter ahead of anything replayed.
            while self.xids._next_xid <= xid:
                self.xids._next_xid += 1
            self.xids.active.add(xid)

    def _apply_change(self, record: WalRecord) -> None:
        self._ensure_active(record.xid)
        table = self.catalog.table(record.table)
        if record.op == "insert":
            # Insert raw (bypassing the change hook: we are the replica).
            # The replica's version *is* the primary's immutable
            # CatalogRow; only the xmin/xmax stamps are its own.
            table.append_version(record.row, record.xid)
        elif record.op == "delete":
            # A live log carries the very object the insert record did, so
            # the comparison settles on identity, value by value.
            table.expire_version(record.row, record.xid)
        else:  # pragma: no cover - update is logged as delete+insert
            raise ClusterError(f"unknown WAL change op {record.op!r}")

    # ------------------------------------------------------------- promotion
    def promote(self) -> CatalogService:
        """Fail over: the standby becomes the authoritative catalog.

        The standby stops consuming the log it is about to start
        *writing* — otherwise every post-promotion change would be
        replayed onto itself.
        """
        self.catch_up()
        self._wal.unsubscribe(self.apply)
        # Transactions still in flight died with the primary: no commit
        # record can ever arrive for them, so their xids abort and their
        # catalog changes stay invisible (restart over recover, §2.6).
        for xid in sorted(self.xids.active):
            self.xids.abort(xid)
        self.promoted = True
        return self.catalog

    def snapshot(self) -> Snapshot:
        """A read snapshot over the replayed catalog."""
        probe = self.xids._next_xid
        return Snapshot(
            xid=probe,
            xmax=probe,
            active=frozenset(self.xids.active),
            committed=frozenset(self.xids.committed),
        )
