"""The transaction manager: isolation, commit/abort, truncate-on-abort.

Transactions are only noticeable on the master (paper Section 5): there
is no two-phase commit; segments are stateless and catalog changes made
during execution are piggybacked back to the master, which commits them
in the UCS. Aborting a transaction truncates any user-data bytes it
appended beyond the previously committed logical length and deletes the
files it created; the files a committed one retired are deleted once
every transaction live at its commit has ended.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.errors import TransactionAborted, TransactionError
from repro.txn.locks import LockManager, LockMode
from repro.txn.mvcc import Snapshot, XidManager
from repro.txn.swimlane import SegfileAllocator
from repro.txn.wal import WriteAheadLog


class IsolationLevel(enum.Enum):
    """The two levels HAWQ implements; the SQL-standard four map onto them
    (read uncommitted -> read committed, repeatable read -> serializable)."""

    READ_COMMITTED = "read committed"
    SERIALIZABLE = "serializable"

    @classmethod
    def parse(cls, text: str) -> "IsolationLevel":
        lowered = " ".join(text.lower().split())
        if lowered in ("read committed", "read uncommitted"):
            return cls.READ_COMMITTED
        if lowered in ("serializable", "repeatable read"):
            return cls.SERIALIZABLE
        raise TransactionError(f"unknown isolation level {text!r}")


@dataclass
class AppendedFile:
    """One file a transaction appended to, with its rollback point."""

    table: str
    segment_id: int
    segfile_id: int
    path: str
    previous_length: int
    #: Truncates the physical file back (the segment's HDFS client's).
    truncate: Callable[[str, int], None]
    #: This transaction created the file: abort deletes it instead of
    #: truncating it to nothing.
    created: bool = False


class Transaction:
    """One transaction's state on the master."""

    def __init__(
        self, manager: "TransactionManager", xid: int, isolation: IsolationLevel
    ):
        self.manager = manager
        self.xid = xid
        self.isolation = isolation
        self.state = "active"  # active | committed | aborted
        self._txn_snapshot: Optional[Snapshot] = None
        self.appended_files: List[AppendedFile] = []
        #: Files a commit retires (DROP TABLE's, ALTER TABLE's old ones).
        self.retired_files: List[str] = []

    # ------------------------------------------------------------ snapshots
    def statement_snapshot(self) -> Snapshot:
        """The snapshot a new statement in this transaction should use.

        Read committed takes a fresh snapshot per statement; serializable
        reuses the snapshot taken at the first statement (Section 5.1).
        """
        self._check_active()
        if self.isolation is IsolationLevel.SERIALIZABLE:
            if self._txn_snapshot is None:
                self._txn_snapshot = self.manager.xids.snapshot(self.xid)
            return self._txn_snapshot
        return self.manager.xids.snapshot(self.xid)

    # -------------------------------------------------------------- locking
    def lock(self, key: str, mode: LockMode, wait: bool = True) -> bool:
        self._check_active()
        return self.manager.locks.acquire(self.xid, key, mode, wait=wait)

    # ---------------------------------------------------------- user data io
    def record_append(self, appended: AppendedFile) -> None:
        """Remember an append for truncate-on-abort."""
        self._check_active()
        self.appended_files.append(appended)

    def retire(self, path: str) -> None:
        """Have ``path`` deleted once this transaction has committed and
        no snapshot taken before that commit is live; abort keeps it."""
        self._check_active()
        self.retired_files.append(path)

    # ------------------------------------------------------------- lifecycle
    def commit(self) -> None:
        self.manager.commit(self)

    def abort(self) -> None:
        self.manager.abort(self)

    def _check_active(self) -> None:
        if self.state != "active":
            raise TransactionAborted(f"transaction {self.xid} is {self.state}")


class TransactionManager:
    """Owns xids, locks, the WAL and the swimming-lane allocator."""

    def __init__(
        self,
        wal: Optional[WriteAheadLog] = None,
        delete_files: Optional[Callable[[List[str]], None]] = None,
    ):
        self.xids = XidManager()
        self.locks = LockManager()
        self.wal = wal or WriteAheadLog()
        self.segfiles = SegfileAllocator()
        #: Live Transaction objects by xid, so a master crash can abort
        #: every in-flight transaction (and run truncate-on-abort).
        self._live: Dict[int, Transaction] = {}
        #: Deletes user-data files (and whatever is cached of them).
        self.delete_files = delete_files or (lambda paths: None)
        #: Files committed transactions retired, each list with the xids
        #: live at that commit: their snapshots may still read the files,
        #: so the list is deleted once every one of them has ended.
        self._retired: List[Tuple[FrozenSet[int], List[str]]] = []

    # ------------------------------------------------------------ lifecycle
    def begin(
        self, isolation: IsolationLevel = IsolationLevel.READ_COMMITTED
    ) -> Transaction:
        xid = self.xids.begin()
        self.wal.append(xid, "begin")
        txn = Transaction(self, xid, isolation)
        self._live[xid] = txn
        return txn

    def commit(self, txn: Transaction) -> None:
        if txn.state != "active":
            raise TransactionError(f"cannot commit a {txn.state} transaction")
        # Commit happens only on the master: flip the xid, log it, release.
        self.xids.commit(txn.xid)
        self.wal.append(txn.xid, "commit")
        txn.state = "committed"
        if txn.retired_files:
            waiting = frozenset(self._live.keys() - {txn.xid})
            self._retired.append((waiting, txn.retired_files))
        self._cleanup(txn)

    def abort(self, txn: Transaction) -> None:
        if txn.state != "active":
            return  # aborting twice is a no-op
        # Undo appends latest first (Section 5.3/5.4): truncate the garbage
        # bytes, and delete the files this transaction created (no other
        # snapshot sees them). The catalog's logical lengths roll back
        # automatically via MVCC.
        created = dict.fromkeys(a.path for a in txn.appended_files if a.created)
        for appended in reversed(txn.appended_files):
            if appended.path not in created:
                appended.truncate(appended.path, appended.previous_length)
        if created:
            self.delete_files(list(created))
        self.xids.abort(txn.xid)
        self.wal.append(txn.xid, "abort")
        txn.state = "aborted"
        self._cleanup(txn)

    def _cleanup(self, txn: Transaction) -> None:
        self._live.pop(txn.xid, None)
        self.segfiles.release(txn.xid)
        self.locks.release_all(txn.xid)
        done: List[str] = []
        pending = []
        for waiting, paths in self._retired:
            if waiting.isdisjoint(self._live):
                done.extend(paths)
            else:
                pending.append((waiting, paths))
        self._retired = pending
        if done:
            self.delete_files(done)

    def abort_all_active(self) -> List[int]:
        """Abort every in-flight transaction (master crash / failover).

        Each abort truncates the transaction's appended user-data bytes
        back to the committed logical length, so no garbage outlives the
        crash. Returns the aborted xids.
        """
        aborted: List[int] = []
        for txn in list(self._live.values()):
            if txn.state == "active":
                self.abort(txn)
                aborted.append(txn.xid)
        return aborted

    def horizon(self) -> Snapshot:
        """What every live transaction's snapshot sees, now and later: a
        row version deleted by a transaction this sees is dead to all."""
        snapshots = [self.xids.snapshot(0)] + [
            txn._txn_snapshot
            for txn in self._live.values()
            if txn._txn_snapshot is not None
        ]
        return Snapshot(
            xid=0,
            xmax=min(s.xmax for s in snapshots),
            active=frozenset().union(*(s.active for s in snapshots)),
            committed=frozenset.intersection(*(s.committed for s in snapshots)),
        )

    # --------------------------------------------------------------- helpers
    def run(self, isolation: IsolationLevel = IsolationLevel.READ_COMMITTED):
        """Context manager running a transaction: commit on success,
        abort on exception."""
        return _TxnContext(self, isolation)


class _TxnContext:
    def __init__(self, manager: TransactionManager, isolation: IsolationLevel):
        self.manager = manager
        self.isolation = isolation
        self.txn: Optional[Transaction] = None

    def __enter__(self) -> Transaction:
        self.txn = self.manager.begin(self.isolation)
        return self.txn

    def __exit__(self, exc_type, exc, tb) -> bool:
        assert self.txn is not None
        if exc_type is None:
            self.manager.commit(self.txn)
        else:
            self.manager.abort(self.txn)
        return False
