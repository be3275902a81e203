"""Tests for MVCC, locking, deadlock detection, WAL, swim lanes, and
truncate-on-abort (the full Section 5 story)."""

import pytest

from repro.errors import DeadlockDetected, LockTimeout, TransactionAborted
from repro.hdfs import Hdfs
from repro.txn import (
    IsolationLevel,
    LockManager,
    LockMode,
    SegfileAllocator,
    TransactionManager,
    WriteAheadLog,
    XidManager,
)
from repro.txn.manager import AppendedFile


class TestMvcc:
    def test_own_writes_visible(self):
        xids = XidManager()
        xid = xids.begin()
        snapshot = xids.snapshot(xid)
        assert snapshot.sees_xid(xid)

    def test_uncommitted_foreign_invisible(self):
        xids = XidManager()
        writer = xids.begin()
        reader = xids.begin()
        snapshot = xids.snapshot(reader)
        assert not snapshot.sees_xid(writer)

    def test_committed_before_snapshot_visible(self):
        xids = XidManager()
        writer = xids.begin()
        xids.commit(writer)
        reader = xids.begin()
        assert xids.snapshot(reader).sees_xid(writer)

    def test_committed_after_snapshot_invisible(self):
        xids = XidManager()
        writer = xids.begin()
        reader = xids.begin()
        snapshot = xids.snapshot(reader)  # taken while writer active
        xids.commit(writer)
        assert not snapshot.sees_xid(writer)

    def test_aborted_never_visible(self):
        xids = XidManager()
        writer = xids.begin()
        xids.abort(writer)
        reader = xids.begin()
        assert not xids.snapshot(reader).sees_xid(writer)

    def test_row_visibility_with_delete(self):
        xids = XidManager()
        inserter = xids.begin()
        xids.commit(inserter)
        deleter = xids.begin()
        reader = xids.begin()
        snapshot_before = xids.snapshot(reader)
        assert snapshot_before.row_visible(inserter, deleter)  # delete pending
        xids.commit(deleter)
        snapshot_after = xids.snapshot(xids.begin())
        assert not snapshot_after.row_visible(inserter, deleter)


class TestIsolationLevels:
    def test_parse(self):
        assert IsolationLevel.parse("read committed") is IsolationLevel.READ_COMMITTED
        assert IsolationLevel.parse("READ UNCOMMITTED") is IsolationLevel.READ_COMMITTED
        assert IsolationLevel.parse("serializable") is IsolationLevel.SERIALIZABLE
        assert IsolationLevel.parse("repeatable read") is IsolationLevel.SERIALIZABLE

    def test_read_committed_sees_new_commits(self):
        manager = TransactionManager()
        txn = manager.begin(IsolationLevel.READ_COMMITTED)
        snapshot1 = txn.statement_snapshot()
        other = manager.begin()
        manager.commit(other)
        snapshot2 = txn.statement_snapshot()
        assert not snapshot1.sees_xid(other.xid)
        assert snapshot2.sees_xid(other.xid)

    def test_serializable_keeps_first_snapshot(self):
        manager = TransactionManager()
        txn = manager.begin(IsolationLevel.SERIALIZABLE)
        txn.statement_snapshot()
        other = manager.begin()
        manager.commit(other)
        snapshot2 = txn.statement_snapshot()
        assert not snapshot2.sees_xid(other.xid)


class TestLocks:
    def test_shared_locks_compatible(self):
        locks = LockManager()
        assert locks.acquire(1, "rel:t", LockMode.ACCESS_SHARE)
        assert locks.acquire(2, "rel:t", LockMode.ACCESS_SHARE)

    def test_exclusive_blocks_share(self):
        locks = LockManager()
        assert locks.acquire(1, "rel:t", LockMode.ACCESS_EXCLUSIVE)
        assert not locks.acquire(2, "rel:t", LockMode.ACCESS_SHARE)

    def test_nowait_raises(self):
        locks = LockManager()
        locks.acquire(1, "rel:t", LockMode.ACCESS_EXCLUSIVE)
        with pytest.raises(LockTimeout):
            locks.acquire(2, "rel:t", LockMode.ACCESS_SHARE, wait=False)

    def test_release_grants_waiters(self):
        locks = LockManager()
        locks.acquire(1, "rel:t", LockMode.ACCESS_EXCLUSIVE)
        assert not locks.acquire(2, "rel:t", LockMode.ACCESS_SHARE)
        granted = locks.release_all(1)
        assert (2, "rel:t", LockMode.ACCESS_SHARE) in granted

    def test_reentrant_same_xid(self):
        locks = LockManager()
        assert locks.acquire(1, "rel:t", LockMode.ACCESS_EXCLUSIVE)
        assert locks.acquire(1, "rel:t", LockMode.ACCESS_SHARE)

    def test_row_exclusive_self_compatible(self):
        """Two concurrent inserters don't block each other (swim lanes)."""
        locks = LockManager()
        assert locks.acquire(1, "rel:t", LockMode.ROW_EXCLUSIVE)
        assert locks.acquire(2, "rel:t", LockMode.ROW_EXCLUSIVE)

    def test_deadlock_detected(self):
        locks = LockManager()
        locks.acquire(1, "a", LockMode.ACCESS_EXCLUSIVE)
        locks.acquire(2, "b", LockMode.ACCESS_EXCLUSIVE)
        assert not locks.acquire(1, "b", LockMode.ACCESS_EXCLUSIVE)  # 1 waits
        with pytest.raises(DeadlockDetected):
            locks.acquire(2, "a", LockMode.ACCESS_EXCLUSIVE)  # cycle

    def test_three_way_deadlock(self):
        locks = LockManager()
        for xid, key in ((1, "a"), (2, "b"), (3, "c")):
            locks.acquire(xid, key, LockMode.ACCESS_EXCLUSIVE)
        assert not locks.acquire(1, "b", LockMode.ACCESS_EXCLUSIVE)
        assert not locks.acquire(2, "c", LockMode.ACCESS_EXCLUSIVE)
        with pytest.raises(DeadlockDetected):
            locks.acquire(3, "a", LockMode.ACCESS_EXCLUSIVE)

    def test_no_false_deadlock(self):
        locks = LockManager()
        locks.acquire(1, "a", LockMode.ACCESS_EXCLUSIVE)
        assert not locks.acquire(2, "a", LockMode.ACCESS_EXCLUSIVE)
        assert not locks.acquire(3, "a", LockMode.ACCESS_EXCLUSIVE)  # queue, no cycle


class TestWal:
    def test_append_and_replay_order(self):
        wal = WriteAheadLog()
        wal.append(1, "begin")
        wal.append(1, "change", table="pg_class", op="insert", row={"name": "t"})
        wal.append(1, "commit")
        records = wal.records_from(0)
        assert [r.kind for r in records] == ["begin", "change", "commit"]
        assert records[0].lsn == 1

    def test_records_from_offset(self):
        wal = WriteAheadLog()
        for i in range(5):
            wal.append(i, "begin")
        assert len(wal.records_from(3)) == 2

    def test_subscriber_push(self):
        wal = WriteAheadLog()
        seen = []
        wal.subscribe(seen.append)
        wal.append(1, "begin")
        assert len(seen) == 1


class TestSwimlanes:
    def test_distinct_lanes_for_concurrent_writers(self):
        lanes = SegfileAllocator()
        assert lanes.acquire("t", xid=1) == 0
        assert lanes.acquire("t", xid=2) == 1
        assert lanes.acquire("t", xid=3) == 2

    def test_same_txn_reuses_lane(self):
        lanes = SegfileAllocator()
        assert lanes.acquire("t", xid=1) == 0
        assert lanes.acquire("t", xid=1) == 0

    def test_release_enables_reuse(self):
        """Lane reuse bounds the number of small files (Section 5.4)."""
        lanes = SegfileAllocator()
        lanes.acquire("t", xid=1)
        lanes.release(1)
        assert lanes.acquire("t", xid=2) == 0

    def test_lanes_per_table(self):
        lanes = SegfileAllocator()
        assert lanes.acquire("t1", xid=1) == 0
        assert lanes.acquire("t2", xid=1) == 0


class TestTransactionManager:
    def test_commit_flow(self):
        manager = TransactionManager()
        txn = manager.begin()
        manager.commit(txn)
        assert txn.state == "committed"
        assert txn.xid in manager.xids.committed
        kinds = [r.kind for r in manager.wal.records_from(0)]
        assert kinds == ["begin", "commit"]

    def test_statement_after_abort_fails(self):
        manager = TransactionManager()
        txn = manager.begin()
        manager.abort(txn)
        with pytest.raises(TransactionAborted):
            txn.statement_snapshot()

    def test_double_abort_is_noop(self):
        manager = TransactionManager()
        txn = manager.begin()
        manager.abort(txn)
        manager.abort(txn)
        assert txn.state == "aborted"

    def test_abort_truncates_appended_files(self):
        """The Section 5.3/5.4 rollback path: garbage bytes beyond the
        committed logical length are physically truncated."""
        fs = Hdfs(block_size=64, replication=1)
        fs.add_datanode("h1")
        client = fs.client("h1")
        client.write_file("/t/f0", b"committed!")
        manager = TransactionManager()
        txn = manager.begin()
        writer = client.append("/t/f0")
        writer.write(b"uncommitted garbage")
        writer.close()
        txn.record_append(
            AppendedFile(
                table="t",
                segment_id=0,
                segfile_id=0,
                path="/t/f0",
                previous_length=10,
                truncate=client.truncate,
            )
        )
        manager.abort(txn)
        assert client.read_file("/t/f0") == b"committed!"

    def test_context_manager_commits(self):
        manager = TransactionManager()
        with manager.run() as txn:
            pass
        assert txn.state == "committed"

    def test_context_manager_aborts_on_error(self):
        manager = TransactionManager()
        with pytest.raises(ValueError):
            with manager.run() as txn:
                raise ValueError("boom")
        assert txn.state == "aborted"

    def test_locks_released_on_commit(self):
        manager = TransactionManager()
        txn = manager.begin()
        txn.lock("rel:t", LockMode.ACCESS_EXCLUSIVE)
        manager.commit(txn)
        assert manager.locks.holders("rel:t") == []
