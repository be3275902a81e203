"""The NameNode namespace, clients, leases, append and truncate.

Semantics follow the paper (Section 5.3) and HDFS:

* files are append-only sequences of replicated blocks;
* a single writer/appender/truncater per file, enforced by leases;
* ``truncate(path, length)`` only shrinks; at a block boundary the
  NameNode just drops tail blocks, otherwise the client copies the last
  surviving partial block to a temporary file, drops the tail, and splices
  the copy back — atomically from the reader's point of view;
* disk and node failures are masked by re-replication from surviving
  replicas.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import (
    FileAlreadyExists,
    FileNotFoundInHdfs,
    HdfsError,
    LeaseConflict,
    ReplicationError,
    TruncateError,
)
from repro.hdfs.datanode import DataNode
from repro.util import DeterministicRng


@dataclass
class BlockInfo:
    """NameNode-side metadata for one block."""

    block_id: int
    length: int
    hosts: List[str]


@dataclass
class BlockLocation:
    """A (file offset range -> hosts) mapping returned to clients."""

    offset: int
    length: int
    hosts: List[str]


@dataclass
class FileStatus:
    """Metadata returned by :meth:`HdfsClient.file_status`."""

    path: str
    length: int
    block_count: int
    replication: int


@dataclass
class _INode:
    path: str
    blocks: List[BlockInfo] = field(default_factory=list)
    lease_holder: Optional[str] = None

    @property
    def length(self) -> int:
        return sum(b.length for b in self.blocks)


class Hdfs:
    """The file system: one NameNode namespace plus its DataNodes."""

    def __init__(self, block_size: int = 64 * 1024, replication: int = 3, seed: int = 0):
        if block_size < 16:
            raise ValueError("block_size too small")
        self.block_size = block_size
        self.replication = replication
        self._inodes: Dict[str, _INode] = {}
        #: Per-path mutation counter consumed by the block decode cache.
        #: Bumped only when previously written bytes can change or vanish
        #: (truncate, delete, rename) — appends never rewrite old offsets,
        #: so they leave the epoch alone and cached prefixes stay valid.
        self._write_epochs: Dict[str, int] = {}
        self._datanodes: Dict[str, DataNode] = {}
        self._block_ids = itertools.count(1)
        self._rng = DeterministicRng(seed, "hdfs")

    # ------------------------------------------------------------- topology
    def add_datanode(self, host: str, num_disks: int = 12) -> DataNode:
        if host in self._datanodes:
            raise HdfsError(f"DataNode already registered: {host}")
        node = DataNode(host, num_disks=num_disks)
        self._datanodes[host] = node
        return node

    @property
    def datanodes(self) -> Dict[str, DataNode]:
        return dict(self._datanodes)

    def client(self, host: str = "client") -> "HdfsClient":
        """Create a client; reads/writes prefer a DataNode on ``host``."""
        return HdfsClient(self, host)

    # ------------------------------------------------------------ namespace
    def exists(self, path: str) -> bool:
        return path in self._inodes

    def list_status(self, prefix: str = "") -> List[FileStatus]:
        """List files whose path starts with ``prefix``, sorted by path."""
        return [
            self._status(inode)
            for path, inode in sorted(self._inodes.items())
            if path.startswith(prefix)
        ]

    def delete(self, path: str) -> None:
        inode = self._inode(path)
        for block in inode.blocks:
            for host in block.hosts:
                self._datanodes[host].drop_block(block.block_id)
        del self._inodes[path]
        self.bump_write_epoch(path)

    def rename(self, src: str, dst: str) -> None:
        if dst in self._inodes:
            raise FileAlreadyExists(dst)
        self._inodes[dst] = self._inodes.pop(src)
        self._inodes[dst].path = dst
        self.bump_write_epoch(src)
        self.bump_write_epoch(dst)

    def write_epoch(self, path: str) -> int:
        """Mutation counter for ``path`` (cache-invalidation token)."""
        return self._write_epochs.get(path, 0)

    def bump_write_epoch(self, path: str) -> None:
        self._write_epochs[path] = self._write_epochs.get(path, 0) + 1

    def block_locations(self, path: str) -> List[BlockLocation]:
        inode = self._inode(path)
        locations = []
        offset = 0
        for block in inode.blocks:
            hosts = [
                h for h in block.hosts if self._datanodes[h].has_block(block.block_id)
            ]
            locations.append(BlockLocation(offset, block.length, hosts))
            offset += block.length
        return locations

    def _status(self, inode: _INode) -> FileStatus:
        return FileStatus(
            path=inode.path,
            length=inode.length,
            block_count=len(inode.blocks),
            replication=self.replication,
        )

    def _inode(self, path: str) -> _INode:
        inode = self._inodes.get(path)
        if inode is None:
            raise FileNotFoundInHdfs(path)
        return inode

    # --------------------------------------------------------------- leases
    def _acquire_lease(self, path: str, holder: str) -> _INode:
        inode = self._inode(path)
        if inode.lease_holder is not None and inode.lease_holder != holder:
            raise LeaseConflict(
                f"{path}: lease held by {inode.lease_holder}, wanted by {holder}"
            )
        inode.lease_holder = holder
        return inode

    def _release_lease(self, path: str, holder: str) -> None:
        inode = self._inode(path)
        if inode.lease_holder == holder:
            inode.lease_holder = None

    # ----------------------------------------------------------- replication
    def _choose_hosts(self, preferred: str) -> List[str]:
        alive = [h for h, n in self._datanodes.items() if n.alive and n.healthy_disks]
        if len(alive) == 0:
            raise ReplicationError("no live DataNodes")
        count = min(self.replication, len(alive))
        chosen: List[str] = []
        if preferred in alive:
            chosen.append(preferred)
        remaining = [h for h in alive if h not in chosen]
        self._rng.shuffle(remaining)
        chosen.extend(remaining[: count - len(chosen)])
        return chosen

    def fail_datanode(self, host: str) -> None:
        """Kill a DataNode; surviving replicas keep files readable."""
        self._datanodes[host].alive = False

    def restore_datanode(self, host: str) -> None:
        self._datanodes[host].alive = True

    def fail_disk(self, host: str, disk_index: int) -> List[int]:
        """Fail one disk on a DataNode and process its block-report delta.

        The DataNode reports which replicas the dead volume held; the
        NameNode removes this host from those blocks' location lists so
        the blocks become *detectably* under-replicated (and
        :meth:`check_replication` can heal them). Returns the lost
        block ids.
        """
        lost = self._datanodes[host].fail_disk(disk_index)
        self.report_lost_replicas(host, lost)
        return lost

    def report_lost_replicas(self, host: str, block_ids: Sequence[int]) -> int:
        """Block-report delta: drop location entries for lost replicas.

        Only replicas the DataNode can no longer serve are dropped — a
        block id whose replica survives on another healthy disk of the
        same node keeps its entry. Returns locations removed.
        """
        wanted = set(block_ids)
        node = self._datanodes[host]
        removed = 0
        for inode in self._inodes.values():
            for block in inode.blocks:
                if (
                    block.block_id in wanted
                    and host in block.hosts
                    and not node.has_block(block.block_id)
                ):
                    block.hosts.remove(host)
                    removed += 1
        return removed

    def under_replicated(self) -> List[int]:
        """Block ids with fewer live replicas than the achievable factor.

        The achievable factor is ``min(replication, usable hosts)`` so a
        shrunken cluster is not reported as permanently degraded.
        """
        target = min(self.replication, max(len(self._usable_hosts()), 1))
        out: List[int] = []
        for inode in self._inodes.values():
            for block in inode.blocks:
                live = [
                    h
                    for h in block.hosts
                    if self._datanodes[h].alive
                    and self._datanodes[h].has_block(block.block_id)
                ]
                if len(live) < target:
                    out.append(block.block_id)
        return out

    def check_replication(self) -> int:
        """Re-replicate under-replicated blocks; returns replicas created.

        This is the NameNode background job that masks disk and node
        failures from readers.
        """
        created = 0
        for inode in self._inodes.values():
            for block in inode.blocks:
                live = [
                    h
                    for h in block.hosts
                    if self._datanodes[h].alive
                    and self._datanodes[h].has_block(block.block_id)
                ]
                if not live:
                    continue  # data loss: nothing to copy from
                missing = min(self.replication, len(self._usable_hosts())) - len(live)
                if missing <= 0:
                    block.hosts = live
                    continue
                data = self._datanodes[live[0]].read_block(block.block_id)
                candidates = [h for h in self._usable_hosts() if h not in live]
                self._rng.shuffle(candidates)
                for host in candidates[:missing]:
                    self._datanodes[host].store_block(block.block_id, data)
                    live.append(host)
                    created += 1
                block.hosts = live
        return created

    def _usable_hosts(self) -> List[str]:
        return [
            h for h, n in self._datanodes.items() if n.alive and n.healthy_disks
        ]

    # ----------------------------------------------------- internal file ops
    def _create(self, path: str, holder: str) -> _INode:
        if path in self._inodes:
            raise FileAlreadyExists(path)
        inode = _INode(path=path, lease_holder=holder)
        self._inodes[path] = inode
        return inode

    def _append_block(self, inode: _INode, data: bytes, preferred: str) -> None:
        hosts = self._choose_hosts(preferred)
        block = BlockInfo(next(self._block_ids), len(data), hosts)
        for host in hosts:
            self._datanodes[host].store_block(block.block_id, data)
        inode.blocks.append(block)

    def _read_block(self, block: BlockInfo, preferred: str) -> bytes:
        hosts = list(block.hosts)
        if preferred in hosts:
            hosts.remove(preferred)
            hosts.insert(0, preferred)
        last_error: Optional[Exception] = None
        for host in hosts:
            node = self._datanodes[host]
            if not node.alive:
                continue
            try:
                return node.read_block(block.block_id)
            except HdfsError as exc:
                last_error = exc
        raise HdfsError(
            f"block {block.block_id} unreadable on all replicas"
        ) from last_error


class HdfsClient:
    """Client-side API (the ``libhdfs3`` analogue used by segments)."""

    def __init__(self, fs: Hdfs, host: str):
        self.fs = fs
        self.host = host
        #: Bytes served from a non-local replica since creation; the
        #: executor samples this to charge network time for remote reads.
        self.remote_bytes_read = 0
        self.local_bytes_read = 0

    # --------------------------------------------------------------- writes
    def create(self, path: str) -> "HdfsWriter":
        inode = self.fs._create(path, holder=self.host)
        return HdfsWriter(self, inode)

    def append(self, path: str) -> "HdfsWriter":
        inode = self.fs._acquire_lease(path, holder=self.host)
        return HdfsWriter(self, inode)

    def write_file(self, path: str, data: bytes) -> None:
        """Create ``path`` and write ``data`` in one call."""
        writer = self.create(path)
        writer.write(data)
        writer.close()

    # ---------------------------------------------------------------- reads
    def open(self, path: str) -> "HdfsReader":
        return HdfsReader(self, self.fs._inode(path))

    def read_file(self, path: str) -> bytes:
        """Read the whole file."""
        return self.open(path).read_all()

    def file_status(self, path: str) -> FileStatus:
        return self.fs._status(self.fs._inode(path))

    def exists(self, path: str) -> bool:
        return self.fs.exists(path)

    def delete(self, path: str) -> None:
        self.fs.delete(path)

    def write_epoch(self, path: str) -> int:
        """See :meth:`Hdfs.write_epoch`."""
        return self.fs.write_epoch(path)

    # ------------------------------------------------------------- truncate
    def truncate(self, path: str, length: int) -> None:
        """Truncate ``path`` to exactly ``length`` bytes (paper 5.3).

        Raises :class:`TruncateError` if ``length`` exceeds the current
        file length (HDFS cannot extend by overwrite). Atomic: the file is
        never observable in an intermediate state because the block list
        is swapped in one step.
        """
        inode = self.fs._acquire_lease(path, holder=self.host)
        try:
            if length > inode.length:
                raise TruncateError(
                    f"cannot truncate {path} to {length} > file length {inode.length}"
                )
            if length == inode.length:
                return
            # Bytes beyond ``length`` are about to disappear (and may be
            # re-appended with different content): invalidate cached
            # decodes of this file.
            self.fs.bump_write_epoch(path)
            kept: List[BlockInfo] = []
            consumed = 0
            partial: Optional[BlockInfo] = None
            for block in inode.blocks:
                if consumed + block.length <= length:
                    kept.append(block)
                    consumed += block.length
                elif consumed < length:
                    partial = block
                    break
                else:
                    break
            dropped = [
                b for b in inode.blocks if b not in kept and b is not partial
            ]
            if partial is not None:
                # Not at a block boundary: copy the surviving prefix of the
                # partial block (the temporary-file dance from the paper),
                # then splice it back in place of the original block.
                data = self.fs._read_block(partial, preferred=self.host)
                tail = data[: length - consumed]
                new_hosts = [
                    h
                    for h in partial.hosts
                    if self.fs._datanodes[h].has_block(partial.block_id)
                ]
                for host in new_hosts:
                    self.fs._datanodes[host].replace_block(partial.block_id, tail)
                partial.length = len(tail)
                kept.append(partial)
            for block in dropped:
                for host in block.hosts:
                    self.fs._datanodes[host].drop_block(block.block_id)
            inode.blocks = kept
        finally:
            self.fs._release_lease(path, holder=self.host)


class HdfsWriter:
    """Streaming writer holding the file lease until closed."""

    def __init__(self, client: HdfsClient, inode: _INode):
        self._client = client
        self._inode = inode
        self._buffer = bytearray()
        self._closed = False

    def write(self, data: bytes) -> None:
        if self._closed:
            raise HdfsError("writer is closed")
        self._buffer.extend(data)
        while len(self._buffer) >= self._client.fs.block_size:
            chunk = bytes(self._buffer[: self._client.fs.block_size])
            del self._buffer[: self._client.fs.block_size]
            self._client.fs._append_block(self._inode, chunk, self._client.host)

    def close(self) -> None:
        if self._closed:
            return
        if self._buffer:
            self._client.fs._append_block(
                self._inode, bytes(self._buffer), self._client.host
            )
            self._buffer.clear()
        self._client.fs._release_lease(self._inode.path, self._client.host)
        self._closed = True

    def __enter__(self) -> "HdfsWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class HdfsReader:
    """Positioned reader that prefers local replicas."""

    def __init__(self, client: HdfsClient, inode: _INode):
        self._client = client
        self._inode = inode
        self._position = 0

    @property
    def length(self) -> int:
        return self._inode.length

    def seek(self, position: int) -> None:
        if position < 0 or position > self._inode.length:
            raise HdfsError(f"seek out of range: {position}")
        self._position = position

    def read(self, length: int) -> bytes:
        """Read up to ``length`` bytes from the current position."""
        out = bytearray()
        offset = 0
        for block in self._inode.blocks:
            block_end = offset + block.length
            if block_end <= self._position:
                offset = block_end
                continue
            if offset >= self._position + length:
                break
            data = self._client.fs._read_block(block, preferred=self._client.host)
            start = max(0, self._position - offset)
            stop = min(block.length, self._position + length - offset)
            out.extend(data[start:stop])
            if self._client.host in block.hosts:
                self._client.local_bytes_read += stop - start
            else:
                self._client.remote_bytes_read += stop - start
            offset = block_end
        self._position += len(out)
        return bytes(out)

    def read_all(self) -> bytes:
        return self.read(self._inode.length - self._position)
