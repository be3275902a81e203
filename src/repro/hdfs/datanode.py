"""DataNodes: block replica storage spread over failable disk volumes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import HdfsError


@dataclass
class DiskVolume:
    """One physical disk in a DataNode.

    When a disk fails, HDFS removes the volume from the valid list and
    every replica on it becomes unreadable on this node (paper Section
    2.6, "two level disk failure fault tolerance").
    """

    index: int
    failed: bool = False
    blocks: Dict[int, bytes] = field(default_factory=dict)


class DataNode:
    """Stores block replicas for the NameNode; one per segment host."""

    def __init__(self, host: str, num_disks: int = 12):
        if num_disks < 1:
            raise ValueError("a DataNode needs at least one disk")
        self.host = host
        self.disks: List[DiskVolume] = [DiskVolume(i) for i in range(num_disks)]
        self.alive = True
        self._next_disk = 0

    # ----------------------------------------------------------- replica ops
    def store_block(self, block_id: int, data: bytes) -> None:
        """Store a replica on the next healthy disk (round-robin)."""
        disk = self._pick_disk()
        disk.blocks[block_id] = data

    def read_block(self, block_id: int) -> bytes:
        """Read a replica; raises if it is missing or its disk failed."""
        for disk in self.disks:
            if block_id in disk.blocks:
                if disk.failed:
                    raise HdfsError(
                        f"block {block_id} on failed disk {disk.index} of {self.host}"
                    )
                return disk.blocks[block_id]
        raise HdfsError(f"block {block_id} not on DataNode {self.host}")

    def has_block(self, block_id: int) -> bool:
        """True if a readable replica of the block lives here."""
        return any(
            block_id in disk.blocks and not disk.failed for disk in self.disks
        )

    def drop_block(self, block_id: int) -> None:
        for disk in self.disks:
            disk.blocks.pop(block_id, None)

    def replace_block(self, block_id: int, data: bytes) -> None:
        """Overwrite the replica in place (used by truncate's tail copy)."""
        for disk in self.disks:
            if block_id in disk.blocks:
                disk.blocks[block_id] = data
                return
        self.store_block(block_id, data)

    # ---------------------------------------------------------------- faults
    def fail_disk(self, disk_index: int) -> List[int]:
        """Mark one disk failed; returns the block ids that lost a replica."""
        disk = self.disks[disk_index]
        disk.failed = True
        return list(disk.blocks)

    @property
    def healthy_disks(self) -> List[DiskVolume]:
        return [disk for disk in self.disks if not disk.failed]

    def _pick_disk(self) -> DiskVolume:
        healthy = self.healthy_disks
        if not self.alive or not healthy:
            raise HdfsError(f"DataNode {self.host} has no healthy disk")
        disk = healthy[self._next_disk % len(healthy)]
        self._next_disk += 1
        return disk
