"""Stateless segments: the basic compute units of HAWQ (paper Section 2).

A segment holds **no private persistent state** — all user data lives on
HDFS and all metadata on the master — so any alive segment can act as a
replacement for a failed one. The object here is little more than an
identity (logical segment id), a host binding (which changes on
failover), and an HDFS client scoped to that host for locality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.hdfs import Hdfs, HdfsClient


@dataclass
class Segment:
    """One logical segment of the cluster."""

    segment_id: int
    host: str
    alive: bool = True
    #: Host currently acting for this segment (differs after failover).
    acting_host: Optional[str] = None

    def effective_host(self) -> str:
        return self.acting_host or self.host

    def client(self, fs: Hdfs) -> HdfsClient:
        """HDFS client preferring replicas local to the acting host."""
        return fs.client(self.effective_host())
