"""Segment-local LRU block decode cache.

Every scan used to re-read its segment files from simulated HDFS and
re-decompress + re-decode every block — by far the dominant *real*
wall-clock cost of repeated queries, even though the *simulated* clock
already modeled it. This cache keeps decoded blocks (column vectors, in
all three formats) keyed by

    (format, path, write_epoch, ...per-format detail)

where ``write_epoch`` is the HDFS namespace's per-path mutation counter
(bumped by truncate / delete / rename — the physical operations behind
transaction rollback, VACUUM and INSERT-over-truncated-garbage). Appends
do **not** bump the epoch: files are append-only, so previously decoded
blocks stay valid and a scan only reads + decodes the appended tail
(``_PrefixEntry`` grows monotonically). TRUNCATE TABLE and snapshot
isolation are handled by serving only the prefix of blocks inside the
caller's transaction-visible logical length, which always falls on a
block boundary.

Simulated cost: a cache hit *replays* the exact compressed/uncompressed/
remote byte counts the original decode charged, so the simulated cost
model — and therefore every paper-shape benchmark figure — is unchanged
by caching.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # base.py builds CachedBlocks, so it imports this module
    from repro.storage.base import ScanStats

#: Default cache capacity in (approximate, uncompressed) bytes.
DEFAULT_CAPACITY_BYTES = 64 << 20


@dataclass
class CachedBlock:
    """One decoded block plus the physical work its decode charged."""

    row_count: int
    #: Framed on-disk size (header + compressed payload) — also the
    #: file-offset advance of this block.
    compressed_bytes: int
    uncompressed_bytes: int
    #: Bytes of this block's fetch served from a non-local HDFS replica.
    remote_bytes: int
    #: The decoded column vectors by column index, whatever the format:
    #: every column of an AO block (plain lists — the format decodes
    #: whole rows), the one column of a CO file's block, the chunks of a
    #: Parquet row group decoded so far (typed ``repro.columnar.vector``
    #: vectors; dictionary columns stay encoded, so they never pin
    #: materialized Python strings).
    data: Dict[int, object]
    #: Parquet only: the group's chunk directory and, per decoded chunk,
    #: the remote bytes its fetch charged.
    detail: object = None


class _PrefixEntry:
    """Decoded blocks covering the byte prefix [0, end_offset) of a file."""

    __slots__ = ("key", "blocks", "end_offset", "nbytes")

    def __init__(self, key: tuple) -> None:
        self.key = key
        self.blocks: List[CachedBlock] = []
        self.end_offset = 0
        self.nbytes = 0

    def append(self, block: CachedBlock) -> None:
        self.blocks.append(block)
        self.end_offset += block.compressed_bytes
        self.nbytes += max(block.uncompressed_bytes, 64)


class BlockDecodeCache:
    """LRU over per-file prefix entries of decoded storage blocks.

    One instance lives on the engine; keys embed the segment-owned file
    path, so entries are effectively segment-local (each segment writes
    and reads its own ``.../segN/...`` files).
    """

    def __init__(self, capacity_bytes: int = DEFAULT_CAPACITY_BYTES) -> None:
        self.capacity_bytes = capacity_bytes
        self._entries: "OrderedDict[tuple, _PrefixEntry]" = OrderedDict()
        self.total_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.hit_blocks = 0

    # ----------------------------------------------------------------- lookup
    def entry(self, key: tuple) -> Optional[_PrefixEntry]:
        """Return the prefix entry for ``key`` (LRU-touching it), if any."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def open_entry(self, key: tuple) -> _PrefixEntry:
        """Return the entry for ``key``, creating an empty one on miss."""
        entry = self._entries.get(key)
        if entry is None:
            entry = _PrefixEntry(key)
            self._entries[key] = entry
        else:
            self._entries.move_to_end(key)
        return entry

    def account(self, entry: _PrefixEntry, added_bytes: int) -> None:
        """Record entry growth and evict LRU entries over capacity."""
        if self._entries.get(entry.key) is not entry:
            # Evicted (or superseded) while a scan was still filling it:
            # its bytes left the ledger when it was dropped, so growth of
            # the orphan must not be tracked — it dies with the scan.
            return
        self.total_bytes += added_bytes
        while self.total_bytes > self.capacity_bytes and len(self._entries) > 1:
            _key, evicted = self._entries.popitem(last=False)
            if evicted is entry:  # never evict the entry being filled
                self._entries[_key] = evicted
                self._entries.move_to_end(_key, last=False)
                break
            self.total_bytes -= evicted.nbytes
            self.evictions += 1

    # ------------------------------------------------------------ stats replay
    def replay(self, block: CachedBlock, stats: Optional[ScanStats]) -> None:
        """Account one cache-hit block into ``stats``: what its decode
        charged, again."""
        self.hits += 1
        self.hit_blocks += 1
        if stats is None:
            return
        stats.rows += block.row_count
        stats.blocks += 1
        stats.compressed_bytes += block.compressed_bytes
        stats.uncompressed_bytes += block.uncompressed_bytes
        stats.remote_bytes += block.remote_bytes

    def replay_bytes(
        self,
        stats: Optional[ScanStats],
        compressed: int,
        uncompressed: int,
        remote: int = 0,
    ) -> None:
        """Replay raw byte charges for a hit that is not a whole block
        (Parquet group headers / single column chunks)."""
        self.hits += 1
        if stats is None:
            return
        stats.compressed_bytes += compressed
        stats.uncompressed_bytes += uncompressed
        stats.remote_bytes += remote

    # ------------------------------------------------------------------ misc
    def clear(self) -> None:
        self._entries.clear()
        self.total_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)
