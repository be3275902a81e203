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

A block enters the cache one of two ways:

* **decoded** — a scan read it from HDFS past the cached prefix and
  decoded its payload;
* **written** — a format's ``write`` appended it right after the cached
  prefix and left it *unread*: its row count, sizes and the values the
  writer held, nothing else (no vector, no remote bytes, no charge).

An unread block is still a miss in every observable way. A scan stops
serving the prefix at it and reads, decompresses and length-checks the
tail from HDFS exactly as for an uncached block; only the decode of the
payload is replaced, by the written values in the decode's
representation (``ColumnCodec.vector``, ``RowCodec.decoded_columns``).
The block then is an ordinary cached block. ``misses`` counts both ways,
``written`` the misses served from written values. What the read checks
is the frame: its header against the written block, and the
decompressed length. The payload itself is not validated while the
written values stand in for it, so damage inside a payload that keeps
its length (possible under the checksum-less ``none``, ``rle`` and
``snappy`` codecs) goes unreported until the block has left the cache
and is decoded from disk — as a cache hit never re-validates a block.
``prefix``, ``take_unread`` and ``fill`` hold this protocol; the
formats' scan loops only call them.

Simulated cost: a cache hit *replays* the exact compressed/uncompressed/
remote byte counts the original decode charged, so the simulated cost
model — and therefore every paper-shape benchmark figure — is unchanged
by caching.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.errors import StorageError

if TYPE_CHECKING:  # base.py builds CachedBlocks, so it imports this module
    from repro.storage.base import ScanStats

#: Default cache capacity in (approximate, uncompressed) bytes.
DEFAULT_CAPACITY_BYTES = 64 << 20


class CachedBlock:
    """One decoded block plus the physical work its decode charged.

    Slotted: a one-row INSERT leaves one block per column, and an
    instance ``__dict__`` per block shows in the collector's work."""

    __slots__ = (
        "row_count",
        "compressed_bytes",
        "uncompressed_bytes",
        "remote_bytes",
        "data",
        "detail",
        "written",
        "payload",
    )

    def __init__(
        self,
        row_count: int,
        compressed_bytes: int,
        uncompressed_bytes: int,
        remote_bytes: Optional[int] = None,
        data: Optional[Dict[int, object]] = None,
        detail: object = None,
        written: object = None,
        payload: Optional[bytes] = None,
    ) -> None:
        self.row_count = row_count
        #: Framed on-disk size (header + compressed payload) — also the
        #: file-offset advance of this block.
        self.compressed_bytes = compressed_bytes
        self.uncompressed_bytes = uncompressed_bytes
        #: Bytes of this block's fetch served from a non-local HDFS
        #: replica (Parquet: of its group header); None while unread.
        self.remote_bytes = remote_bytes
        #: The decoded column vectors by column index, whatever the
        #: format: the columns of an AO block its scans have read so far
        #: (plain lists), the one column of a CO file's block, the chunks
        #: of a Parquet row group decoded so far (typed
        #: ``repro.columnar.vector`` vectors; dictionary columns stay
        #: encoded, so they never pin materialized Python strings). A
        #: CO or Parquet chunk a filtered scan read late is a
        #: ``base.LateChunk``, which keeps the whole vector once a scan
        #: converts every row. None in an unread AO or CO block.
        self.data = data
        #: Parquet only: the group's chunk directory and, per decoded
        #: chunk, the remote bytes its fetch charged.
        self.detail = detail
        #: What the writer left for reads still to come: an unread AO
        #: block's rows or CO block's column values; in Parquet, the
        #: values of each chunk no scan has read yet, by column index.
        self.written = written
        #: AO only: the decompressed payload of a block whose ``data``
        #: lacks a column, which a later scan that reads it decodes from
        #: here; None once ``data`` holds every column.
        self.payload = payload


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
        #: Misses whose decode was replaced by the written values.
        self.written = 0
        self.evictions = 0
        self.hit_blocks = 0

    # ----------------------------------------------------------------- lookup
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

    # ------------------------------------------------------------ write side
    def add_written(
        self,
        key: tuple,
        offset: int,
        blocks: Sequence[CachedBlock],
        held_bytes: int = 0,
    ) -> None:
        """Add ``blocks``, unread, that a write appended at byte ``offset``
        of the file of ``key`` — only where they continue its cached
        prefix (a new file's empty one included) and the entry would
        still fit the capacity; otherwise the blocks are left to the
        first scan to decode, so a write never pins an entry above
        capacity. ``held_bytes`` is what the blocks hold beyond their own
        ``uncompressed_bytes`` (Parquet's chunks)."""
        if not blocks:
            return
        entry = self._entries.get(key)
        end, nbytes = (0, 0) if entry is None else (entry.end_offset, entry.nbytes)
        added = held_bytes
        for block in blocks:  # what ``_PrefixEntry.append`` will count
            added += max(block.uncompressed_bytes, 64)
        if end != offset or nbytes + added > self.capacity_bytes:
            return
        entry = self.open_entry(key)
        for block in blocks:
            entry.append(block)
        entry.nbytes += held_bytes
        self.account(entry, added)

    # ------------------------------------------------------------- read side
    def prefix(self, entry: _PrefixEntry, logical_length: int) -> Iterator[CachedBlock]:
        """The blocks of ``entry`` a scan serves from the cache, in file
        order: those inside ``logical_length`` (a block boundary: appends
        write whole blocks), up to the first unread one. Blocks a
        concurrent scan appends while this one is served are served too."""
        end = 0
        for block in entry.blocks:
            end += block.compressed_bytes
            if block.remote_bytes is None or end > logical_length:
                return
            yield block

    def take_unread(
        self, entry: _PrefixEntry, index: int, row_count: int, framing: object
    ) -> Optional[CachedBlock]:
        """The block at ``index`` of ``entry`` if it is unread, else None.
        Unread blocks end an entry, so that is the block a read past the
        served prefix finds at its offset: ``row_count`` and ``framing``
        are what the read found in the header there — the framed and
        uncompressed sizes, or a Parquet group's chunk directory — and a
        disagreement with the written block is damage. The
        caller builds the block's columns from ``written`` and hands them
        to :meth:`fill`."""
        blocks = entry.blocks
        if index >= len(blocks) or blocks[index].remote_bytes is not None:
            return None
        block = blocks[index]
        if block.detail is not None:  # Parquet: the group's chunk directory
            written = block.detail["directory"]
        else:
            written = (block.compressed_bytes, block.uncompressed_bytes)
        if (row_count, framing) != (block.row_count, written):
            raise StorageError(
                f"block {index} of {entry.key[1]} is not the block written there"
            )
        return block

    def fill(
        self,
        block: CachedBlock,
        columns: Dict[int, object],
        remote_bytes: Optional[int] = None,
    ) -> None:
        """Cache ``columns``, what a read built from ``block``'s written
        values once HDFS was read and checked as for any miss, and count
        that miss. ``remote_bytes`` is what the read of an unread block
        charged (Parquet: its group header); a Parquet chunk read later
        leaves it as it is."""
        if remote_bytes is not None:
            block.remote_bytes = remote_bytes
        if block.data is None:  # AO / CO: the whole block at once
            block.data = columns
            block.written = None
        else:  # Parquet: the chunks the read projected
            block.data.update(columns)
            for i in columns:
                del block.written[i]
        self.misses += 1
        self.written += 1

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

    def discard(self, paths: Iterable[str]) -> None:
        """Forget every entry of ``paths``: their files were deleted."""
        deleted = set(paths)
        for key in [key for key in self._entries if key[1] in deleted]:
            self.total_bytes -= self._entries.pop(key).nbytes

    def __len__(self) -> int:
        return len(self._entries)
