"""Shared pieces of the storage formats: block framing, results, stats,
the cached-prefix scan every format's blocks go through, and the
column-chunk codec of the two columnar formats."""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, repeat
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.catalog.schema import (
    LENGTH_PREFIX,
    Column,
    TypeKind,
    WireFormat,
    null_bitmap,
    null_flags,
)
from repro.columnar.vector import (
    as_list,
    dict_vector,
    dict_vector_at,
    float_vector,
    int_vector,
    numeric_from_bytes,
    numeric_from_packed,
    placed,
)
from repro.errors import StorageError
from repro.storage.cache import CachedBlock
from repro.storage.compression import Codec

#: Block header: magic (2) + row count (4) + uncompressed len (4) + compressed len (4).
BLOCK_MAGIC = 0xA001
_BLOCK_HEADER = struct.Struct("<HIII")
BLOCK_HEADER_SIZE = _BLOCK_HEADER.size

#: Default number of rows per storage block.
DEFAULT_BLOCK_ROWS = 1024


@dataclass
class WriteResult:
    """Outcome of one bulk write/append to a table's segment files."""

    #: New *physical* length of every file touched (path -> length).
    paths: Dict[str, int]
    uncompressed_bytes: int = 0
    tupcount: int = 0


@dataclass
class ScanStats:
    """Physical work done by one scan, consumed by the cost model."""

    compressed_bytes: int = 0
    uncompressed_bytes: int = 0
    rows: int = 0
    blocks: int = 0
    #: Bytes served by a non-local HDFS replica (folded into the engine's
    #: network charge; lets the decode cache replay remote reads on hits).
    remote_bytes: int = 0


def pack_block(payload: bytes, row_count: int, codec: Codec) -> bytes:
    """Compress and frame one block."""
    compressed = codec.compress(payload)
    header = _BLOCK_HEADER.pack(BLOCK_MAGIC, row_count, len(payload), len(compressed))
    return header + compressed


def unpack_block_header(buf: bytes, offset: int = 0) -> Tuple[int, int, int]:
    """Returns (row_count, uncompressed_len, compressed_len)."""
    magic, rows, uncompressed, compressed = _BLOCK_HEADER.unpack_from(buf, offset)
    if magic != BLOCK_MAGIC:
        raise StorageError(f"bad block magic 0x{magic:04x} at offset {offset}")
    return rows, uncompressed, compressed


def iter_blocks(
    data: bytes, codec: Codec, stats: Optional[ScanStats] = None
) -> Iterator[Tuple[int, bytes, int]]:
    """Yield ``(row_count, payload, framed_size)`` for each block in
    ``data``; the framed size (header + compressed payload) is the
    block's advance in the file, which the decode cache tracks."""
    offset = 0
    while offset < len(data):
        if offset + BLOCK_HEADER_SIZE > len(data):
            raise StorageError("truncated block header")
        rows, uncompressed_len, compressed_len = unpack_block_header(data, offset)
        offset += BLOCK_HEADER_SIZE
        compressed = data[offset : offset + compressed_len]
        if len(compressed) != compressed_len:
            raise StorageError("truncated block payload")
        offset += compressed_len
        payload = codec.decompress(compressed)
        if len(payload) != uncompressed_len:
            raise StorageError("block failed decompression length check")
        if stats is not None:
            stats.compressed_bytes += BLOCK_HEADER_SIZE + compressed_len
            stats.uncompressed_bytes += uncompressed_len
            stats.rows += rows
            stats.blocks += 1
        yield rows, payload, BLOCK_HEADER_SIZE + compressed_len


#: What a block decodes to everywhere: ``{column_index: column vector}``.
Columns = Dict[int, object]


def cached_blocks(
    client,
    path: str,
    logical_length: int,
    format_name: str,
    codec: Codec,
    codec_name: str,
    stats: Optional[ScanStats],
    cache,
    decode: Callable[[bytes, int], Columns],
    from_written: Callable[[object], Columns],
    complete: Optional[Callable[[bytes, int, Columns], Optional[bytes]]] = None,
) -> Iterator[Tuple[int, Columns]]:
    """Yield ``(row_count, columns)`` for each block of ``path`` inside
    its transaction-visible ``logical_length``, decoding with
    ``decode(payload, row_count)``.

    With a decode cache (see ``storage/cache.py``) the cached prefix is
    served without touching HDFS and only the tail beyond it is read,
    decoded and — while it stays contiguous with the prefix — cached.
    The prefix ends at the first unread block; reading one replaces its
    decode by ``from_written(block.written)``, what ``decode`` would have
    returned. Blocks are decoded one at a time as the consumer asks for
    them, so a scan that is abandoned (LIMIT) is charged for what it
    decoded.

    ``complete`` is given by a format whose ``decode`` builds only the
    columns its scan reads (AO): ``complete(payload, row_count, columns)``
    adds to ``columns`` what the scan reads and they lack, decoded from
    ``payload``, and returns the payload while they still lack a column
    of the block, else None. A block cached in part keeps that payload,
    and a hit on it completes it for the scan — replayed and counted as
    any hit, without touching HDFS.
    """
    if logical_length <= 0:
        return
    if cache is None:
        data = _read_exactly(client.open(path), path, logical_length)
        for row_count, payload, _framed in iter_blocks(data, codec, stats):
            yield row_count, decode(payload, row_count)
        return
    entry = cache.open_entry(
        (format_name, path, client.write_epoch(path), codec_name)
    )
    served = index = 0
    for block in cache.prefix(entry, logical_length):
        cache.replay(block, stats)
        served += block.compressed_bytes
        index += 1
        if block.payload is not None:
            block.payload = complete(block.payload, block.row_count, block.data)
        yield block.row_count, block.data
    if served >= logical_length:
        return
    reader = client.open(path)
    reader.seek(served)
    remote_before = client.remote_bytes_read
    data = _read_exactly(reader, path, logical_length - served)
    remote_total = client.remote_bytes_read - remote_before
    tail_len = len(data)
    consumed = 0
    for row_count, payload, framed in iter_blocks(data, codec, stats):
        start = consumed
        consumed += framed
        # Telescoping proportional split of the tail read's remote bytes
        # over its blocks — exact-summing without knowing the block count.
        remote = (
            remote_total * consumed // tail_len
            - remote_total * start // tail_len
        )
        block = cache.take_unread(entry, index, row_count, (framed, len(payload)))
        index += 1
        if block is not None:
            columns = from_written(block.written)
            cache.fill(block, columns, remote)
            yield row_count, columns
            continue
        columns = decode(payload, row_count)
        if entry.end_offset == served + start:  # still contiguous: cacheable
            # AO: nothing is missing yet, so this says whether it is whole.
            rest = None if complete is None else complete(payload, row_count, columns)
            before = entry.nbytes
            entry.append(
                CachedBlock(
                    row_count=row_count,
                    compressed_bytes=framed,
                    uncompressed_bytes=len(payload),
                    remote_bytes=remote,
                    data=columns,
                    payload=rest,
                )
            )
            cache.misses += 1
            cache.account(entry, entry.nbytes - before)
        yield row_count, columns


def _read_exactly(reader, path: str, length: int) -> bytes:
    """``length`` bytes from ``reader``: a committed file shorter than its
    logical length has lost rows, which a scan must not hide."""
    data = reader.read(length)
    if len(data) != length:
        raise StorageError(f"{path} is shorter than its committed {length} bytes")
    return data


def rows_from_blocks(
    blocks: Iterable[Tuple[int, Columns]], ncols: int
) -> Iterator[Tuple[object, ...]]:
    """Row tuples of the schema's shape from ``scan_blocks`` output;
    columns a block does not carry come back as None placeholders (the
    executor projects by position)."""
    for row_count, columns in blocks:
        # One tolist() per typed vector per block (cached on the vector,
        # so a decode-cache hit does not pay it again), then a C-level zip.
        yield from zip(
            *(
                as_list(columns[i]) if i in columns else repeat(None, row_count)
                for i in range(ncols)
            )
        )


# ------------------------------------------------------- column-vector codec
def converts_late(column: Column) -> bool:
    """Whether a filtered scan converts ``column`` late (see
    :class:`LateChunk`): strings (slicing, UTF-8 decode, dictionary
    coding) and DATE (the day lookup). The other kinds decode a chunk in
    one bulk ``frombuffer`` or ``unpack`` (INT8, FLOAT8, BOOL) or keep
    their stored bytes (BYTEA), which a late conversion would not make
    cheaper."""
    return column.type.is_string or column.type.kind is TypeKind.DATE


class ColumnCodec:
    """One column's type compiled for the chunks of one scan or write
    call. A chunk is the column's values for one block: a null bitmap,
    then the non-NULL values back to back in their
    :class:`~repro.catalog.schema.WireFormat`."""

    def __init__(self, column: Column) -> None:
        self.column = column

    @cached_property
    def _wire(self) -> WireFormat:
        return self.column.type.wire

    # -------------------------------------------------------------- encode
    def encode(self, values: Sequence[object]) -> bytes:
        """The chunk holding ``values`` (coerced, None for NULL)."""
        if None in values:
            bitmap = null_bitmap(values)
            values = [value for value in values if value is not None]
        else:
            bitmap = bytes((len(values) + 7) // 8)
        wire = self._wire
        stored = values if wire.dump is None else wire.dump(values)
        code = wire.code
        if code is not None:
            return bitmap + struct.pack(f"<{len(stored)}{code}", *stored)
        lengths = map(LENGTH_PREFIX.pack, map(len, stored))
        return bitmap + b"".join(chain.from_iterable(zip(lengths, stored)))

    # -------------------------------------------------------------- decode
    def decode(self, buf: bytes, count: int, keep: Optional[Sequence[int]] = None):
        """The column vector of a ``count``-row chunk that is all of ``buf``.

        Numeric columns come back as typed
        :class:`~repro.columnar.IntVector` / ``FloatVector`` (bulk-decoded
        from the packed buffer, the bitmap turned into an explicit mask)
        and string columns as a :class:`~repro.columnar.DictVector` whose
        dictionary holds each distinct value of the chunk once, decoded
        once. DATE/BOOL/BYTEA are plain Python lists — and so is every
        column where NumPy is absent (the same values, None for NULL). All
        of these duck-type as sequences of Python values.

        ``keep`` is the ascending row indexes whose values the caller
        reads, None for every row. The kinds that convert late (strings
        and DATE, :func:`converts_late`) convert only those: the vector
        holds NULL at every other row, and its dictionary only the kept
        rows' values. The other kinds decode whole whatever ``keep`` says.
        Either way every value is checked: raises :class:`StorageError`
        unless ``buf`` is exactly such a chunk, every length prefix walked
        to its end, every string valid UTF-8 and every DATE in range."""
        offset = (count + 7) // 8
        bitmap = buf[:offset]
        if len(bitmap) != offset:
            raise StorageError("column chunk shorter than its null bitmap")
        nulls = null_flags(bitmap, count) if any(bitmap) else None
        try:
            vector, end = self._decode_values(buf, offset, count, nulls, keep)
        except (struct.error, IndexError, ValueError, OverflowError) as exc:
            # ValueError covers UnicodeDecodeError, out-of-range dates and
            # a numeric buffer shorter than its values.
            raise StorageError(
                f"corrupt chunk of column {self.column.name}: {exc}"
            ) from exc
        if end != len(buf):
            raise StorageError(
                f"chunk of column {self.column.name} is {len(buf)} bytes, "
                f"its {count} values take {end}"
            )
        return vector

    @cached_property
    def _decode_values(self):
        """``(buf, offset, count, nulls, keep) -> (vector, end offset)``
        for this column's kind."""
        if self._wire.code in ("q", "d"):
            return self._decode_numeric
        if self.column.type.is_string:
            return self._decode_strings
        return self._decode_plain

    def _decode_numeric(self, buf, offset, count, nulls, keep):
        is_float = self._wire.code == "d"
        end = offset + _present(count, nulls) * 8
        if nulls is None:  # one bulk frombuffer, zero copies
            return numeric_from_bytes(buf[offset:end], is_float, count), end
        return numeric_from_packed(buf[offset:end], is_float, count, nulls), end

    def _decode_strings(self, buf, offset, count, nulls, keep):
        """Dictionary-code on the raw bytes: each distinct value of the
        chunk (of the kept rows) is UTF-8-decoded once."""
        present = _present(count, nulls)
        if keep is None:
            raws, end = _read_prefixed(buf, offset, present)
            codes, distinct = _dictionary_codes(raws)
            return dict_vector(_spread(codes, nulls, -1), self._wire.load(distinct)), end
        bounds = _prefix_bounds(buf, offset, present)
        end = bounds[-1]
        if not buf[offset:end].isascii():
            # Only ASCII bytes (length prefixes under 128 included) prove
            # every value valid UTF-8 at once; else check value by value.
            self._wire.load(dict.fromkeys(_read_prefixed(buf, offset, present)[0]))
        rows, indexes = _kept_indexes(count, nulls, keep)
        raws = [buf[bounds[j] + 4 : bounds[j + 1]] for j in indexes]
        codes, distinct = _dictionary_codes(raws)
        return dict_vector_at(count, rows, codes, self._wire.load(distinct)), end

    def _decode_plain(self, buf, offset, count, nulls, keep):
        """DATE, BOOL (one bulk unpack) and BYTEA, as a Python list; a
        DATE chunk converts only the ``keep`` rows' days."""
        present = _present(count, nulls)
        code = self._wire.code
        if code is None:
            stored, end = _read_prefixed(buf, offset, present)
        else:
            # Module-level struct calls go through struct's own format
            # cache: one compile per chunk length, not one per chunk.
            packed = f"<{present}{code}"
            stored = struct.unpack_from(packed, buf, offset)
            end = offset + struct.calcsize(packed)
        load = self._wire.load
        if keep is None or self.column.type.kind is not TypeKind.DATE:
            return _spread(load(stored), nulls, None), end
        if stored:  # every day is in range when the least and greatest are
            load((min(stored), max(stored)))
        rows, indexes = _kept_indexes(count, nulls, keep)
        return placed(count, rows, load(map(stored.__getitem__, indexes))), end

    # ------------------------------------------------------- written values
    def vector(self, values: Sequence[object]):
        """What :meth:`decode` returns for the chunk :meth:`encode` makes
        of ``values`` (coerced, None for NULL), built from the values
        themselves: the same class, dtype and mask, a dictionary in order
        of first appearance, one ``date`` per day from the day memo."""
        return self._vector(values)

    @cached_property
    def _vector(self):
        """``values -> vector`` for this column's kind."""
        code = self._wire.code
        if code in ("q", "d"):
            make = float_vector if code == "d" else int_vector
            return lambda values: _numeric_vector(make, values)
        if self.column.type.is_string:
            return _string_vector
        return self._wire.as_loaded


class LateChunk:
    """A late column's chunk of one block: read, decompressed and
    length-checked as any chunk, its values not yet converted. A
    filtered scan converts them once its filter has run, at the rows it
    kept (:meth:`values`). A decode cache holds the chunk as it was
    read; the first conversion of every row is kept, and the chunk
    drops its payload."""

    __slots__ = ("codec", "payload", "count", "vector")

    def __init__(self, codec: ColumnCodec, payload: bytes, count: int) -> None:
        self.codec = codec
        self.payload = payload
        self.count = count
        self.vector = None

    def values(self, keep: Optional[Sequence[int]] = None):
        """``codec.decode(payload, count, keep)``, every value checked;
        the whole vector once it is built, whatever ``keep`` says."""
        vector = self.vector
        if vector is None:
            vector = self.codec.decode(self.payload, self.count, keep)
            if keep is None:
                self.vector = vector
                self.payload = None
        return vector


def _numeric_vector(make, values: Sequence[object]):
    """``make`` over ``values``, with zero in each NULL's slot as a
    decode leaves it."""
    if None not in values:
        return make(values)
    nulls = [value is None for value in values]
    return make([0 if value is None else value for value in values], nulls)


def _string_vector(values: Sequence[object]):
    """Dictionary-code the strings themselves: two are equal exactly when
    their UTF-8 bytes are, so codes and dictionary are the decode's."""
    codes, distinct = _dictionary_codes(values)
    return dict_vector(codes, list(distinct))


def _dictionary_codes(keys: Sequence[object]) -> Tuple[List[int], Dict[object, None]]:
    """Each key's index among the distinct non-None keys, in order of
    first appearance (-1 for None), and those keys."""
    distinct = dict.fromkeys(keys)
    distinct.pop(None, None)
    code_of = dict(zip(distinct, range(len(distinct))))
    code_of[None] = -1
    return list(map(code_of.__getitem__, keys)), distinct


def _present(count: int, nulls: Optional[List[bool]]) -> int:
    return count if nulls is None else count - sum(nulls)


def _read_prefixed(buf: bytes, offset: int, count: int) -> Tuple[List[bytes], int]:
    """``count`` length-prefixed byte strings starting at ``offset``."""
    raws = []
    append = raws.append
    read_length = LENGTH_PREFIX.unpack_from
    for _ in range(count):
        start = offset + 4
        offset = start + read_length(buf, offset)[0]
        append(buf[start:offset])
    return raws, offset


def _prefix_bounds(buf: bytes, offset: int, count: int) -> List[int]:
    """The offsets of ``count`` length-prefixed values starting at
    ``offset``, then the end of the last: value ``j`` is
    ``buf[bounds[j] + 4 : bounds[j + 1]]``. The walk is the chunk's
    framing check: a prefix cut short raises ``struct.error``, and a
    value that runs past ``buf`` leaves the end beyond it."""
    bounds = [offset] * (count + 1)
    read_length = LENGTH_PREFIX.unpack_from
    for j in range(1, count + 1):
        (length,) = read_length(buf, offset)
        offset += 4 + length
        bounds[j] = offset
    return bounds


def _kept_indexes(
    count: int, nulls: Optional[List[bool]], keep: Sequence[int]
) -> Tuple[Sequence[int], Sequence[int]]:
    """The kept rows that hold a value, and each one's index among the
    chunk's stored (non-NULL) values."""
    if nulls is None:
        return keep, keep
    index_of = list(accumulate(map(operator.not_, nulls), initial=-1))
    rows = [row for row in keep if not nulls[row]]
    return rows, [index_of[row + 1] for row in rows]


def _spread(present: List[object], nulls: Optional[List[bool]], null: object):
    """``present`` values laid out over the rows of a chunk, ``null``
    wherever ``nulls`` says the row is NULL."""
    if nulls is None:
        return present
    values = iter(present)
    return [null if flag else next(values) for flag in nulls]


def batched(rows: Sequence[Sequence[object]], size: int) -> Iterator[Sequence[Sequence[object]]]:
    """Split rows into blocks of at most ``size``."""
    for start in range(0, len(rows), size):
        yield rows[start : start + size]
