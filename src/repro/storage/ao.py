"""AO: the row-oriented, read-optimized append-only format.

Rows are serialized whole (null bitmap + column values) into blocks,
each block compressed independently, blocks appended to one HDFS file
per (segment, segfile) lane. A scan reads, decompresses and is charged
for every byte of every row — the format's disadvantage against
CO/Parquet for narrow projections, which Figure 11 quantifies — but
builds values only for the columns it reads; the others are stepped
over.
"""

from __future__ import annotations

from typing import Collection, Dict, Iterator, Optional, Sequence, Tuple

from repro.catalog.schema import TableSchema
from repro.errors import StorageError
from repro.hdfs import HdfsClient
from repro.storage.base import (
    DEFAULT_BLOCK_ROWS,
    Columns,
    ScanStats,
    WriteResult,
    batched,
    cached_blocks,
    pack_block,
    rows_from_blocks,
)
from repro.storage.cache import CachedBlock
from repro.storage.compression import get_codec

name = "ao"


def write(
    client: HdfsClient,
    base_path: str,
    rows: Sequence[Sequence[object]],
    schema: TableSchema,
    codec_name: str = "none",
    append: bool = False,
    block_rows: int = DEFAULT_BLOCK_ROWS,
    cache=None,
) -> WriteResult:
    """Write (or append) rows; returns new physical lengths and stats.
    With a decode cache, each block is left in it unread, with its rows."""
    codec = get_codec(codec_name)
    row_codec = schema.row_codec()
    uncompressed_total = 0
    data = bytearray()
    written = []
    for block in batched(rows, block_rows):
        payload = row_codec.encode_rows(block)
        uncompressed_total += len(payload)
        framed = pack_block(payload, len(block), codec)
        data += framed
        written.append(
            CachedBlock(len(block), len(framed), len(payload), written=block)
        )
    if append and client.exists(base_path):
        writer = client.append(base_path)
    else:
        writer = client.create(base_path)
    writer.write(bytes(data))
    writer.close()
    new_length = client.file_status(base_path).length
    if cache is not None:
        cache.add_written(
            (name, base_path, client.write_epoch(base_path), codec_name),
            new_length - len(data),
            written,
        )
    return WriteResult(
        paths={base_path: new_length},
        uncompressed_bytes=uncompressed_total,
        tupcount=len(rows),
    )


def scan(
    client: HdfsClient,
    paths: Dict[str, int],
    schema: TableSchema,
    codec_name: str = "none",
    columns: Optional[Sequence[int]] = None,
    stats: Optional[ScanStats] = None,
    cache=None,
) -> Iterator[Tuple[object, ...]]:
    """Scan rows up to each path's logical length.

    Rows come back whole, in the schema's shape: the ``columns`` read
    hold their values, the others None placeholders (projection happens
    above). ``paths`` maps the data file to its transaction-visible
    logical length.
    """
    return rows_from_blocks(
        scan_blocks(client, paths, schema, codec_name, columns, stats, cache),
        len(schema.columns),
    )


def scan_blocks(
    client: HdfsClient,
    paths: Dict[str, int],
    schema: TableSchema,
    codec_name: str = "none",
    columns: Optional[Sequence[int]] = None,
    stats: Optional[ScanStats] = None,
    cache=None,
    late: Collection[int] = (),
) -> Iterator[Tuple[int, Columns]]:
    """Yield ``(row_count, {column_index: values})`` per block, one list
    per column of ``columns`` (all of them for None). ``late`` is taken
    as every format's ``scan_blocks`` takes it, and ignored: an AO block
    converts no column late, its row walk being most of the cost.

    A block is read and decompressed whole (that is the format) but
    decoded only for the columns the scan reads. The decode cache keeps
    a block decoded in part with its payload, and a later hit that reads
    other columns decodes them from it, without HDFS; the payload goes
    once the block holds every column."""
    ncols = len(schema.columns)
    wanted = range(ncols) if columns is None else columns
    codec = get_codec(codec_name)
    row_codec = schema.row_codec()  # compiles at the first block decoded

    def add(payload: bytes, row_count: int, decoded: Columns, read) -> None:
        # Every row is walked, so framing damage fails even a scan that
        # reads no column.
        values, end = row_codec.decode_rows(payload, 0, row_count, read)
        if end != len(payload):
            raise StorageError(
                f"block is {len(payload)} bytes, its {row_count} rows take {end}"
            )
        for i in read:
            decoded[i] = values[i]

    def decode(payload: bytes, row_count: int) -> Columns:
        decoded: Columns = {}
        add(payload, row_count, decoded, wanted)
        return decoded

    def complete(payload: bytes, row_count: int, decoded: Columns) -> Optional[bytes]:
        missing = [i for i in wanted if i not in decoded]
        if missing:
            add(payload, row_count, decoded, missing)
        return payload if len(decoded) < ncols else None

    def from_written(rows) -> Columns:
        return dict(enumerate(row_codec.decoded_columns(rows)))

    for path, logical_length in paths.items():
        for row_count, decoded in cached_blocks(
            client, path, logical_length, name, codec, codec_name, stats,
            cache, decode, from_written, complete,
        ):
            if row_count:
                yield row_count, {i: decoded[i] for i in wanted}
