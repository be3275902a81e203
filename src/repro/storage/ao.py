"""AO: the row-oriented, read-optimized append-only format.

Rows are serialized whole (null bitmap + column values) into blocks,
each block compressed independently, blocks appended to one HDFS file
per (segment, segfile) lane. Scans always decode every column — the
format's disadvantage against CO/Parquet for narrow projections, which
Figure 11 quantifies.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence, Tuple

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

    ``columns`` is accepted for interface uniformity but AO reads and
    decodes whole rows regardless, and hands them back whole; projection
    happens above. ``paths`` maps the data file to its
    transaction-visible logical length.
    """
    return rows_from_blocks(
        scan_blocks(client, paths, schema, codec_name, None, stats, cache),
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
) -> Iterator[Tuple[int, Columns]]:
    """Yield ``(row_count, {column_index: values})`` per block.

    A block is decoded once, whole (that is the format), into one list
    per column; the decode cache keeps those, and every scan hands out
    the ``columns`` it asked for (all of them for None)."""
    wanted = range(len(schema.columns)) if columns is None else columns
    codec = get_codec(codec_name)
    row_codec = schema.row_codec()  # compiles at the first block decoded

    def decode(payload: bytes, row_count: int) -> Columns:
        decoded, end = row_codec.decode_rows(payload, 0, row_count)
        if end != len(payload):
            raise StorageError(
                f"block is {len(payload)} bytes, its {row_count} rows take {end}"
            )
        return dict(enumerate(decoded))

    def from_written(rows) -> Columns:
        return dict(enumerate(row_codec.decoded_columns(rows)))

    for path, logical_length in paths.items():
        for row_count, decoded in cached_blocks(
            client, path, logical_length, name, codec, codec_name, stats,
            cache, decode, from_written,
        ):
            if row_count:
                yield row_count, {i: decoded[i] for i in wanted}
