"""CO: column-oriented storage, one segment file per column.

Each column's values are densely packed into their own series of blocks
in their own HDFS file, so a scan touches only the files of the columns
the query needs and compression sees homogeneous data (the paper notes
"notably higher compression ratios than row-oriented tables").
"""

from __future__ import annotations

from functools import partial
from typing import Collection, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.catalog.schema import TableSchema
from repro.errors import StorageError
from repro.hdfs import HdfsClient
from repro.storage.base import (
    DEFAULT_BLOCK_ROWS,
    ColumnCodec,
    Columns,
    LateChunk,
    ScanStats,
    WriteResult,
    batched,
    cached_blocks,
    pack_block,
    rows_from_blocks,
)
from repro.storage.cache import CachedBlock
from repro.storage.compression import get_codec

name = "co"


def column_path(base_path: str, column_index: int) -> str:
    return f"{base_path}.c{column_index}"


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
    """Write rows as per-column files ``<base>.c<i>``. With a decode
    cache, each block is left in it unread, with its column's values."""
    codec = get_codec(codec_name)
    column_codecs = [ColumnCodec(column) for column in schema.columns]
    uncompressed_total = 0
    paths: Dict[str, int] = {}
    per_column_data = [bytearray() for _ in schema.columns]
    per_column_written: List[List[CachedBlock]] = [[] for _ in schema.columns]
    for block in batched(rows, block_rows):
        for i, values in enumerate(zip(*block)):
            payload = column_codecs[i].encode(values)
            uncompressed_total += len(payload)
            framed = pack_block(payload, len(block), codec)
            per_column_data[i] += framed
            per_column_written[i].append(
                CachedBlock(len(block), len(framed), len(payload), written=values)
            )
    for i, data in enumerate(per_column_data):
        path = column_path(base_path, i)
        if append and client.exists(path):
            writer = client.append(path)
        else:
            writer = client.create(path)
        writer.write(bytes(data))
        writer.close()
        paths[path] = client.file_status(path).length
        if cache is not None:
            cache.add_written(
                (name, path, client.write_epoch(path), codec_name),
                paths[path] - len(data),
                per_column_written[i],
            )
    return WriteResult(
        paths=paths,
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
    """Scan, decoding only the requested columns.

    Unrequested columns come back as None placeholders so tuple shape
    matches the schema (the executor projects by position).
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
    """Yield ``(row_count, {column_index: values})`` per storage block,
    only for the requested columns — the batch executor's scan entry.

    A column of ``late`` comes as a :class:`LateChunk` its reader
    converts once it knows the rows it keeps, or as the vector a cache
    hit or its writer's values give; every other column as a vector."""
    ncols = len(schema.columns)
    wanted = sorted(set(columns)) if columns is not None else list(range(ncols))
    if not wanted:
        wanted = [0]  # must read something to know the row count
    # Group logical lengths back onto column indexes.
    by_column: Dict[int, Tuple[str, int]] = {}
    for path, length in paths.items():
        try:
            suffix = path.rsplit(".c", 1)[1]
            by_column[int(suffix)] = (path, length)
        except (IndexError, ValueError) as exc:
            raise StorageError(f"not a CO column path: {path}") from exc
    codec = get_codec(codec_name)
    iterators = {}
    for index in wanted:
        if index not in by_column:
            raise StorageError(f"missing column file for column {index}")
        path, logical_length = by_column[index]
        column_codec = ColumnCodec(schema.columns[index])
        iterators[index] = cached_blocks(
            client, path, logical_length, name, codec, codec_name, stats,
            cache,
            _one_column(
                index,
                partial(LateChunk, column_codec) if index in late
                else column_codec.decode,
            ),
            _one_column(index, column_codec.vector),
        )
    while True:
        vectors: Columns = {}
        row_count = None
        for index in wanted:
            block = next(iterators[index], None)
            if block is None:
                return
            if row_count is None:
                row_count = block[0]
            elif row_count != block[0]:
                raise StorageError("column files disagree on block row counts")
            column = block[1][index]
            if type(column) is LateChunk and index not in late:
                column = column.values()  # a hit on a late read's chunk
            vectors[index] = column
        yield row_count, vectors


def _one_column(index: int, build):
    """``build`` (a column codec's ``decode`` or ``vector``, or a late
    chunk's constructor) for one column file's blocks, its result keyed
    by ``index``; the codec compiles at the first block built."""
    return lambda *args: {index: build(*args)}
