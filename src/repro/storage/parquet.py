"""Parquet-like storage: PAX row groups in a single file.

Like CO the data is vertically partitioned, but columns live together in
row groups of one file instead of separate files (paper Section 2.5).
Each self-describing row group is:

    group header: magic(2) | row_count(4) | ncols(4)
    per-column directory: uncompressed_len(4) | compressed_len(4)
    column chunks back-to-back

Readers seek over the chunks of unneeded columns, so only the projected
columns' bytes are fetched and decompressed. Nested values (Python lists)
are supported natively inside any text column via a tagged encoding —
Parquet's headline feature in miniature.
"""

from __future__ import annotations

import struct
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
    rows_from_blocks,
)
from repro.storage.cache import CachedBlock
from repro.storage.compression import get_codec

name = "parquet"

GROUP_MAGIC = 0xA002
_GROUP_HEADER = struct.Struct("<HII")
_CHUNK_DIR = struct.Struct("<II")


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
    """Write rows as a sequence of row groups. With a decode cache, each
    group is left in it unread, with every chunk's column values."""
    codec = get_codec(codec_name)
    column_codecs = [ColumnCodec(column) for column in schema.columns]
    uncompressed_total = 0
    data = bytearray()
    #: Per group: (row count, offset in ``data``, directory, columns).
    groups = []
    chunk_bytes = 0  # what the groups' chunks hold, as a scan counts it
    for group in batched(rows, block_rows):
        chunks: List[bytes] = []
        directory = []
        columns = dict(enumerate(zip(*group)))
        for i, values in columns.items():
            payload = column_codecs[i].encode(values)
            uncompressed_total += len(payload)
            compressed = codec.compress(payload)
            directory.append((len(payload), len(compressed)))
            chunks.append(compressed)
            chunk_bytes += max(len(payload), 64)
        groups.append((len(group), len(data), directory, columns))
        data += _GROUP_HEADER.pack(GROUP_MAGIC, len(group), len(schema.columns))
        data += b"".join(_CHUNK_DIR.pack(*sizes) for sizes in directory)
        for chunk in chunks:
            data += chunk
    if append and client.exists(base_path):
        writer = client.append(base_path)
    else:
        writer = client.create(base_path)
    writer.write(bytes(data))
    writer.close()
    new_length = client.file_status(base_path).length
    if cache is not None:
        start = new_length - len(data)
        header_bytes = _GROUP_HEADER.size + _CHUNK_DIR.size * len(schema.columns)
        cache.add_written(
            (name, base_path, client.write_epoch(base_path), codec_name),
            start,
            [
                CachedBlock(
                    row_count,
                    header_bytes + sum(c for _u, c in directory),
                    0,  # the chunks are counted in chunk_bytes
                    data={},
                    detail={
                        "header_bytes": header_bytes,
                        "directory": directory,
                        "chunks_start": start + offset + header_bytes,
                        "chunk_remote": {},
                    },
                    written=columns,
                )
                for row_count, offset, directory, columns in groups
            ],
            chunk_bytes,
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
    """Scan row groups, reading only the projected columns' chunks."""
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
    """Yield ``(row_count, {column_index: values})`` per row group.

    With a decode cache, group headers/directories and decoded column
    chunks are cached per ``(path, write_epoch)``; chunks for columns a
    previous scan did not project are decoded (and added) lazily. A
    column of ``late`` comes as in ``co.scan_blocks``: a
    :class:`LateChunk` unless a hit or its writer's values give a vector.
    """
    ncols = len(schema.columns)
    wanted = sorted(set(columns)) if columns is not None else list(range(ncols))
    if not wanted:
        wanted = [0]
    codec = get_codec(codec_name)
    # Each compiles at the first chunk of its column that is decoded.
    column_codecs = {i: ColumnCodec(schema.columns[i]) for i in wanted}
    for path, logical_length in paths.items():
        if logical_length <= 0:
            continue
        reader = client.open(path)
        offset = 0
        index = 0  # of the next group in the cache entry
        if cache is not None:
            key = ("parquet", path, client.write_epoch(path), codec_name)
            entry = cache.open_entry(key)
            # Serve cached row groups inside the visible prefix, up to the
            # first one no scan has read yet.
            for block in cache.prefix(entry, logical_length):
                detail = block.detail
                row_count = block.row_count
                if stats is not None:
                    stats.rows += row_count
                    stats.blocks += 1
                cache.replay_bytes(
                    stats, detail["header_bytes"], 0, block.remote_bytes
                )
                vectors: Columns = {}
                directory = detail["directory"]
                decoded = block.data
                chunk_remotes = detail["chunk_remote"]
                chunk_offset = detail["chunks_start"]
                unread = block.written or {}
                for i in range(ncols):
                    uncompressed_len, compressed_len = directory[i]
                    if i in wanted:
                        values = decoded.get(i)
                        if values is not None:
                            if type(values) is LateChunk and i not in late:
                                values = values.values()
                            cache.replay_bytes(
                                stats, compressed_len, uncompressed_len,
                                chunk_remotes[i],
                            )
                        else:
                            written = unread.get(i)
                            values, chunk_remotes[i] = _read_chunk(
                                client, reader, chunk_offset, compressed_len,
                                uncompressed_len, row_count,
                                column_codecs[i], codec, stats, written,
                                i in late,
                            )
                            if written is not None:  # held since the write
                                cache.fill(block, {i: values})
                            else:
                                decoded[i] = values
                                added = max(uncompressed_len, 64)
                                entry.nbytes += added
                                cache.misses += 1
                                cache.account(entry, added)
                        vectors[i] = values
                    chunk_offset += compressed_len
                yield row_count, vectors
                offset += block.compressed_bytes
                index += 1
        while offset < logical_length:
            reader.seek(offset)
            remote_before = client.remote_bytes_read
            header = reader.read(_GROUP_HEADER.size)
            if len(header) < _GROUP_HEADER.size:
                raise StorageError("truncated row-group header")
            magic, row_count, file_ncols = _GROUP_HEADER.unpack(header)
            if magic != GROUP_MAGIC:
                raise StorageError(f"bad row-group magic 0x{magic:04x}")
            if file_ncols != ncols:
                raise StorageError("row group column count != schema")
            directory_raw = reader.read(_CHUNK_DIR.size * ncols)
            header_remote = client.remote_bytes_read - remote_before
            directory = [
                _CHUNK_DIR.unpack_from(directory_raw, i * _CHUNK_DIR.size)
                for i in range(ncols)
            ]
            block = None
            if cache is not None:
                block = cache.take_unread(entry, index, row_count, directory)
            index += 1
            unread = block.written if block is not None else {}
            chunks_start = offset + _GROUP_HEADER.size + len(directory_raw)
            if stats is not None:
                stats.compressed_bytes += _GROUP_HEADER.size + len(directory_raw)
                stats.rows += row_count
                stats.blocks += 1
            vectors = {}
            chunk_remotes = {}
            chunk_offset = chunks_start
            for i in range(ncols):
                uncompressed_len, compressed_len = directory[i]
                if i in wanted:
                    vectors[i], chunk_remotes[i] = _read_chunk(
                        client, reader, chunk_offset, compressed_len,
                        uncompressed_len, row_count, column_codecs[i],
                        codec, stats, unread.get(i), i in late,
                    )
                chunk_offset += compressed_len
            if block is not None:
                # The written group becomes a cached one; the chunks this
                # scan did not project stay unread.
                block.detail["chunk_remote"].update(chunk_remotes)
                cache.fill(block, vectors, header_remote)
            elif cache is not None and entry.end_offset == offset:
                before = entry.nbytes
                entry.append(
                    CachedBlock(
                        row_count=row_count,
                        compressed_bytes=chunk_offset - offset,
                        uncompressed_bytes=0,  # chunk bytes tracked below
                        remote_bytes=header_remote,
                        data=dict(vectors),  # grows as scans project more
                        detail={
                            "header_bytes": _GROUP_HEADER.size
                            + len(directory_raw),
                            "directory": directory,
                            "chunks_start": chunks_start,
                            "chunk_remote": chunk_remotes,
                        },
                    )
                )
                entry.nbytes += sum(
                    max(directory[i][0], 64) for i in vectors
                )
                cache.misses += 1
                cache.account(entry, entry.nbytes - before)
            yield row_count, vectors
            offset = chunk_offset


def _read_chunk(
    client: HdfsClient,
    reader,
    chunk_offset: int,
    compressed_len: int,
    uncompressed_len: int,
    row_count: int,
    column_codec: ColumnCodec,
    codec,
    stats: Optional[ScanStats],
    written: Optional[Sequence[object]] = None,
    late: bool = False,
) -> Tuple[object, int]:
    """Read + decode one column chunk; returns (values, remote bytes).
    A chunk whose ``written`` values the writer left takes them in place
    of the decode, once the read and its length check have passed; a
    ``late`` one is a :class:`LateChunk`."""
    reader.seek(chunk_offset)
    remote_before = client.remote_bytes_read
    compressed = reader.read(compressed_len)
    chunk_remote = client.remote_bytes_read - remote_before
    payload = codec.decompress(compressed)
    if len(payload) != uncompressed_len:
        raise StorageError("chunk failed decompression check")
    if written is not None:
        values = column_codec.vector(written)
    elif late:
        values = LateChunk(column_codec, payload, row_count)
    else:
        values = column_codec.decode(payload, row_count)
    if stats is not None:
        stats.compressed_bytes += compressed_len
        stats.uncompressed_bytes += uncompressed_len
    return values, chunk_remote
