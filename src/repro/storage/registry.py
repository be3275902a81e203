"""Registry mapping storage-format names to their modules.

Every format module exposes the same interface::

    write(client, base_path, rows, schema, codec_name, append, block_rows)
        -> WriteResult
    scan(client, paths, schema, codec_name, columns, stats, cache)
        -> Iterator[tuple]
    scan_blocks(client, paths, schema, codec_name, columns, stats, cache)
        -> Iterator[(row_count, {column_index: values})]

``scan_blocks`` is the engine's one read path: every table scan, in
both executors, and every whole-table read (ANALYZE, COPY TO, ALTER)
takes decoded column vectors from it block-at-a-time. ``scan`` is its
row view (``rows_from_blocks``) for readers outside the engine: the
InputFormat splits and the Stinger baseline's file reader. ``cache`` is
an optional ``storage.cache.BlockDecodeCache`` that both entries use to
skip re-reading + re-decoding unchanged file prefixes.
"""

from __future__ import annotations

from typing import List

from repro.errors import StorageError
from repro.storage import ao, co, parquet

_FORMATS = {module.name: module for module in (ao, co, parquet)}


def get_format(name: str):
    """Return the format module for ``name`` ('ao', 'co', 'parquet')."""
    module = _FORMATS.get(name.lower())
    if module is None:
        raise StorageError(
            f"unknown storage format {name!r}; available: {sorted(_FORMATS)}"
        )
    return module


def list_formats() -> List[str]:
    return sorted(_FORMATS)
