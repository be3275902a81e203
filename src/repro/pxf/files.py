"""PXF connectors for HDFS file formats: text/CSV, JSON-lines, and a
sequence-file-like binary record format.

Fragments are HDFS blocks (rounded to record boundaries by reading whole
files per fragment range), located on the block's DataNodes — exactly
the locality information the paper's Fragmenter API exposes.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.catalog.schema import TableSchema, TypeKind
from repro.catalog.stats import TableStats
from repro.errors import PxfError
from repro.hdfs import Hdfs
from repro.pxf.api import (
    Accessor,
    Analyzer,
    Connector,
    DataFragment,
    Fragmenter,
    PushedFilter,
    Resolver,
    Writer,
)


@dataclass(frozen=True)
class _FileSpan:
    path: str
    #: Index of this fragment among the file's fragments, and the total,
    #: so the accessor can stripe records without splitting mid-record.
    part: int
    parts: int


class HdfsFileFragmenter(Fragmenter):
    """One fragment per HDFS block of each matching file."""

    def __init__(self, fs: Hdfs):
        self.fs = fs

    def fragments(self, source: str) -> List[DataFragment]:
        out: List[DataFragment] = []
        # pxf:// locations carry the path without its leading slash.
        if not source.startswith("/"):
            source = "/" + source
        statuses = self.fs.list_status(source)
        if not statuses:
            raise PxfError(f"no HDFS files under {source!r}")
        index = 0
        for status in statuses:
            locations = self.fs.block_locations(status.path)
            parts = max(len(locations), 1)
            for part in range(parts):
                hosts = locations[part].hosts if locations else []
                out.append(
                    DataFragment(
                        source=source,
                        index=index,
                        host=hosts[0] if hosts else None,
                        payload=_FileSpan(status.path, part, parts),
                    )
                )
                index += 1
        return out


class _StripedFileAccessor(Accessor):
    """Reads whole files and stripes records across the file's fragments
    (record i goes to fragment ``i % parts``), so records never split."""

    def __init__(self, fs: Hdfs):
        self.fs = fs

    def records(
        self, fragment: DataFragment, filters: Iterable[PushedFilter]
    ) -> Iterator[object]:
        span: _FileSpan = fragment.payload
        client = self.fs.client()
        for i, record in enumerate(self._parse(client.read_file(span.path))):
            if i % span.parts == span.part:
                yield record

    def _parse(self, data: bytes) -> Iterator[object]:
        raise NotImplementedError


class TextAccessor(_StripedFileAccessor):
    def _parse(self, data: bytes) -> Iterator[str]:
        for line in data.decode("utf-8").splitlines():
            if line:
                yield line


class TextResolver(Resolver):
    """Delimited text (default '|', the TPC-H dbgen delimiter)."""

    def __init__(self, delimiter: str = "|"):
        self.delimiter = delimiter

    def fields(self, record: str, schema: TableSchema) -> List[Optional[str]]:
        """The record's text fields, one per column, still uncoerced;
        an empty field is NULL."""
        parts = record.rstrip(self.delimiter).split(self.delimiter)
        if len(parts) < len(schema.columns):
            raise PxfError(
                f"text record has {len(parts)} fields, need {len(schema.columns)}"
            )
        return [part or None for part in parts[: len(schema.columns)]]

    def resolve(self, record: str, schema: TableSchema) -> Tuple[object, ...]:
        return tuple(
            column.type.coerce(raw)
            for column, raw in zip(schema.columns, self.fields(record, schema))
        )


class JsonAccessor(_StripedFileAccessor):
    def _parse(self, data: bytes) -> Iterator[dict]:
        for line in data.decode("utf-8").splitlines():
            if line.strip():
                yield json.loads(line)


class JsonResolver(Resolver):
    def resolve(self, record: dict, schema: TableSchema) -> Tuple[object, ...]:
        out = []
        for column in schema.columns:
            raw = record.get(column.name)
            out.append(column.type.coerce(raw) if raw is not None else None)
        return tuple(out)


#: Sequence-file record framing: record length then schema-encoded row.
_SEQ_HEADER = struct.Struct("<I")


def write_sequence_file(
    fs: Hdfs, path: str, rows: Iterable[Tuple], schema: TableSchema
) -> int:
    """Writer utility (the OutputFormat side of paper Section 2.1):
    external systems use this to hand data to HAWQ without SQL."""
    client = fs.client()
    row_codec = schema.row_codec()
    data = bytearray()
    count = 0
    for row in rows:
        body = row_codec.encode_rows([row_codec.coerce_row(row)])
        data += _SEQ_HEADER.pack(len(body))
        data += body
        count += 1
    client.write_file(path, bytes(data))
    return count


class SequenceFileAccessor(_StripedFileAccessor):
    def __init__(self, fs: Hdfs, schema_hint: Optional[TableSchema] = None):
        super().__init__(fs)
        self.schema_hint = schema_hint

    def _parse(self, data: bytes) -> Iterator[bytes]:
        offset = 0
        while offset < len(data):
            (length,) = _SEQ_HEADER.unpack_from(data, offset)
            offset += _SEQ_HEADER.size
            yield bytes(data[offset : offset + length])
            offset += length


class SequenceFileResolver(Resolver):
    def resolve(self, record: bytes, schema: TableSchema) -> Tuple[object, ...]:
        row, _ = schema.decode_row(record, 0)
        return row


class FileAnalyzer(Analyzer):
    """Estimates row counts from file sizes (bytes / avg record size)."""

    def __init__(self, fs: Hdfs, bytes_per_record: float):
        self.fs = fs
        self.bytes_per_record = bytes_per_record

    def analyze(self, source: str, schema: TableSchema) -> TableStats:
        if not source.startswith("/"):
            source = "/" + source
        total = sum(s.length for s in self.fs.list_status(source))
        rows = max(total / self.bytes_per_record, 1.0)
        return TableStats(row_count=rows, total_bytes=float(total))


class TextWriter(Writer):
    """Exports rows as delimited text, appending to the location path."""

    def __init__(self, fs: Hdfs, delimiter: str = "|"):
        self.fs = fs
        self.delimiter = delimiter

    def write(self, source, rows, schema):
        """Write rows as delimited text; returns the bytes written so
        the caller can charge them to the simulated clock."""
        if not source.startswith("/"):
            source = "/" + source
        lines = []
        for row in rows:
            lines.append(
                self.delimiter.join(
                    "" if v is None else (v.isoformat() if hasattr(v, "isoformat") else str(v))
                    for v in row
                )
            )
        data = ("\n".join(lines) + "\n").encode("utf-8") if lines else b""
        client = self.fs.client()
        if client.exists(source):
            writer = client.append(source)
            writer.write(data)
            writer.close()
        else:
            client.write_file(source, data)
        return len(data)


class JsonWriter(Writer):
    """Exports rows as JSON lines."""

    def __init__(self, fs: Hdfs):
        self.fs = fs

    def write(self, source, rows, schema):
        if not source.startswith("/"):
            source = "/" + source
        lines = []
        for row in rows:
            record = {}
            for column, value in zip(schema.columns, row):
                if hasattr(value, "isoformat"):
                    value = value.isoformat()
                record[column.name] = value
            lines.append(json.dumps(record))
        data = ("\n".join(lines) + "\n").encode("utf-8") if lines else b""
        client = self.fs.client()
        if client.exists(source):
            writer = client.append(source)
            writer.write(data)
            writer.close()
        else:
            client.write_file(source, data)
        return len(data)


def TextConnector(fs: Hdfs, delimiter: str = "|") -> Connector:
    return Connector(
        profile="hdfstextsimple",
        fragmenter=HdfsFileFragmenter(fs),
        accessor=TextAccessor(fs),
        resolver=TextResolver(delimiter),
        analyzer=FileAnalyzer(fs, 80.0),
        writer=TextWriter(fs, delimiter),
        bytes_per_record=80.0,
    )


def JsonConnector(fs: Hdfs) -> Connector:
    return Connector(
        profile="json",
        fragmenter=HdfsFileFragmenter(fs),
        accessor=JsonAccessor(fs),
        resolver=JsonResolver(),
        analyzer=FileAnalyzer(fs, 120.0),
        writer=JsonWriter(fs),
        bytes_per_record=120.0,
    )


def SequenceFileConnector(fs: Hdfs) -> Connector:
    return Connector(
        profile="sequencefile",
        fragmenter=HdfsFileFragmenter(fs),
        accessor=SequenceFileAccessor(fs),
        resolver=SequenceFileResolver(),
        analyzer=FileAnalyzer(fs, 64.0),
        bytes_per_record=64.0,
    )
