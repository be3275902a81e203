"""Data types, columns, table schemas, distribution and partitioning.

These are the objects the Unified Catalog Service stores and that every
layer above it (storage, planner, executor) consumes.
"""

from __future__ import annotations

import datetime
import enum
import operator
import re
import struct
from dataclasses import dataclass, field, replace
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.columnar import DictVector, as_list
from repro.errors import CatalogError, SemanticError


class TypeKind(enum.Enum):
    """Supported SQL data types."""

    INT4 = "int4"
    INT8 = "int8"
    FLOAT8 = "float8"
    DECIMAL = "decimal"
    BOOL = "bool"
    CHAR = "char"
    VARCHAR = "varchar"
    TEXT = "text"
    DATE = "date"
    BYTEA = "bytea"


_NUMERIC_KINDS = {TypeKind.INT4, TypeKind.INT8, TypeKind.FLOAT8, TypeKind.DECIMAL}
_STRING_KINDS = {TypeKind.CHAR, TypeKind.VARCHAR, TypeKind.TEXT}

_TYPE_ALIASES = {
    "int": TypeKind.INT4,
    "integer": TypeKind.INT4,
    "int4": TypeKind.INT4,
    "smallint": TypeKind.INT4,
    "int8": TypeKind.INT8,
    "bigint": TypeKind.INT8,
    "serial": TypeKind.INT4,
    "float": TypeKind.FLOAT8,
    "float8": TypeKind.FLOAT8,
    "double": TypeKind.FLOAT8,
    "real": TypeKind.FLOAT8,
    "decimal": TypeKind.DECIMAL,
    "numeric": TypeKind.DECIMAL,
    "bool": TypeKind.BOOL,
    "boolean": TypeKind.BOOL,
    "char": TypeKind.CHAR,
    "character": TypeKind.CHAR,
    "varchar": TypeKind.VARCHAR,
    "text": TypeKind.TEXT,
    "date": TypeKind.DATE,
    "bytea": TypeKind.BYTEA,
}

_EPOCH = datetime.date(1970, 1, 1)


@dataclass(frozen=True)
class DataType:
    """A SQL type, possibly parameterized (CHAR(n), DECIMAL(p,s))."""

    kind: TypeKind
    length: Optional[int] = None  # CHAR/VARCHAR width, DECIMAL precision
    scale: Optional[int] = None  # DECIMAL scale

    # ------------------------------------------------------------- factories
    @classmethod
    def parse(cls, text: str) -> "DataType":
        """Parse a SQL type name like ``DECIMAL(15,2)`` or ``VARCHAR(79)``."""
        match = re.fullmatch(
            r"\s*([a-zA-Z][a-zA-Z0-9 ]*?)\s*(?:\(\s*(\d+)\s*(?:,\s*(\d+)\s*)?\))?\s*",
            text,
        )
        if match is None:
            raise CatalogError(f"unparseable type: {text!r}")
        name = " ".join(match.group(1).lower().split())
        if name == "double precision":
            name = "double"
        kind = _TYPE_ALIASES.get(name)
        if kind is None:
            raise CatalogError(f"unknown type: {text!r}")
        length = int(match.group(2)) if match.group(2) else None
        scale = int(match.group(3)) if match.group(3) else None
        return cls(kind, length, scale)

    # ------------------------------------------------------------ properties
    @property
    def is_numeric(self) -> bool:
        return self.kind in _NUMERIC_KINDS

    @property
    def is_string(self) -> bool:
        return self.kind in _STRING_KINDS

    def __str__(self) -> str:
        if self.kind is TypeKind.DECIMAL and self.length is not None:
            return f"decimal({self.length},{self.scale or 0})"
        if self.kind in (TypeKind.CHAR, TypeKind.VARCHAR) and self.length:
            return f"{self.kind.value}({self.length})"
        return self.kind.value

    # --------------------------------------------------------------- values
    def coerce(self, value: object) -> object:
        """Validate/convert a Python value into this type's canonical form."""
        if value is None:
            return None
        kind = self.kind
        if kind in (TypeKind.INT4, TypeKind.INT8):
            return int(value)
        if kind in (TypeKind.FLOAT8, TypeKind.DECIMAL):
            val = float(value)
            if kind is TypeKind.DECIMAL and self.scale is not None:
                return round(val, self.scale)
            return val
        if kind is TypeKind.BOOL:
            return bool(value)
        if kind in _STRING_KINDS:
            text = str(value)
            if kind is TypeKind.CHAR and self.length is not None:
                return text[: self.length]
            if kind is TypeKind.VARCHAR and self.length is not None:
                return text[: self.length]
            return text
        if kind is TypeKind.DATE:
            if isinstance(value, datetime.date):
                return value
            return datetime.date.fromisoformat(str(value))
        if kind is TypeKind.BYTEA:
            return bytes(value) if not isinstance(value, bytes) else value
        raise CatalogError(f"cannot coerce into {self}")

    # ------------------------------------------------------------- encoding
    def encode(self, value: object, out: bytearray) -> None:
        """Append the binary encoding of a non-null value to ``out``."""
        kind = self.kind
        if kind in (TypeKind.INT4, TypeKind.INT8):
            out += struct.pack("<q", value)
        elif kind in (TypeKind.FLOAT8, TypeKind.DECIMAL):
            out += struct.pack("<d", value)
        elif kind is TypeKind.BOOL:
            out += b"\x01" if value else b"\x00"
        elif kind is TypeKind.DATE:
            out += struct.pack("<i", (value - _EPOCH).days)
        elif kind in _STRING_KINDS:
            raw = value.encode("utf-8")
            out += struct.pack("<I", len(raw))
            out += raw
        elif kind is TypeKind.BYTEA:
            out += struct.pack("<I", len(value))
            out += value
        else:  # pragma: no cover - exhaustive over TypeKind
            raise CatalogError(f"cannot encode {self}")

    def decode(self, buf: bytes, offset: int) -> Tuple[object, int]:
        """Decode one value from ``buf`` at ``offset``; returns (value, new offset)."""
        kind = self.kind
        if kind in (TypeKind.INT4, TypeKind.INT8):
            return struct.unpack_from("<q", buf, offset)[0], offset + 8
        if kind in (TypeKind.FLOAT8, TypeKind.DECIMAL):
            return struct.unpack_from("<d", buf, offset)[0], offset + 8
        if kind is TypeKind.BOOL:
            return buf[offset] == 1, offset + 1
        if kind is TypeKind.DATE:
            days = struct.unpack_from("<i", buf, offset)[0]
            return _EPOCH + datetime.timedelta(days=days), offset + 4
        if kind in _STRING_KINDS:
            (length,) = struct.unpack_from("<I", buf, offset)
            start = offset + 4
            return buf[start : start + length].decode("utf-8"), start + length
        if kind is TypeKind.BYTEA:
            (length,) = struct.unpack_from("<I", buf, offset)
            start = offset + 4
            return bytes(buf[start : start + length]), start + length
        raise CatalogError(f"cannot decode {self}")  # pragma: no cover


@dataclass(frozen=True)
class Column:
    """One table column."""

    name: str
    type: DataType
    not_null: bool = False


class DistributionKind(enum.Enum):
    HASH = "hash"
    RANDOM = "random"


@dataclass(frozen=True)
class Distribution:
    """How a table's rows are assigned to segments (paper Section 2.3)."""

    kind: DistributionKind
    columns: Tuple[str, ...] = ()

    @classmethod
    def hash(cls, *columns: str) -> "Distribution":
        if not columns:
            raise CatalogError("hash distribution needs at least one column")
        return cls(DistributionKind.HASH, tuple(c.lower() for c in columns))

    @classmethod
    def random(cls) -> "Distribution":
        return cls(DistributionKind.RANDOM)

    @property
    def is_hash(self) -> bool:
        return self.kind is DistributionKind.HASH


@dataclass(frozen=True)
class Partition:
    """One child partition of a partitioned table."""

    name: str
    #: Range partition: [lower, upper). List partition: tuple of values.
    lower: Optional[object] = None
    upper: Optional[object] = None
    in_values: Optional[Tuple[object, ...]] = None

    def contains(self, value: object) -> bool:
        if self.in_values is not None:
            return value in self.in_values
        if value is None:
            return False
        if self.lower is not None and value < self.lower:
            return False
        if self.upper is not None and value >= self.upper:
            return False
        return True

    def may_satisfy(self, op: str, literal: object) -> bool:
        """Conservative partition-elimination test for ``col <op> literal``."""
        if self.in_values is not None:
            ops = {
                "=": lambda v: v == literal,
                "<": lambda v: v < literal,
                "<=": lambda v: v <= literal,
                ">": lambda v: v > literal,
                ">=": lambda v: v >= literal,
                "<>": lambda v: v != literal,
            }
            test = ops.get(op)
            if test is None:
                return True
            return any(test(v) for v in self.in_values)
        lower, upper = self.lower, self.upper
        if op == "=":
            return self.contains(literal)
        if op in ("<", "<="):
            return lower is None or lower < literal or (op == "<=" and lower <= literal)
        if op in (">", ">="):
            return upper is None or upper > literal
        return True


@dataclass(frozen=True)
class PartitionSpec:
    """PARTITION BY clause: the column plus the expanded child partitions."""

    column: str
    kind: str  # "range" | "list"
    partitions: Tuple[Partition, ...]

    def route(self, value: object) -> Optional[Partition]:
        """Find the partition holding ``value`` (None if out of range)."""
        for part in self.partitions:
            if part.contains(value):
                return part
        return None


@dataclass
class TableSchema:
    """Schema of one table: columns plus physical layout choices."""

    name: str
    columns: List[Column]
    distribution: Distribution = field(default_factory=Distribution.random)
    partition_spec: Optional[PartitionSpec] = None
    #: Storage format: "ao" (row append-only), "co" (column), "parquet".
    storage_format: str = "ao"
    compression: str = "none"

    def __post_init__(self) -> None:
        self.name = self.name.lower()
        seen = set()
        for col in self.columns:
            if col.name.lower() in seen:
                raise CatalogError(f"duplicate column {col.name} in {self.name}")
            seen.add(col.name.lower())
        for col_name in self.distribution.columns:
            self.column_index(col_name)

    # --------------------------------------------------------------- lookups
    def column_index(self, name: str) -> int:
        target = name.lower()
        for i, col in enumerate(self.columns):
            if col.name.lower() == target:
                return i
        raise SemanticError(f"column {name!r} not in table {self.name!r}")

    def column(self, name: str) -> Column:
        return self.columns[self.column_index(name)]

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    # ---------------------------------------------------------- row encoding
    def coerce_row(self, row: Sequence[object]) -> Tuple[object, ...]:
        if len(row) != len(self.columns):
            raise CatalogError(
                f"row arity {len(row)} != {len(self.columns)} for {self.name}"
            )
        out = []
        for col, value in zip(self.columns, row):
            if value is None and col.not_null:
                raise CatalogError(f"null in NOT NULL column {col.name}")
            out.append(col.type.coerce(value))
        return tuple(out)

    def encode_row(self, row: Sequence[object], out: bytearray) -> None:
        """Append row encoding: null bitmap then non-null column values."""
        ncols = len(self.columns)
        bitmap = bytearray((ncols + 7) // 8)
        for i, value in enumerate(row):
            if value is None:
                bitmap[i // 8] |= 1 << (i % 8)
        out += bytes(bitmap)
        for col, value in zip(self.columns, row):
            if value is not None:
                col.type.encode(value, out)

    def decode_row(self, buf: bytes, offset: int) -> Tuple[Tuple[object, ...], int]:
        ncols = len(self.columns)
        bitmap_len = (ncols + 7) // 8
        bitmap = buf[offset : offset + bitmap_len]
        offset += bitmap_len
        values: List[object] = []
        for i, col in enumerate(self.columns):
            if bitmap[i // 8] & (1 << (i % 8)):
                values.append(None)
            else:
                value, offset = col.type.decode(buf, offset)
                values.append(value)
        return tuple(values), offset

    # --------------------------------------------------------------- hashing
    def hash_row(self, row: Sequence[object], num_segments: int) -> int:
        """Route a row to a segment under this table's distribution."""
        if not self.distribution.is_hash:
            raise CatalogError(f"table {self.name} is randomly distributed")
        key = tuple(row[self.column_index(c)] for c in self.distribution.columns)
        return hash_values(key, num_segments)

    def child_schema(self, partition: Partition) -> "TableSchema":
        """Schema for one child partition (same columns/distribution)."""
        return TableSchema(
            name=f"{self.name}_1_prt_{partition.name}",
            columns=list(self.columns),
            distribution=self.distribution,
            partition_spec=None,
            storage_format=self.storage_format,
            compression=self.compression,
        )


_FNV_OFFSET = 0xCBF29CE484222325


def _fnv1a(data: bytes, acc: int = _FNV_OFFSET) -> int:
    """64-bit FNV-1a of ``data``, continuing from state ``acc``."""
    for byte in data:
        acc ^= byte
        acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc


def hash_values(values: Iterable[object], num_segments: int) -> int:
    """Deterministic hash of a distribution key onto a segment id.

    Python's builtin ``hash`` is randomized per process for strings, so a
    stable FNV-1a over the repr is used instead.
    """
    acc = _FNV_OFFSET
    for value in values:
        if isinstance(value, datetime.date):
            data = value.isoformat().encode()
        else:
            data = repr(value).encode()
        acc = _fnv1a(data, acc)
    return acc % num_segments


def _key_texts(column) -> List[str]:
    """Per row, the text :func:`hash_values` would feed FNV for one
    key column (``isoformat`` for dates, ``repr`` for the rest)."""
    if isinstance(column, DictVector):
        # One repr per dictionary entry; code -1 (NULL) finds the last.
        texts = [repr(s) for s in column.dictionary]
        texts.append("None")
        return list(map(texts.__getitem__, column.data.tolist()))
    values = as_list(column)
    if any(issubclass(t, datetime.date) for t in dict.fromkeys(map(type, values))):
        return [
            v.isoformat() if isinstance(v, datetime.date) else repr(v)
            for v in values
        ]
    return list(map(repr, values))


def hash_columns(
    columns: Sequence[object], count: int, num_segments: int
) -> List[int]:
    """``hash_values(key, num_segments)`` for ``count`` keys held
    column-wise (one sequence or column vector per key column).

    FNV-1a runs over the concatenation of the key values' texts, so a
    multi-column key's text is its columns' texts joined. Each distinct
    text of the call is hashed once; every repeat is a dict probe, with
    no per-row Python frame."""
    if not columns:
        return [hash_values((), num_segments)] * count
    texts = _key_texts(columns[0])
    for column in columns[1:]:
        texts = list(map(operator.add, texts, _key_texts(column)))
    places = {
        text: _fnv1a(text.encode()) % num_segments
        for text in dict.fromkeys(texts)
    }
    return list(map(places.__getitem__, texts))
