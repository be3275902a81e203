"""Data types, columns, table schemas, distribution and partitioning.

These are the objects the Unified Catalog Service stores and that every
layer above it (storage, planner, executor) consumes.
"""

from __future__ import annotations

import datetime
import enum
import re
import struct
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import chain, repeat
from operator import is_
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.columnar import as_list
from repro.errors import CatalogError, SemanticError, StorageError


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

_EPOCH_ORDINAL = datetime.date(1970, 1, 1).toordinal()

#: Length prefix of the variable-width kinds.
LENGTH_PREFIX = struct.Struct("<I")


#: Bitmap byte → the NULL flags of its eight values, lowest bit first.
_BYTE_FLAGS = [tuple(bool(byte >> bit & 1) for bit in range(8)) for byte in range(256)]

#: Eight values' NULL flags as one byte each (read as a little-endian
#: ``u64``, in a 1-tuple as ``iter_unpack`` yields it) → their bitmap byte.
_FLAG_BYTES = {
    (int.from_bytes(bytes(flags), "little"),): byte
    for byte, flags in enumerate(_BYTE_FLAGS)
}
_EIGHT_FLAGS = struct.Struct("<Q")


def null_bitmap(values: Sequence[object]) -> bytes:
    """One bit per value, set where it is None: what precedes the
    non-NULL values of a stored row or column chunk. (A byte per value
    first, then eight of those to one bitmap byte: no Python step per
    value.)"""
    flags = bytes(map(is_, values, repeat(None)))
    flags += bytes(-len(flags) % 8)
    return bytes(map(_FLAG_BYTES.__getitem__, _EIGHT_FLAGS.iter_unpack(flags)))


def null_flags(bitmap: bytes, count: int) -> List[bool]:
    """:func:`null_bitmap` read back: True where the value is NULL.
    Raises ``IndexError`` when ``bitmap`` holds fewer than ``count`` bits."""
    flags = list(chain.from_iterable(map(_BYTE_FLAGS.__getitem__, bitmap)))
    if len(flags) < count:
        raise IndexError("null bitmap shorter than its values")
    del flags[count:]
    return flags


def _days_from_dates(dates: Sequence[datetime.date]) -> List[int]:
    return list(map(_EPOCH_ORDINAL.__rsub__, map(datetime.date.toordinal, dates)))


#: Entries the day memo holds before it is cleared whole.
_DAY_MEMO_CAP = 1 << 16


class _Days(dict):
    """Day number (days since 1970-01-01) → its ``date``, made on first
    lookup. A ``date`` is immutable and a pure function of its day, so
    every decoder shares one object per day and no value depends on what
    the memo holds. A day outside ``date``'s range raises (``ValueError``
    or ``OverflowError``) before anything is stored."""

    __slots__ = ()

    def __missing__(self, day: int) -> datetime.date:
        value = datetime.date.fromordinal(_EPOCH_ORDINAL + day)
        if len(self) >= _DAY_MEMO_CAP:
            self.clear()
        self[day] = value
        return value


#: The process's one day memo.
_DAYS = _Days()


def _dates_from_days(days: Sequence[int]) -> List[datetime.date]:
    return list(map(_DAYS.__getitem__, days))


def _utf8_from_strs(texts: Sequence[str]) -> List[bytes]:
    return list(map(str.encode, texts))


def _strs_from_utf8(raws: Sequence[bytes]) -> List[str]:
    return list(map(bytes.decode, raws))  # strict


class WireFormat:
    """How the values of one type kind are stored: a little-endian
    ``struct`` code for the fixed-width kinds, a ``u32`` length prefix
    plus bytes for the rest, and the conversions between a column of
    values and a column of stored forms (whole columns, so that they
    run without a Python frame per value; ``dump`` is None where the
    Python value is stored as it is).

    The one description of the value encoding: :class:`DataType`'s
    single-value API, :class:`RowCodec` and the storage layer's column
    chunks are all composed from it."""

    __slots__ = ("code", "scalar", "dump", "load", "blank", "interned")

    def __init__(self, code, dump=None, load=list, interned=False):
        #: ``struct`` format character, or None for length-prefixed bytes.
        self.code: Optional[str] = code
        self.scalar = struct.Struct("<" + code) if code else None
        #: values -> stored forms, or None for "as they are".
        self.dump: Optional[Callable[[Sequence[object]], Sequence[object]]] = dump
        #: stored forms -> a new list of values.
        self.load: Callable[[Sequence[object]], List[object]] = load
        #: A stored form standing in for NULL where a slot must be filled.
        self.blank: object = 0 if code else b""
        #: Whether ``load`` hands out one shared object per value (DATE's
        #: day memo) rather than a fresh equal one.
        self.interned = interned

    def as_loaded(self, values: Sequence[object]) -> List[object]:
        """``values`` (coerced, None for NULL) as a list, the way ``load``
        returns them from their stored forms: the values themselves, or
        for an interned kind the shared objects, so that a column that was
        never stored holds what a decoded one holds."""
        if not self.interned:
            return list(values)
        if None not in values:
            return self.load(self.dump(values))
        loaded = iter(self.load(self.dump([v for v in values if v is not None])))
        return [None if value is None else next(loaded) for value in values]

    # The single-value forms, for connectors and rows that hold NULLs.
    def pack(self, value: object) -> bytes:
        stored = value if self.dump is None else self.dump((value,))[0]
        if self.scalar is not None:
            return self.scalar.pack(stored)
        return LENGTH_PREFIX.pack(len(stored)) + stored

    def read(self, buf: bytes, offset: int) -> Tuple[object, int]:
        """The stored form of the value at ``offset`` and its end."""
        if self.scalar is not None:
            return self.scalar.unpack_from(buf, offset)[0], offset + self.scalar.size
        start = offset + LENGTH_PREFIX.size
        end = start + LENGTH_PREFIX.unpack_from(buf, offset)[0]
        if end > len(buf):
            raise StorageError("value runs past the end of its payload")
        return buf[start:end], end

    def unpack(self, buf: bytes, offset: int) -> Tuple[object, int]:
        stored, end = self.read(buf, offset)
        return self.load((stored,))[0], end


_INT_WIRE = WireFormat("q")
_FLOAT_WIRE = WireFormat("d")
_TEXT_WIRE = WireFormat(None, _utf8_from_strs, _strs_from_utf8)
_WIRE_FORMATS = {
    TypeKind.INT4: _INT_WIRE,
    TypeKind.INT8: _INT_WIRE,
    TypeKind.FLOAT8: _FLOAT_WIRE,
    TypeKind.DECIMAL: _FLOAT_WIRE,
    TypeKind.BOOL: WireFormat("?"),
    TypeKind.DATE: WireFormat("i", _days_from_dates, _dates_from_days, interned=True),
    TypeKind.CHAR: _TEXT_WIRE,
    TypeKind.VARCHAR: _TEXT_WIRE,
    TypeKind.TEXT: _TEXT_WIRE,
    TypeKind.BYTEA: WireFormat(None),
}


def _coerce_date(value: object) -> datetime.date:
    if isinstance(value, datetime.date):
        return value
    return datetime.date.fromisoformat(str(value))


def _coerce_bytes(value: object) -> bytes:
    return value if isinstance(value, bytes) else bytes(value)


def _coercion(
    dtype: "DataType",
) -> Tuple[Callable[[object], object], Optional[type], Optional[int]]:
    """``(coerce, canonical, length)``: the function taking a non-NULL
    Python value into ``dtype``'s canonical form, and what it returns as
    it is — a value of exactly type ``canonical`` that, for CHAR(n) /
    VARCHAR(n), is no longer than ``length``. ``canonical`` is None where
    nothing passes untouched: DECIMAL(p, s) rounds even a float."""
    kind = dtype.kind
    if kind in (TypeKind.INT4, TypeKind.INT8):
        return int, int, None
    if kind is TypeKind.FLOAT8:
        return float, float, None
    if kind is TypeKind.DECIMAL:
        scale = dtype.scale
        if scale is None:
            return float, float, None
        return (lambda value: round(float(value), scale)), None, None
    if kind is TypeKind.BOOL:
        return bool, bool, None
    if kind in (TypeKind.CHAR, TypeKind.VARCHAR) and dtype.length is not None:
        length = dtype.length
        return (lambda value: str(value)[:length]), str, length
    if kind in _STRING_KINDS:
        return str, str, None
    if kind is TypeKind.DATE:
        return _coerce_date, datetime.date, None
    if kind is TypeKind.BYTEA:
        return _coerce_bytes, bytes, None
    raise CatalogError(f"cannot coerce into {dtype}")  # pragma: no cover


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
    def is_string(self) -> bool:
        return self.kind in _STRING_KINDS

    @property
    def wire(self) -> WireFormat:
        """How this type's values are stored."""
        return _WIRE_FORMATS[self.kind]

    def __str__(self) -> str:
        if self.kind is TypeKind.DECIMAL and self.length is not None:
            return f"decimal({self.length},{self.scale or 0})"
        if self.kind in (TypeKind.CHAR, TypeKind.VARCHAR) and self.length:
            return f"{self.kind.value}({self.length})"
        return self.kind.value

    # --------------------------------------------------------------- values
    # The single-value API (connectors, casts). Blocks of rows go through
    # a :class:`RowCodec`, compiled from the same per-kind functions.
    def coerce(self, value: object) -> object:
        """Validate/convert a Python value into this type's canonical form."""
        return None if value is None else _coercion(self)[0](value)

    def encode(self, value: object, out: bytearray) -> None:
        """Append the binary encoding of a non-null value to ``out``."""
        out += self.wire.pack(value)

    def decode(self, buf: bytes, offset: int) -> Tuple[object, int]:
        """Decode one value from ``buf`` at ``offset``; returns (value, new offset)."""
        return self.wire.unpack(buf, offset)


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


class RowCodec:
    """A table's column types, compiled once per schema version
    (:meth:`TableSchema.row_codec`).

    Rows are stored as a null bitmap followed by the non-NULL values in
    column order. A row without NULLs therefore has a fixed shape — each
    run of adjacent fixed-width columns, together with the length prefix
    of the variable-width column that ends it, is one precompiled
    ``struct.Struct`` — and is packed/unpacked a run at a time, its
    values converted a column at a time. A row that holds a NULL goes
    value by value through the same :class:`WireFormat`s. Compilation is
    lazy: a codec that never reaches a block costs nothing, and it keeps
    no state besides what it compiled, so every reader and writer of the
    version shares it.
    """

    def __init__(self, columns: Sequence[Column], table: str = "") -> None:
        self.columns = columns
        self.table = table

    # -------------------------------------------------------------- coerce
    # One coercer per column serves both forms: a single row calls it per
    # value, a batch maps it down the columns that need it.
    @cached_property
    def _coercions(self) -> List[tuple]:
        return [_coercion(col.type) for col in self.columns]

    @cached_property
    def _coercers(self) -> List[Callable[[object], object]]:
        return [coerce for coerce, _canonical, _length in self._coercions]

    def coerce_columns(self, rows: Sequence[Sequence[object]]) -> List[Sequence[object]]:
        """``rows`` transposed — one sequence per column — with every
        value in its column type's canonical form: :meth:`coerce_row` of
        every row, done a column at a time. A column that already holds
        nothing but its canonical type is passed through untouched; the
        others run their coercer as one ``map``. Raises what the first
        row :meth:`coerce_row` refuses would raise."""
        if len(rows) == 1:  # nothing to amortize the column passes over
            return [(value,) for value in self.coerce_row(rows[0])]
        try:
            return self._coerce_columns(rows)
        except Exception:
            # Down the columns a later row's error can come first; the
            # caller is owed the one a row-by-row load stops at.
            for row in rows:
                self.coerce_row(row)
            raise

    def _coerce_columns(self, rows: Sequence[Sequence[object]]) -> List[Sequence[object]]:
        ncols = len(self.columns)
        if set(map(len, rows)) - {ncols}:  # coerce_columns says which row
            raise CatalogError(f"row arity != {ncols} for {self.table}")
        columns: List[Sequence[object]] = list(zip(*rows)) or [()] * ncols
        none_type = type(None)
        for i, (values, (coerce, canonical, length)) in enumerate(
            zip(columns, self._coercions)
        ):
            kinds = set(map(type, values))
            nullable = none_type in kinds
            if nullable:
                if self.columns[i].not_null:
                    raise CatalogError(
                        f"null in NOT NULL column {self.columns[i].name}"
                    )
                kinds.discard(none_type)
            if kinds <= {canonical} and (
                length is None
                or not kinds
                or max(map(len, filter(None, values)), default=0) <= length
            ):
                continue
            if nullable:
                columns[i] = [
                    None if value is None else coerce(value) for value in values
                ]
            else:
                columns[i] = list(map(coerce, values))
        return columns

    def coerce_rows(self, rows: Sequence[Sequence[object]]) -> List[Tuple[object, ...]]:
        """``[coerce_row(row) for row in rows]``, by column."""
        return list(zip(*self.coerce_columns(rows)))

    def coerce_row(self, row: Sequence[object]) -> Tuple[object, ...]:
        """``row`` with every value in its column type's canonical form."""
        coercers = self._coercers
        if len(row) != len(coercers):
            raise CatalogError(
                f"row arity {len(row)} != {len(coercers)} for {self.table}"
            )
        if None not in row:
            return tuple([fn(value) for fn, value in zip(coercers, row)])
        for col, value in zip(self.columns, row):
            if value is None and col.not_null:
                raise CatalogError(f"null in NOT NULL column {col.name}")
        return tuple(
            [
                None if value is None else fn(value)
                for fn, value in zip(coercers, row)
            ]
        )

    # -------------------------------------------------------------- layout
    @cached_property
    def _wires(self) -> List[WireFormat]:
        return [col.type.wire for col in self.columns]

    @cached_property
    def _zero_bitmap(self) -> bytes:
        return bytes((len(self.columns) + 7) // 8)

    @cached_property
    def _segments(self) -> List[Tuple[struct.Struct, Tuple[int, ...], Optional[int]]]:
        """A NULL-free row as ``(struct, fixed column indexes, variable
        column index or None)`` pieces: the struct covers the fixed
        columns and, when a variable-width column follows them, its
        length prefix; that column's bytes come after it."""
        segments = []
        codes, fixed = "", []
        for i, wire in enumerate(self._wires):
            if wire.code is not None:
                codes += wire.code
                fixed.append(i)
            else:
                segments.append(
                    (struct.Struct(f"<{codes}I"), tuple(fixed), i)
                )
                codes, fixed = "", []
        if fixed:
            segments.append((struct.Struct("<" + codes), tuple(fixed), None))
        return segments

    # -------------------------------------------------------------- encode
    def encode_rows(self, rows: Sequence[Sequence[object]]) -> bytes:
        """The stored bytes of ``rows`` (coerced), back to back."""
        parts = []
        start = 0
        for i, row in enumerate(rows):
            if None in row:
                if start < i:
                    parts.append(self._encode_run(rows[start:i]))
                parts.append(self._encode_nullable_row(row))
                start = i + 1
        if start < len(rows):
            parts.append(self._encode_run(rows[start:]))
        return b"".join(parts)

    def _encode_run(self, rows: Sequence[Sequence[object]]) -> bytes:
        """NULL-free rows: each run of fixed-width columns is packed by
        one ``Struct.pack`` per row, driven column-wise."""
        columns = list(zip(*rows))
        wires = self._wires

        def stored(i: int) -> Sequence[object]:
            dump = wires[i].dump
            return columns[i] if dump is None else dump(columns[i])

        pieces: List[Iterable[bytes]] = [repeat(self._zero_bitmap)]
        for packer, fixed, variable in self._segments:
            fields = [stored(i) for i in fixed]
            if variable is None:
                pieces.append(map(packer.pack, *fields))
            else:
                raws = stored(variable)
                pieces.append(map(packer.pack, *fields, map(len, raws)))
                pieces.append(raws)
        return b"".join(chain.from_iterable(zip(*pieces)))

    def _encode_nullable_row(self, row: Sequence[object]) -> bytes:
        return null_bitmap(row) + b"".join(
            wire.pack(value)
            for wire, value in zip(self._wires, row)
            if value is not None
        )

    # -------------------------------------------------------------- decode
    @cached_property
    def _layouts(self) -> Dict[Optional[frozenset], tuple]:
        return {}

    def _layout(self, wanted: Optional[Iterable[int]]) -> tuple:
        """How a decode of the columns ``wanted`` (None: every column)
        walks a NULL-free row: ``(steps, read)``, ``read`` the columns it
        builds and one step per piece of :attr:`_segments` — ``(struct,
        fixed column indexes read, variable column index or None, whether
        that column is read)``. The struct covers the piece's bytes as
        the piece's does, with a pad for each fixed field not read.
        Compiled once per set of columns."""
        key = None if wanted is None else frozenset(wanted)
        layout = self._layouts.get(key)
        if layout is not None:
            return layout
        read = range(len(self.columns)) if key is None else key
        wires = self._wires
        steps = []
        for unpacker, fixed, variable in self._segments:
            kept = tuple(i for i in fixed if i in read)
            if kept != fixed:
                codes = "".join(
                    wires[i].code if i in read else f"{wires[i].scalar.size}x"
                    for i in fixed
                )
                prefix = "" if variable is None else "I"
                unpacker = struct.Struct(f"<{codes}{prefix}")
            steps.append((unpacker, kept, variable, variable in read))
        layout = self._layouts[key] = (steps, read)
        return layout

    def decode_rows(
        self,
        buf: bytes,
        offset: int,
        row_count: int,
        wanted: Optional[Iterable[int]] = None,
    ) -> Tuple[List[Optional[List[object]]], int]:
        """``row_count`` rows starting at ``offset``, as one list of
        values per column; returns ``(columns, end offset)``. Only the
        columns ``wanted`` (None: every column) are built; the others
        come back as None, their values stepped over by width or length
        prefix and never loaded.

        Raises :class:`StorageError` when the bytes are not that many
        well-formed rows. A value is checked when its column is read: a
        bad one in a column left out (invalid UTF-8, a day out of range)
        fails only the decodes that read it."""
        steps, read = self._layout(wanted)
        zero_bitmap = self._zero_bitmap
        bitmap_len = len(zero_bitmap)
        #: Per step: every row's unpacked struct fields, back to back (a
        #: field is a strided slice), and the variable bytes read.
        fields: List[list] = [[] for _ in steps]
        raws: List[List[bytes]] = [[] for _ in steps]
        plan = [
            (
                unpacker.unpack_from,
                unpacker.size,
                fields[k].extend if kept else None,
                raws[k].append if loaded else None,
            )
            for k, (unpacker, kept, variable, loaded) in enumerate(steps)
            if variable is not None
        ]
        # A trailing fixed-width run is one unpack per row, after the
        # plan, or a step over its width when none of it is read.
        unpacker, kept, variable, _loaded = steps[-1]
        tail_size = unpacker.size if variable is None else 0
        tail_unpack = unpacker.unpack_from if tail_size and kept else None
        tail_extend = fields[-1].extend
        starts_zero = buf.startswith
        nulls: List[Tuple[int, int]] = []  # (row, column) of every NULL read
        try:
            for row in range(row_count):
                if not starts_zero(zero_bitmap, offset):
                    offset = self._decode_nullable_row(
                        buf, offset, row, nulls, steps, read, fields, raws
                    )
                    continue
                offset += bitmap_len
                for unpack, size, extend, append in plan:
                    values = unpack(buf, offset)
                    if extend is not None:
                        extend(values)
                    if append is None:
                        offset += size + values[-1]
                    else:
                        offset += size
                        end = offset + values[-1]
                        append(buf[offset:end])
                        offset = end
                if tail_unpack is not None:
                    tail_extend(tail_unpack(buf, offset))
                offset += tail_size
            if offset > len(buf):
                raise StorageError("row runs past the end of its payload")
            columns: list = [None] * len(self.columns)
            wires = self._wires
            for k, (_unpacker, kept, variable, loaded) in enumerate(steps):
                width = len(kept) + (variable is not None)
                for field_no, i in enumerate(kept):
                    columns[i] = wires[i].load(fields[k][field_no::width])
                if loaded:
                    columns[variable] = wires[variable].load(raws[k])
        except (struct.error, IndexError, ValueError, OverflowError) as exc:
            # ValueError covers UnicodeDecodeError and out-of-range dates.
            raise StorageError(f"corrupt row data: {exc}") from exc
        for row, i in nulls:
            columns[i][row] = None
        return columns, offset

    def decoded_columns(self, rows: Sequence[Sequence[object]]) -> List[List[object]]:
        """The columns :meth:`decode_rows` returns for the bytes
        :meth:`encode_rows` makes of ``rows`` (coerced), built from the
        rows themselves: what a writer leaves in the block cache."""
        if not rows:
            return [[] for _ in self.columns]
        return [wire.as_loaded(column) for wire, column in zip(self._wires, zip(*rows))]

    def _decode_nullable_row(
        self, buf: bytes, offset: int, row: int, nulls, steps, read, fields, raws,
    ) -> int:
        """One row that holds NULLs (its bitmap at ``offset``), value by
        value, into the same per-step lists as a NULL-free row (a blank
        stored value fills each NULL's slot; ``nulls`` remembers the
        ``read`` columns' ones)."""
        end = offset + len(self._zero_bitmap)
        flags = null_flags(buf[offset:end], len(self.columns))
        offset = end
        stored = []
        for i, (wire, null) in enumerate(zip(self._wires, flags)):
            if null:
                if i in read:
                    nulls.append((row, i))
                stored.append(wire.blank)
            else:
                value, offset = wire.read(buf, offset)
                stored.append(value)
        for k, (_unpacker, kept, variable, loaded) in enumerate(steps):
            if kept:
                fields[k].extend([stored[i] for i in kept])
                if variable is not None:
                    fields[k].append(0)  # the length prefix's slot
            if loaded:
                raws[k].append(stored[variable])
        return offset


@dataclass(frozen=True)
class TableSchema:
    """Schema of one table: columns plus physical layout choices. Frozen,
    one instance serves every reader (``columns`` is a list nobody
    mutates). What is derived from a version — its compiled
    :class:`RowCodec`, its bytes in a DISPATCH message — is kept on it by
    :meth:`memo` and is not part of its value: equality, ``pickle`` and
    ``copy`` see the declared fields only."""

    name: str
    columns: List[Column]
    distribution: Distribution = field(default_factory=Distribution.random)
    partition_spec: Optional[PartitionSpec] = None
    #: Storage format: "ao" (row append-only), "co" (column), "parquet".
    storage_format: str = "ao"
    compression: str = "none"

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", self.name.lower())
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

    # ------------------------------------------------------------- derived
    def memo(self, build: Callable[["TableSchema"], object]) -> object:
        """``build(self)``, computed once for this version and kept on it.
        (A frozen instance never rebinds a field, so what was built from
        them stays right for as long as the version lives.)"""
        try:
            return self.__dict__["_memo"][build]
        except KeyError:
            memo = self.__dict__.setdefault("_memo", {})
            return memo.setdefault(build, build(self))

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # ---------------------------------------------------------- row encoding
    def row_codec(self) -> "RowCodec":
        """This version's column types, compiled once."""
        return self.memo(_row_codec)

    # One-row conveniences for connectors and tests; anything that
    # handles rows in bulk takes ``row_codec()`` once.
    def coerce_row(self, row: Sequence[object]) -> Tuple[object, ...]:
        return self.row_codec().coerce_row(row)

    def encode_row(self, row: Sequence[object], out: bytearray) -> None:
        """Append row encoding: null bitmap then non-null column values."""
        out += self.row_codec().encode_rows([row])

    def decode_row(self, buf: bytes, offset: int) -> Tuple[Tuple[object, ...], int]:
        columns, offset = self.row_codec().decode_rows(buf, offset, 1)
        return tuple(column[0] for column in columns), offset

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


def _row_codec(schema: TableSchema) -> RowCodec:
    return RowCodec(schema.columns, schema.name)


_FNV_OFFSET = 0xCBF29CE484222325


def _fnv1a(data: bytes, acc: int = _FNV_OFFSET) -> int:
    """64-bit FNV-1a of ``data``, continuing from state ``acc``."""
    for byte in data:
        acc ^= byte
        acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc


def _hash_text(values: Iterable[object], num_segments: int) -> int:
    """The definition of placement: FNV-1a over the key values' texts
    (``isoformat`` for dates, ``repr`` for the rest), modulo the segment
    count. Python's builtin ``hash`` is randomized per process for
    strings, so it cannot place rows."""
    acc = _FNV_OFFSET
    for value in values:
        if isinstance(value, datetime.date):
            data = value.isoformat().encode()
        else:
            data = repr(value).encode()
        acc = _fnv1a(data, acc)
    return acc % num_segments


#: Exact types for which ``==`` between two values implies the same hash
#: text, so a key made of them can stand for its text in a memo. Left
#: out because equal values of them hash different texts: ``bool``
#: (``True == 1``), ``float`` (``0.0 == -0.0``, ``1.0 == 1``),
#: ``Decimal`` (``Decimal('1.0') == Decimal('1.00')``) and ``datetime``.
_MEMO_TYPES = frozenset({int, str, datetime.date, type(None)})

#: Entries a placement memo holds before it is cleared whole.
_PLACEMENT_MEMO_CAP = 1 << 16

#: Longest string a placement memo keeps as (part of) a key: a key with
#: a longer one (a wide TEXT distribution column) is placed afresh on
#: every lookup instead of staying referenced for the life of the
#: process.
_PLACEMENT_STR_MAX = 64


class _Placements(dict):
    """Key → segment under one segment count, computed on first lookup.

    A one-column key is its value, a wider key the tuple of its values,
    each of a :data:`_MEMO_TYPES` type. The value is a pure function of
    the key, so no answer depends on what the memo holds."""

    __slots__ = ("num_segments",)

    def __init__(self, num_segments: int) -> None:
        super().__init__()
        self.num_segments = num_segments

    def __missing__(self, key: object) -> int:
        values = key if type(key) is tuple else (key,)
        place = _hash_text(values, self.num_segments)
        if not any(type(v) is str and len(v) > _PLACEMENT_STR_MAX for v in values):
            if len(self) >= _PLACEMENT_MEMO_CAP:
                self.clear()
            self[key] = place
        return place


#: One placement memo per segment count, for the life of the process.
_PLACEMENTS: Dict[int, _Placements] = {}


def _placements(num_segments: int) -> _Placements:
    memo = _PLACEMENTS.get(num_segments)
    if memo is None:
        memo = _PLACEMENTS[num_segments] = _Placements(num_segments)
    return memo


def hash_values(values: Iterable[object], num_segments: int) -> int:
    """Deterministic hash of a distribution key onto a segment id
    (:func:`_hash_text`, looked up in the placement memo when every
    value's type allows it)."""
    key = tuple(values)
    if _MEMO_TYPES.issuperset(map(type, key)):
        return _placements(num_segments)[key[0] if len(key) == 1 else key]
    return _hash_text(key, num_segments)


def hash_columns(
    columns: Sequence[object], count: int, num_segments: int
) -> List[int]:
    """``hash_values(key, num_segments)`` for ``count`` keys held
    column-wise (one sequence or column vector per key column).

    When every value has a :data:`_MEMO_TYPES` type (one C-level type
    census), the keys are looked up in the placement memo with one
    C-level ``map``; otherwise each key goes through :func:`hash_values`,
    so :func:`_hash_text` stays the one text of a key."""
    if not columns:
        return [hash_values((), num_segments)] * count
    values = list(map(as_list, columns))
    if _MEMO_TYPES.issuperset(map(type, chain.from_iterable(values))):
        keys = values[0] if len(values) == 1 else zip(*values)
        return list(map(_placements(num_segments).__getitem__, keys))
    return [hash_values(key, num_segments) for key in zip(*values)]
