"""The DISPATCH message's wire format: plan and metadata, by value.

Segments are stateless (paper Section 3.1), so a dispatched plan carries
the schemas, formats and visible file lengths its QEs need. This module
is the size model of that message: :func:`encode` gives the bytes a QE
would be sent and ``build_self_described_plan`` charges their compressed
length. Inside the simulator the payload object itself still travels by
reference, so nothing reads these bytes back and there is no decoder to
keep in step. What the encoding must be is *identity-free* — a function
of the values alone, whoever shares or copies the objects that hold
them — and *complete*: a type it does not know raises ``TypeError``,
nothing is skipped, so a new plan-node field is sized the day it is
added.

A value is one tag byte and then: nothing (``N`` None, ``T`` / ``F``
bool); a varint (``i`` int, zigzagged; ``d`` date as its proleptic
ordinal); eight little-endian bytes (``f`` float); a varint length and
that many bytes (``s`` str as UTF-8, ``b`` bytes, ``D`` Decimal as
text); a varint count and the items (``[`` list, ``(`` tuple, ``{`` dict
as key, value pairs in its own order, ``<`` set in the order of its
items' encodings). A dataclass instance is ``@``, its class's name as a
str and its ``dataclasses.fields`` in declaration order; an enum member
is ``E``, its class's name and its value.

Each table's schema travels once, in ``metadata[name]``, as bytes
encoded once per (frozen, shared) ``TableSchema`` version and kept on
it. The dispatcher keeps each metadata item's bytes too, and
:func:`encode_dispatch` frames the message around them. A scan's ``TableSource`` is ``^`` and the table's name — QEs resolve
``metadata[name]`` — except an external table's, which has no metadata
entry and goes whole: name, schema and PXF options.
"""

from __future__ import annotations

import dataclasses
import datetime
import enum
import operator
import struct
from decimal import Decimal
from typing import Callable, Sequence

from repro.catalog.schema import TableSchema
from repro.planner.logical import TableSource

Encoder = Callable[[object, bytearray], None]

_pack_double = struct.Struct("<d").pack


def _uint(n: int, out: bytearray) -> None:
    while n > 0x7F:
        out.append(n & 0x7F | 0x80)
        n >>= 7
    out.append(n)


def _none(value: None, out: bytearray) -> None:
    out += b"N"


def _bool(value: bool, out: bytearray) -> None:
    out += b"T" if value else b"F"


def _int(value: int, out: bytearray) -> None:
    out += b"i"
    _uint(value << 1 if value >= 0 else ~value << 1 | 1, out)


def _float(value: float, out: bytearray) -> None:
    out += b"f"
    out += _pack_double(value)


def _date(value: datetime.date, out: bytearray) -> None:
    out += b"d"
    _uint(value.toordinal(), out)


def _sized(tag: bytes, dump: Callable[[object], bytes]) -> Encoder:
    def encode_sized(value: object, out: bytearray) -> None:
        raw = dump(value)
        out += tag
        _uint(len(raw), out)
        out += raw

    return encode_sized


#: ``i`` and the one varint byte of each int in ``range(64)``.
_SMALL_INTS = [b"i" + bytes((n << 1,)) for n in range(64)]


def _values(values, out: bytearray) -> None:
    """Each of ``values`` in turn. A list or tuple inside is written
    here, and so are the values a plan is mostly made of — an int in
    ``range(64)``, an ASCII str shorter than 128, a float, None — the
    bytes their own encoders write; the rest go through ``_ENCODERS``."""
    for value in values:
        cls = type(value)
        if cls is int and 0 <= value < 64:
            out += _SMALL_INTS[value]
        elif cls is str and len(value) < 128 and value.isascii():
            out += b"s"
            out.append(len(value))
            out += value.encode()
        elif cls is tuple or cls is list:
            out += b"(" if cls is tuple else b"["
            count = len(value)
            if count < 0x80:  # its one varint byte
                out.append(count)
            else:
                _uint(count, out)
            _values(value, out)
        elif cls is float:
            out += b"f"
            out += _pack_double(value)
        elif value is None:
            out += b"N"
        else:
            _ENCODERS[cls](value, out)


def _sequence(value, out: bytearray) -> None:
    """A list or tuple: tag, count and items, as :func:`_values` writes
    one."""
    _values((value,), out)


def _dict(mapping: dict, out: bytearray) -> None:
    out += b"{"
    _uint(len(mapping), out)
    for key, value in mapping.items():
        _ENCODERS[type(key)](key, out)
        _ENCODERS[type(value)](value, out)


def _set(values, out: bytearray) -> None:
    out += b"<"
    _uint(len(values), out)
    out += b"".join(sorted(map(encode, values)))


def _dataclass(cls: type) -> Encoder:
    head = b"@" + encode(cls.__name__)
    names = [field.name for field in dataclasses.fields(cls)]
    if len(names) > 1:
        fields = operator.attrgetter(*names)
    else:  # attrgetter of one name gives the value bare, not a tuple

        def fields(obj: object) -> tuple:
            return tuple(getattr(obj, name) for name in names)

    def encode_fields(obj: object, out: bytearray) -> None:
        out += head
        _values(fields(obj), out)

    return encode_fields


def _enum(cls: type) -> Encoder:
    head = b"E" + encode(cls.__name__)

    def encode_member(member: enum.Enum, out: bytearray) -> None:
        out += head
        _ENCODERS[type(member.value)](member.value, out)

    return encode_member


def _schema_bytes(schema: TableSchema) -> bytes:
    out = bytearray()
    _schema_fields(schema, out)
    return bytes(out)


def _schema(schema: TableSchema, out: bytearray) -> None:
    out += schema.memo(_schema_bytes)


def _source(source: TableSource, out: bytearray) -> None:
    if source.external:
        _source_fields(source, out)
    else:
        out += b"^"
        _ENCODERS[str](source.table_name, out)


class _Encoders(dict):
    """Type -> encoder. A dataclass or enum class compiles its own at
    first sight — a pure function of the class, so whichever statement
    meets a class first stores what any other would have."""

    def __missing__(self, cls: type) -> Encoder:
        if dataclasses.is_dataclass(cls):
            encoder = _dataclass(cls)
        elif issubclass(cls, enum.Enum):
            encoder = _enum(cls)
        else:
            raise TypeError(
                f"no wire encoding for {cls.__module__}.{cls.__qualname__}"
            )
        self[cls] = encoder
        return encoder


_ENCODERS = _Encoders(
    {
        type(None): _none,
        bool: _bool,
        int: _int,
        float: _float,
        str: _sized(b"s", str.encode),
        bytes: _sized(b"b", bytes),
        Decimal: _sized(b"D", lambda value: str(value).encode()),
        datetime.date: _date,
        list: _sequence,
        tuple: _sequence,
        dict: _dict,
        set: _set,
        frozenset: _set,
        TableSchema: _schema,
        TableSource: _source,
    }
)


def encode(value: object) -> bytes:
    """The wire bytes of ``value`` (for a DISPATCH message: of
    ``(plan, metadata)``). Raises ``TypeError`` on a type, anywhere
    inside it, that has no encoding."""
    out = bytearray()
    _ENCODERS[type(value)](value, out)
    return bytes(out)


def encode_dispatch(plan: object, entries: Sequence[bytes]) -> bytes:
    """``encode((plan, metadata))`` from the plan and each metadata
    item's bytes already encoded (``encode(name) + encode(value)``, in
    the dict's order): the same framing :func:`encode` writes for a
    2-tuple and a dict, so the bytes are identical."""
    out = bytearray(b"(\x02")
    _ENCODERS[type(plan)](plan, out)
    out += b"{"
    _uint(len(entries), out)
    for entry in entries:
        out += entry
    return bytes(out)


# The two classes with an encoding of their own, field by field (down
# here because compiling a class encodes its name).
_schema_fields = _dataclass(TableSchema)
_source_fields = _dataclass(TableSource)
