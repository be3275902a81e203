"""The schema-compiled block codecs against the single-value reference.

``DataType.coerce/encode/decode`` is the one-value-at-a-time API; the
storage formats run whole blocks through ``RowCodec`` (AO) and
``ColumnCodec`` (CO/Parquet). These tests hold the two together:

* a property over random schemas drawn from every ``TypeKind``: the
  compiled encoders write exactly the bytes the per-value reference
  writes, every format reads back what was written through ``scan`` and
  ``scan_blocks`` (with and without a decode cache, whole and
  projected), and the compiled ``coerce_row`` is the per-value coerce;
* damaged payloads surface as ``StorageError`` in every format;
* the bytes of a fixed table in the benchmark's three format+codec
  pairs are pinned by digest: the on-disk formats are frozen.
"""

import datetime
import struct
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench import contract
from repro.bench.statements import FROZEN_FORMATS, written_digest
from repro.catalog import schema as schema_module
from repro.catalog.schema import (
    Column,
    DataType,
    TableSchema,
    TypeKind,
    null_bitmap,
    null_flags,
)
from repro.columnar import as_list
from repro.errors import CatalogError, StorageError
from repro.hdfs import Hdfs
from repro.storage import get_format
from repro.storage.base import ColumnCodec, pack_block
from repro.storage.cache import BlockDecodeCache
from repro.storage.compression import get_codec

FORMATS = ("ao", "co", "parquet")


def make_client():
    fs = Hdfs(block_size=4096, replication=1, seed=5)
    fs.add_datanode("h1")
    return fs.client("h1")


# ------------------------------------------------------ per-value reference
def _null_bitmap(values) -> bytes:
    bitmap = bytearray((len(values) + 7) // 8)
    for i, value in enumerate(values):
        if value is None:
            bitmap[i // 8] |= 1 << (i % 8)
    return bytes(bitmap)


def reference_row_bytes(schema, rows) -> bytes:
    """AO's payload, one ``DataType.encode`` call per value."""
    out = bytearray()
    for row in rows:
        out += _null_bitmap(row)
        for column, value in zip(schema.columns, row):
            if value is not None:
                column.type.encode(value, out)
    return bytes(out)


def reference_chunk_bytes(column, values) -> bytes:
    """A CO/Parquet column chunk, one ``DataType.encode`` call per value."""
    out = bytearray(_null_bitmap(values))
    for value in values:
        if value is not None:
            column.type.encode(value, out)
    return bytes(out)


def reference_decode_rows(schema, payload, count):
    rows, offset = [], 0
    bitmap_len = (len(schema.columns) + 7) // 8
    for _ in range(count):
        bitmap = payload[offset : offset + bitmap_len]
        offset += bitmap_len
        row = []
        for i, column in enumerate(schema.columns):
            if bitmap[i // 8] & (1 << (i % 8)):
                row.append(None)
            else:
                value, offset = column.type.decode(payload, offset)
                row.append(value)
        rows.append(tuple(row))
    assert offset == len(payload)
    return rows


# --------------------------------------------------------------- strategies
_TEXT = st.text(max_size=12)  # includes "", non-ASCII, astral planes
_DATES = st.dates(datetime.date(1, 1, 1), datetime.date(9999, 12, 31))

#: kind -> (type strategy, raw value strategy): raw values are what a
#: loader hands to ``coerce`` (strings for dates, ints for decimals, ...).
_KINDS = {
    TypeKind.INT4: (st.just(DataType(TypeKind.INT4)),
                    st.integers(-(2**31), 2**31 - 1)),
    TypeKind.INT8: (st.just(DataType(TypeKind.INT8)),
                    st.one_of(st.integers(-(2**63), 2**63 - 1), st.booleans())),
    TypeKind.FLOAT8: (st.just(DataType(TypeKind.FLOAT8)),
                      st.one_of(st.floats(allow_nan=False), st.integers(-99, 99))),
    TypeKind.DECIMAL: (
        st.builds(DataType, st.just(TypeKind.DECIMAL), st.just(15),
                  st.one_of(st.none(), st.integers(0, 4))),
        st.one_of(st.floats(-1e9, 1e9), st.integers(-999, 999),
                  st.just("12.3456789")),
    ),
    TypeKind.BOOL: (st.just(DataType(TypeKind.BOOL)),
                    st.one_of(st.booleans(), st.integers(0, 2))),
    TypeKind.CHAR: (st.builds(DataType, st.just(TypeKind.CHAR), st.integers(1, 6)),
                    _TEXT),
    TypeKind.VARCHAR: (
        st.builds(DataType, st.just(TypeKind.VARCHAR),
                  st.one_of(st.none(), st.integers(1, 6))),
        _TEXT,
    ),
    TypeKind.TEXT: (st.just(DataType(TypeKind.TEXT)),
                    st.one_of(_TEXT, st.integers(0, 9))),
    TypeKind.DATE: (st.just(DataType(TypeKind.DATE)),
                    st.one_of(_DATES, _DATES.map(datetime.date.isoformat))),
    TypeKind.BYTEA: (st.just(DataType(TypeKind.BYTEA)),
                     st.one_of(st.binary(max_size=9),
                               st.binary(max_size=4).map(bytearray))),
}
assert set(_KINDS) == set(TypeKind)


@st.composite
def tables(draw):
    """(schema, raw rows): 1-10 columns of any kind; per column NOT NULL
    or a NULL rate of none / sparse / heavy / all; 0, 1, a few, or enough
    rows (a drawn pool, tiled) that the 1024-row blocks split."""
    kinds = draw(st.lists(st.sampled_from(sorted(TypeKind, key=lambda k: k.value)),
                          min_size=1, max_size=10))
    columns, value_strategies = [], []
    for i, kind in enumerate(kinds):
        type_strategy, raw = _KINDS[kind]
        null_rate = draw(st.sampled_from((0.0, 0.0, 0.1, 0.9, 1.0)))
        not_null = null_rate == 0.0 and draw(st.booleans())
        columns.append(Column(f"c{i}", draw(type_strategy), not_null))
        value_strategies.append(
            raw if null_rate == 0.0 else
            st.none() if null_rate == 1.0 else
            st.one_of(st.none(), raw) if null_rate == 0.1 else
            st.one_of(st.none(), st.none(), st.none(), raw)
        )
    pool = draw(st.lists(st.tuples(*value_strategies), min_size=1, max_size=8))
    count = draw(st.sampled_from((0, 1, len(pool), len(pool), 1030)))
    rows = [pool[i % len(pool)] for i in range(count)]
    return TableSchema("t", columns), rows


def _per_value_coerce(schema, row):
    return tuple(col.type.coerce(value) for col, value in zip(schema.columns, row))


# --------------------------------------------------------------- properties
class TestCompiledAgainstPerValue:
    @settings(max_examples=60, deadline=None)
    @given(table=tables())
    def test_encode_bytes_and_decode(self, table):
        schema, raw_rows = table
        rows = [_per_value_coerce(schema, row) for row in raw_rows]
        payload = schema.row_codec().encode_rows(rows)
        assert payload == reference_row_bytes(schema, rows)
        assert reference_decode_rows(schema, payload, len(rows)) == rows
        columns, end = schema.row_codec().decode_rows(payload, 0, len(rows))
        assert end == len(payload)
        assert [len(c) for c in columns] == [len(rows)] * len(schema.columns)
        assert list(zip(*columns)) == rows
        for i, column in enumerate(schema.columns):
            values = [row[i] for row in rows]
            chunk = ColumnCodec(column).encode(values)
            assert chunk == reference_chunk_bytes(column, values)
            assert as_list(ColumnCodec(column).decode(chunk, len(values))) == values

    @settings(max_examples=60, deadline=None)
    @given(table=tables())
    def test_coerce_row(self, table):
        schema, raw_rows = table
        coerce_row = schema.row_codec().coerce_row
        for row in raw_rows[:8]:
            coerced = coerce_row(row)
            assert coerced == _per_value_coerce(schema, row)
            assert [type(v) for v in coerced] == [
                type(v) for v in _per_value_coerce(schema, row)
            ]
            assert schema.coerce_row(list(row)) == coerced
            for i, column in enumerate(schema.columns):
                if column.not_null:
                    with pytest.raises(CatalogError, match="NOT NULL"):
                        coerce_row(row[:i] + (None,) + row[i + 1:])
            with pytest.raises(CatalogError, match="arity"):
                coerce_row(row + (1,))

    @settings(max_examples=80, deadline=None)
    @given(table=tables(), data=st.data())
    def test_coerce_rows_is_coerce_row_by_column(self, table, data):
        """The batch form against the single-row form: same values, same
        types, and — whatever is wrong with the batch, wherever — the
        exception a row-by-row load would have stopped at."""
        schema, raw_rows = table
        codec = schema.row_codec()
        expected = [codec.coerce_row(row) for row in raw_rows]
        coerced = codec.coerce_rows(raw_rows)
        assert coerced == expected
        assert [[type(v) for v in row] for row in coerced] == [
            [type(v) for v in row] for row in expected
        ]
        columns = codec.coerce_columns(raw_rows)
        assert len(columns) == len(schema.columns)
        assert list(zip(*columns)) == expected
        if not raw_rows:
            return
        # Damage one or two rows, each its own way.
        damaged = [tuple(row) for row in raw_rows]
        for _ in range(data.draw(st.integers(1, 2))):
            at = data.draw(st.integers(0, len(damaged) - 1))
            col = data.draw(st.integers(0, len(schema.columns) - 1))
            how = data.draw(st.sampled_from(("short", "long", "null", "junk")))
            row = damaged[at]
            damaged[at] = {
                "short": row[:-1],
                "long": row + (1,),
                "null": row[:col] + (None,) + row[col + 1:],
                "junk": row[:col] + (object(),) + row[col + 1:],
            }[how]
        try:
            expected = [codec.coerce_row(row) for row in damaged]
        except Exception as exc:  # whichever the first bad row raises
            for batch_form in (codec.coerce_rows, codec.coerce_columns):
                with pytest.raises(type(exc)) as caught:
                    batch_form(damaged)
                assert str(caught.value) == str(exc)
        else:  # a NULL where one is allowed, junk a TEXT column can str()
            assert codec.coerce_rows(damaged) == expected

    @settings(max_examples=40, deadline=None)
    @given(table=tables(), data=st.data())
    def test_formats_round_trip(self, table, data):
        schema, raw_rows = table
        coerce_row = schema.row_codec().coerce_row
        rows = [coerce_row(row) for row in raw_rows]
        ncols = len(schema.columns)
        narrow = data.draw(st.integers(0, ncols - 1))
        client = make_client()
        for fmt_name in FORMATS:
            fmt = get_format(fmt_name)
            written = fmt.write(client, f"/{fmt_name}/f", rows, schema, "zlib1")
            assert written.tupcount == len(rows)
            paths = dict(written.paths)
            if fmt_name == "ao":
                data_bytes = client.read_file(f"/{fmt_name}/f")
                assert written.uncompressed_bytes == len(
                    reference_row_bytes(schema, rows)
                )
                assert (len(data_bytes) > 0) == bool(rows)
            cache = BlockDecodeCache()
            # Twice with the cache: the second pass is served from it.
            for use_cache in (None, cache, cache):
                scan = lambda columns: list(  # noqa: E731
                    fmt.scan(client, paths, schema, "zlib1", columns=columns,
                             cache=use_cache)
                )
                blocks = lambda columns: list(  # noqa: E731
                    fmt.scan_blocks(client, paths, schema, "zlib1",
                                    columns=columns, cache=use_cache)
                )
                assert scan(None) == rows
                projected = scan([narrow])
                assert [r[narrow] for r in projected] == [r[narrow] for r in rows]
                assert all(  # unprojected columns are placeholders
                    v is None
                    for r in projected
                    for i, v in enumerate(r)
                    if i != narrow
                )
                assert len(scan([])) == len(rows)
                whole = blocks(None)
                assert sum(n for n, _ in whole) == len(rows)
                assert all(n <= 1024 and set(v) == set(range(ncols)) for n, v in whole)
                for i in range(ncols):
                    column = [x for n, v in whole for x in as_list(v[i])]
                    assert column == [r[i] for r in rows]
                one = blocks([narrow])
                assert all(set(v) == {narrow} for _, v in one)
                assert [x for _, v in one for x in as_list(v[narrow])] == [
                    r[narrow] for r in rows
                ]
                assert sum(n for n, _ in blocks([])) == len(rows)
            assert cache.hits > 0 or not rows


#: Kinds with a struct code, and the length-prefixed ones.
_FIXED_KINDS = sorted((k for k in TypeKind if DataType(k).wire.code), key=lambda k: k.value)
_VARIABLE_KINDS = sorted(
    (k for k in TypeKind if not DataType(k).wire.code), key=lambda k: k.value
)


@st.composite
def mixed_blocks(draw, last_kinds):
    """(schema, coerced rows): up to 7 nullable columns of any kind, the
    last of ``last_kinds``; rows without NULLs and rows with one or more
    interleaved, at least one of each."""
    kinds = draw(st.lists(st.sampled_from(_FIXED_KINDS + _VARIABLE_KINDS), max_size=6))
    kinds.append(draw(st.sampled_from(last_kinds)))
    schema = TableSchema(
        "m", [Column(f"c{i}", draw(_KINDS[k][0])) for i, k in enumerate(kinds)]
    )
    full_row = st.tuples(*(_KINDS[k][1] for k in kinds))
    rows = []
    for nulls in [[]] + draw(
        st.lists(st.lists(st.integers(0, len(kinds) - 1), max_size=3), min_size=1,
                 max_size=30)
    ):
        row = list(draw(full_row))
        for i in nulls:
            row[i] = None
        rows.append(row)
    rows.append([None] * len(kinds))
    rows = draw(st.permutations(rows))
    return schema, [schema.coerce_row(row) for row in rows]


class TestMixedAoBlocks:
    """``RowCodec.decode_rows`` slices every fixed-width field out of one
    flat list per struct run, and a row that holds a NULL writes into the
    same lists value by value: whatever the interleaving, a block reads
    back as the per-value reference reads it."""

    def _check(self, schema, rows):
        payload = schema.row_codec().encode_rows(rows)
        assert payload == reference_row_bytes(schema, rows)
        columns, end = schema.row_codec().decode_rows(payload, 0, len(rows))
        assert end == len(payload)
        decoded = list(zip(*columns))
        assert decoded == reference_decode_rows(schema, payload, len(rows)) == rows
        assert [[type(v) for v in row] for row in decoded] == [
            [type(v) for v in row] for row in rows
        ]

    @settings(max_examples=60, deadline=None)
    @given(table=mixed_blocks(_FIXED_KINDS))
    def test_last_struct_run_is_fixed_width(self, table):
        schema, rows = table
        assert schema.row_codec()._segments[-1][2] is None
        self._check(schema, rows)

    @settings(max_examples=60, deadline=None)
    @given(table=mixed_blocks(_VARIABLE_KINDS))
    def test_last_column_is_variable_width(self, table):
        schema, rows = table
        assert schema.row_codec()._segments[-1][2] == len(schema.columns) - 1
        self._check(schema, rows)


def _typed(*sql_types):
    return TableSchema(
        "s", [Column(f"c{i}", DataType.parse(t)) for i, t in enumerate(sql_types)]
    )


#: Schemas for the column subsets, each with a NULL-free row that
#: ``_subset_rows`` puts a NULL into, column by column.
SUBSET_SCHEMAS = {
    "last column fixed-width": (
        _typed("INT8", "TEXT", "DATE", "VARCHAR(6)", "BOOL", "FLOAT8"),
        (7, "sé", datetime.date(1994, 1, 1), "ab", True, 2.5),
    ),
    "last column variable-width": (
        _typed("INT4", "DATE", "TEXT", "DECIMAL(9,2)", "BYTEA"),
        (-3, datetime.date(1, 1, 1), "", 0.25, b"\x00\xff"),
    ),
    "all fixed-width": (
        _typed("INT8", "FLOAT8", "DATE", "BOOL"),
        (2**40, -0.5, datetime.date(9999, 12, 31), False),
    ),
    "all variable-width": (
        _typed("TEXT", "BYTEA", "CHAR(3)"),
        ("x" * 300, b"", "é𝄞"),
    ),
}


def _subset_rows(schema, full):
    """Rows without NULLs, with one NULL in each column, and all NULL."""
    full = schema.coerce_row(full)
    rows = [full]
    for i in range(len(full)):
        rows += [full[:i] + (None,) + full[i + 1:], full]
    return rows + [(None,) * len(full), full]


class TestColumnSubsets:
    """``decode_rows`` of a subset of the columns builds exactly those
    columns of the full decode, ends where it ends, and leaves the rest
    None."""

    @pytest.mark.parametrize("name", sorted(SUBSET_SCHEMAS))
    def test_every_subset_is_the_full_decode(self, name):
        schema, full = SUBSET_SCHEMAS[name]
        codec = schema.row_codec()
        ncols = len(schema.columns)
        rows = _subset_rows(schema, full)
        for block in ([], rows[:1], rows[1:2], rows):
            payload = codec.encode_rows(block)
            whole, end = codec.decode_rows(payload, 0, len(block))
            assert end == len(payload)
            assert list(zip(*whole)) == block
            for size in range(ncols + 1):
                for wanted in combinations(range(ncols), size):
                    columns, subset_end = codec.decode_rows(
                        payload, 0, len(block), wanted
                    )
                    assert subset_end == end
                    assert columns == [
                        whole[i] if i in wanted else None for i in range(ncols)
                    ]


# ------------------------------------------------------------- NULL bitmaps
def reference_null_flags(bitmap, count):
    return [bool(bitmap[i >> 3] & (1 << (i & 7))) for i in range(count)]


class TestNullBitmaps:
    """The table-driven bitmap codecs against the bit-at-a-time loops."""

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.one_of(st.none(), st.integers(), st.just(0), st.just("")),
                           max_size=70))
    def test_null_bitmap_round_trips(self, values):
        bitmap = null_bitmap(values)
        assert bitmap == _null_bitmap(values)
        assert null_flags(bitmap, len(values)) == [v is None for v in values]

    @settings(max_examples=200, deadline=None)
    @given(bitmap=st.binary(max_size=9), data=st.data())
    def test_null_flags_is_the_bit_loop(self, bitmap, data):
        count = data.draw(st.integers(0, len(bitmap) * 8 + 9))
        try:
            expected = reference_null_flags(bitmap, count)
        except IndexError:
            with pytest.raises(IndexError):
                null_flags(bitmap, count)
        else:
            assert null_flags(bitmap, count) == expected


# ------------------------------------------------------------ the day memo
class TestDayMemo:
    """DATE decodes read a process-wide memo: one ``date`` per day."""

    @pytest.fixture()
    def days(self, monkeypatch):
        memo = schema_module._Days()
        monkeypatch.setattr(schema_module, "_DAYS", memo)
        return memo

    def test_every_decoder_shares_one_date_per_day(self, days):
        column = Column("d", DataType(TypeKind.DATE))
        one = TableSchema("one", [column])
        day = datetime.date(1998, 9, 2)
        chunk = ColumnCodec(column).encode([day, day, None])
        from_chunk = as_list(ColumnCodec(column).decode(chunk, 3))
        rows = one.row_codec().encode_rows([(day,), (None,), (day,)])
        (from_rows,), _end = one.row_codec().decode_rows(rows, 0, 3)
        single, _end = column.type.decode(column.type.wire.pack(day), 0)
        assert from_chunk[:2] == from_rows[::2] == [day, day]
        key = (day - datetime.date(1970, 1, 1)).days
        assert sorted(days) == [0, key]  # 0: the blank in the AO NULL's slot
        assert all(v is days[key] for v in from_chunk[:2] + from_rows[::2] + [single])

    @pytest.mark.parametrize("bad", [2**31 - 1, -(2**31), -719163, 2932897])
    def test_a_day_out_of_range_raises_and_is_not_kept(self, days, bad):
        column = Column("d", DataType(TypeKind.DATE))
        stored = struct.pack("<i", bad)
        with pytest.raises(StorageError):
            ColumnCodec(column).decode(b"\x00" + stored, 1)
        with pytest.raises(StorageError):  # a NULL beside it: the other path
            ColumnCodec(column).decode(b"\x02" + stored, 2)
        codec = TableSchema("d", [column, Column("x", DataType(TypeKind.INT8))]).row_codec()
        with pytest.raises(StorageError):
            codec.decode_rows(b"\x00" + stored + bytes(8), 0, 1)
        with pytest.raises(StorageError):
            codec.decode_rows(b"\x02" + stored, 0, 1)
        assert days == {}

    def test_a_full_memo_is_cleared_whole(self, days, monkeypatch):
        monkeypatch.setattr(schema_module, "_DAY_MEMO_CAP", 4)
        epoch = datetime.date(1970, 1, 1)
        assert schema_module._dates_from_days([0, 1, 2, 3, 1]) == [
            epoch + datetime.timedelta(days=d) for d in (0, 1, 2, 3, 1)
        ]
        assert sorted(days) == [0, 1, 2, 3]
        assert schema_module._dates_from_days([9, 2]) == [
            epoch + datetime.timedelta(days=9), epoch + datetime.timedelta(days=2)
        ]
        assert sorted(days) == [2, 9]


# ------------------------------------------------------------ written values
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, float("nan"), float("inf"), -1e308])
_EPOCH = datetime.date(1970, 1, 1)


@st.composite
def written_columns(draw):
    """(column, coerced values): one column of any kind, its values drawn
    from a small pool (so strings repeat) with no, sparse, heavy or only
    NULLs, 0 to 40 of them; floats include -0.0, NaN and infinities."""
    kind = draw(st.sampled_from(sorted(TypeKind, key=lambda k: k.value)))
    type_strategy, raw = _KINDS[kind]
    if kind in (TypeKind.FLOAT8, TypeKind.DECIMAL):
        raw = st.one_of(raw, _EDGE_FLOATS)
    column = Column("c", draw(type_strategy))
    null_rate = draw(st.sampled_from((0.0, 0.1, 0.9, 1.0)))
    value = (
        raw if null_rate == 0.0 else
        st.none() if null_rate == 1.0 else
        st.one_of(st.none(), raw) if null_rate == 0.1 else
        st.one_of(st.none(), st.none(), st.none(), raw)
    )
    pool = draw(st.lists(value, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=40))
    return column, tuple(column.type.coerce(pool[i]) for i in picks)


def _same_value(got, want):
    assert type(got) is type(want)
    if isinstance(want, float):  # bit for bit: -0.0 and NaN too
        assert struct.pack("<d", got) == struct.pack("<d", want)
    else:
        assert got == want
    if isinstance(want, datetime.date):
        assert got is want is schema_module._DAYS[(want - _EPOCH).days]


def assert_same_column(got, want):
    """``got`` is ``want``'s representation: class, dtype, data bits,
    mask, dictionary and codes, or the same Python values."""
    from repro.columnar.vector import DictVector

    assert type(got) is type(want)
    if isinstance(want, list):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            _same_value(a, b)
        return
    assert got.data.dtype == want.data.dtype
    assert got.data.tobytes() == want.data.tobytes()
    if want.mask is None:
        assert got.mask is None
    else:
        assert got.mask.dtype == want.mask.dtype
        assert got.mask.tolist() == want.mask.tolist()
    if isinstance(want, DictVector):
        assert got.dictionary == want.dictionary
        assert list(map(type, got.dictionary)) == list(map(type, want.dictionary))


#: Each example stands its own day memo up; the backend only pins NumPy.
_FIXTURE_OK = [HealthCheck.function_scoped_fixture]


class TestWrittenValues:
    """A block a writer leaves in the cache is read back from the values
    it wrote: they must come out as the decode of its bytes would."""

    @settings(max_examples=150, deadline=None, suppress_health_check=_FIXTURE_OK)
    @given(written=written_columns())
    def test_column_vector_is_the_decode_of_the_chunk(self, backend, written):
        column, values = written
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(schema_module, "_DAYS", schema_module._Days())
            codec = ColumnCodec(column)
            decoded = codec.decode(codec.encode(values), len(values))
            assert_same_column(codec.vector(values), decoded)

    @settings(max_examples=40, deadline=None, suppress_health_check=_FIXTURE_OK)
    @given(table=tables())
    def test_ao_columns_are_the_decode_of_the_rows(self, backend, table):
        schema, raw_rows = table
        rows = [schema.row_codec().coerce_row(row) for row in raw_rows]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(schema_module, "_DAYS", schema_module._Days())
            codec = schema.row_codec()
            decoded, _end = codec.decode_rows(codec.encode_rows(rows), 0, len(rows))
            written = codec.decoded_columns(rows)
            assert len(written) == len(decoded) == len(schema.columns)
            for got, want in zip(written, decoded):
                assert_same_column(got, want)


# ---------------------------------------------------------------- corruption
DAMAGE_SCHEMA = TableSchema(
    "d",
    [
        Column("k", DataType.parse("INT8"), not_null=True),
        Column("note", DataType.parse("TEXT")),
        Column("day", DataType.parse("DATE")),
    ],
)
DAMAGE_ROWS = [
    (i, f"note-{i}-é", datetime.date(1960, 1, 1) + datetime.timedelta(days=i))
    for i in range(20)
]
NONE = get_codec("none")


def _damaged(payload: bytes, prefix_at: int):
    """(what, payload, row count claimed) for the three kinds of damage,
    given the offset of one string's length prefix."""
    (length,) = struct.unpack_from("<I", payload, prefix_at)
    grown = struct.pack("<I", length + 1)
    huge = struct.pack("<I", 0x7FFFFFFF)
    return [
        ("length prefix off by one",
         payload[:prefix_at] + grown + payload[prefix_at + 4:], len(DAMAGE_ROWS)),
        ("length prefix past the end",
         payload[:prefix_at] + huge + payload[prefix_at + 4:], len(DAMAGE_ROWS)),
        ("cut mid-value", payload[:-3], len(DAMAGE_ROWS)),
        ("cut inside a length prefix", payload[: prefix_at + 2], len(DAMAGE_ROWS)),
        ("more rows claimed", payload, len(DAMAGE_ROWS) + 1),
        ("fewer rows claimed", payload, len(DAMAGE_ROWS) - 1),
    ]


def _assert_storage_error(fmt_name, client, paths, columns):
    fmt = get_format(fmt_name)
    for cache in (None, BlockDecodeCache()):
        with pytest.raises(StorageError):
            list(fmt.scan(client, paths, DAMAGE_SCHEMA, "none",
                          columns=columns, cache=cache))
        with pytest.raises(StorageError):
            list(fmt.scan_blocks(client, paths, DAMAGE_SCHEMA, "none",
                                 columns=columns, cache=cache))


class TestDamagedPayloads:
    """Truncated or corrupt data is a ``StorageError`` — never a
    ``struct.error``/``IndexError``/``UnicodeDecodeError``, and never a
    silently short or shifted block."""

    @pytest.mark.parametrize("columns", [None, [0], [2], []])
    def test_ao(self, columns):
        """Framing damage fails every AO scan, also one that builds no
        value of the damaged column: it still steps over every row."""
        payload = DAMAGE_SCHEMA.row_codec().encode_rows(DAMAGE_ROWS)
        prefix_at = 1 + 8  # row 0: bitmap, k, then note's length prefix
        for what, damaged, count in _damaged(payload, prefix_at):
            client = make_client()
            data = pack_block(damaged, count, NONE)
            client.write_file("/d/f0", data)
            _assert_storage_error("ao", client, {"/d/f0": len(data)}, columns)

    @pytest.mark.parametrize("null_row", [False, True])
    def test_ao_bad_values_fail_only_the_scans_that_read_them(self, null_row):
        """Invalid UTF-8 in ``note`` and a day out of range in ``day``
        pass a scan of ``k`` alone; a later scan that reads either column
        fails — from disk, or on the cache hit that completes the block
        from its kept payload — and the block's good columns still
        serve."""
        codec = DAMAGE_SCHEMA.row_codec()
        rows = list(DAMAGE_ROWS)
        if null_row:  # the bad values sit in a row that holds a NULL
            rows[3] = (3, "note-3-é", None)
            rows[5] = (5, None, rows[5][2])
        payload = bytearray(codec.encode_rows(rows))
        # Row 3's note ends with "é" (then its day, if any); row 5 ends
        # with its day.
        note_end = len(codec.encode_rows(rows[:4])) - 4 * (rows[3][2] is not None)
        day_end = len(codec.encode_rows(rows[:6]))
        assert payload[note_end - 2 : note_end] == "é".encode()
        payload[note_end - 2 : note_end] = b"\xff\xfe"
        payload[day_end - 4 : day_end] = struct.pack("<i", 2**31 - 1)
        client = make_client()
        data = pack_block(bytes(payload), len(rows), NONE)
        client.write_file("/d/f0", data)
        paths = {"/d/f0": len(data)}
        fmt = get_format("ao")
        keys = [row[0] for row in rows]

        def scan(columns, cache):
            blocks = fmt.scan_blocks(client, paths, DAMAGE_SCHEMA, "none",
                                     columns=columns, cache=cache)
            return [x for _, v in blocks for x in v[columns[0]]]

        for cache in (None, BlockDecodeCache()):
            assert scan([0], cache) == keys
            for bad in ([1], [2], [0, 1], [2, 0]):
                with pytest.raises(StorageError, match="corrupt row data"):
                    scan(bad, cache)
            assert scan([0], cache) == keys
        (entry,) = cache._entries.values()
        (block,) = entry.blocks
        assert sorted(block.data) == [0] and block.payload == bytes(payload)
        assert (cache.hits, cache.misses) == (5, 1)

    def test_co(self):
        note = DAMAGE_SCHEMA.columns[1]
        payload = ColumnCodec(note).encode([row[1] for row in DAMAGE_ROWS])
        prefix_at = 3  # after the 20-row null bitmap
        for what, damaged, count in _damaged(payload, prefix_at):
            client = make_client()
            data = pack_block(damaged, count, NONE)
            client.write_file("/d/f0.c1", data)
            _assert_storage_error("co", client, {"/d/f0.c1": len(data)}, [1])

    def test_parquet(self):
        chunks = [
            ColumnCodec(column).encode([row[i] for row in DAMAGE_ROWS])
            for i, column in enumerate(DAMAGE_SCHEMA.columns)
        ]
        prefix_at = 3
        for what, damaged, count in _damaged(chunks[1], prefix_at):
            client = make_client()
            parts = [chunks[0], damaged, chunks[2]]
            data = struct.pack("<HII", 0xA002, count, len(parts))
            for part in parts:  # directory: uncompressed, compressed length
                data += struct.pack("<II", len(part), len(part))
            data += b"".join(parts)
            client.write_file("/d/f0", data)
            _assert_storage_error("parquet", client, {"/d/f0": len(data)}, [1])

    def test_invalid_utf8_and_date_out_of_range(self):
        text, day = DAMAGE_SCHEMA.columns[1], DAMAGE_SCHEMA.columns[2]
        with pytest.raises(StorageError):
            ColumnCodec(text).decode(b"\x00" + struct.pack("<I", 2) + b"\xff\xfe", 1)
        with pytest.raises(StorageError):
            ColumnCodec(day).decode(b"\x00" + struct.pack("<i", 2**31 - 1), 1)
        rows = DAMAGE_SCHEMA.row_codec()
        bad_row = b"\x00" + struct.pack("<qI", 1, 2) + b"\xff\xfe" + struct.pack("<i", 0)
        with pytest.raises(StorageError):
            rows.decode_rows(bad_row, 0, 1)
        with pytest.raises(StorageError):  # NULL-bearing rows take the other path
            rows.decode_rows(b"\x04" + struct.pack("<qI", 1, 9) + b"ab", 0, 1)

    def test_single_value_api_checks_bounds(self):
        with pytest.raises(StorageError):
            DataType(TypeKind.TEXT).decode(struct.pack("<I", 5) + b"abc", 0)


# ------------------------------------------------------ batch coercion
COERCE_SCHEMA = TableSchema(
    "t",
    [
        Column("k", DataType.parse("INT"), not_null=True),
        Column("price", DataType.parse("DECIMAL(10,2)")),
        Column("code", DataType.parse("CHAR(3)")),
        Column("day", DataType.parse("DATE")),
        Column("note", DataType.parse("TEXT")),
    ],
)


class TestCoerceRowsErrors:
    """Named cases of what the property above draws at random: the
    message and class a loader sees do not depend on the batch form."""

    GOOD = [(1, 1.5, "ab", "2001-02-03", "x"), (2, None, "cd", datetime.date(2001, 2, 4), "y"),
            (3, 2, None, None, None)]

    def _both(self, rows):
        codec = COERCE_SCHEMA.row_codec()
        with pytest.raises(Exception) as by_row:
            [codec.coerce_row(row) for row in rows]
        with pytest.raises(type(by_row.value)) as by_column:
            codec.coerce_rows(rows)
        assert str(by_column.value) == str(by_row.value)
        return by_column.value

    def test_wrong_arity(self):
        exc = self._both(self.GOOD + [(4, 1.0, "ab")])
        assert isinstance(exc, CatalogError) and "row arity 3 != 5 for t" in str(exc)

    def test_null_in_not_null(self):
        exc = self._both(self.GOOD + [(None, 1.0, "ab", None, "z")])
        assert isinstance(exc, CatalogError)
        assert str(exc) == "null in NOT NULL column k"

    def test_unparsable_date_and_number(self):
        assert isinstance(
            self._both(self.GOOD + [(4, 1.0, "ab", "next tuesday", "z")]), ValueError
        )
        assert isinstance(
            self._both(self.GOOD + [("four", 1.0, "ab", None, "z")]), ValueError
        )
        assert isinstance(
            self._both(self.GOOD + [(4, "a lot", "ab", None, "z")]), ValueError
        )

    def test_the_first_bad_row_wins_not_the_first_bad_column(self):
        rows = self.GOOD + [(4, 1.0, "ab", "next tuesday", "z"), (None, 1.0, "ab", None, "z")]
        assert isinstance(self._both(rows), ValueError)

    def test_over_long_char_is_truncated(self):
        codec = COERCE_SCHEMA.row_codec()
        rows = self.GOOD + [(4, 1.005, "abcdef", None, 7)]
        coerced = codec.coerce_rows(rows)
        assert coerced == [codec.coerce_row(row) for row in rows]
        assert coerced[-1] == (4, 1.0, "abc", None, "7")
        assert coerced[0][3] == datetime.date(2001, 2, 3)

    def test_canonical_columns_pass_through_untouched(self):
        rows = [(i, None, "ab", datetime.date(2001, 1, 1), f"n{i}") for i in range(5)]
        columns = COERCE_SCHEMA.row_codec().coerce_columns(rows)
        for column, original in zip(columns, zip(*rows)):
            assert all(a is b for a, b in zip(column, original))


def test_every_write_path_coerces_each_value_once(monkeypatch):
    """INSERT, INSERT ... SELECT, COPY and the PXF writable path run a
    column's coercer at most once per value — exactly once where the
    value is not yet in canonical form (INSERT used to coerce in
    ``_shape_rows`` and again in ``load_rows``, COPY in the text
    resolver and again in ``load_rows``)."""
    import repro
    from repro.catalog import schema as schema_module

    calls = {}
    real = schema_module._coercion

    def counting(dtype):
        coerce, canonical, length = real(dtype)

        def counted(value):
            calls[str(dtype)] = calls.get(str(dtype), 0) + 1
            return coerce(value)

        return counted, canonical, length

    monkeypatch.setattr(schema_module, "_coercion", counting)
    engine = repro.Engine(num_segment_hosts=2, segments_per_host=1)
    session = engine.connect()
    ddl = "(k INT NOT NULL, price DECIMAL(10,2), code CHAR(3), day DATE, note TEXT)"
    for name in ("a", "b", "c"):
        session.execute(f"CREATE TABLE {name} {ddl} DISTRIBUTED BY (k)")

    def spent():
        seen = dict(calls)
        calls.clear()
        return seen

    # Three rows: ints and TEXT already canonical, the rest need work.
    session.execute(
        "INSERT INTO a VALUES (1, 1.005, 'abcdef', '2001-02-03', 'x'), "
        "(2, 2.5, 'ab', '2001-02-04', 'y'), (3, 3, 'cd', '2001-02-05', 'z')"
    )
    assert spent() == {"decimal(10,2)": 3, "char(3)": 3, "date": 3}
    # One row goes value by value: every coercer, once.
    session.execute("INSERT INTO a (k, note) VALUES (4, 'w')")
    assert spent() == {"int4": 1, "text": 1}
    # What a SELECT returns is canonical but for the DECIMAL's rounding.
    session.execute("INSERT INTO b SELECT * FROM a WHERE k < 4")
    assert spent() == {"decimal(10,2)": 3}
    # COPY hands load_rows text: every non-empty field parsed once.
    engine.hdfs.client().write_file(
        "/load/c.tbl", b"5|1.005|abcdef|2001-02-03|x\n6||ab||n\n7|2|cd|2001-02-05|z\n"
    )
    session.execute("COPY c FROM '/load/c.tbl'")
    assert spent() == {"int4": 3, "decimal(10,2)": 2, "char(3)": 3, "date": 2}
    assert sorted(session.query("SELECT k, price, code, day, note FROM c")) == [
        (5, 1.0, "abc", datetime.date(2001, 2, 3), "x"),
        (6, None, "ab", None, "n"),
        (7, 2.0, "cd", datetime.date(2001, 2, 5), "z"),
    ]
    session.execute(
        f"CREATE WRITABLE EXTERNAL TABLE sink {ddl} "
        "LOCATION ('pxf://svc/exports/sink.tbl?profile=HdfsTextSimple') FORMAT 'TEXT' ()"
    )
    session.execute(
        "INSERT INTO sink VALUES (1, 1.005, 'abcdef', '2001-02-03', 'x'), "
        "(2, 2.5, 'ab', '2001-02-04', 'y')"
    )
    assert spent() == {"decimal(10,2)": 2, "char(3)": 2, "date": 2}
    assert engine.hdfs.client().read_file("/exports/sink.tbl") == (
        b"1|1.0|abc|2001-02-03|x\n2|2.5|ab|2001-02-04|y\n"
    )


def test_load_rows_takes_any_iterable():
    """The column passes read the batch more than once; a generator or a
    one-shot iterator is materialised first, as the row loop took them."""
    import repro
    from repro.storage.hadoop_formats import HawqTableOutputFormat

    engine = repro.Engine(num_segment_hosts=2, segments_per_host=1)
    session = engine.connect()
    session.execute("CREATE TABLE g (k INT NOT NULL, note TEXT) DISTRIBUTED BY (k)")
    assert session.load_rows("g", ((i, f"n{i}") for i in range(5))) == 5
    assert session.load_rows("g", iter([(5, "n5")])) == 1
    assert session.load_rows("g", iter(())) == 0
    more = ((i, i) for i in range(6, 9))  # note coerced to text
    assert HawqTableOutputFormat(engine).write_table("g", more) == 3
    assert sorted(session.query("SELECT k, note FROM g")) == [
        (i, f"n{i}") if i < 6 else (i, str(i)) for i in range(9)
    ]


# ------------------------------------------------- one codec per version
def test_a_schema_version_compiles_its_row_codec_once():
    """The codec is kept on the (frozen) schema version, so the one-row
    API stops compiling per record — and, like anything kept there, it
    is not part of the schema's value: ``struct.Struct``s cannot pickle,
    yet the schema still does, and a copy compiles its own."""
    import copy
    import dataclasses
    import pickle

    schema = dataclasses.replace(DAMAGE_SCHEMA)
    codec = schema.row_codec()
    assert schema.row_codec() is codec
    out = bytearray()
    schema.encode_row(schema.coerce_row(DAMAGE_ROWS[0]), out)
    assert schema.decode_row(bytes(out), 0) == (DAMAGE_ROWS[0], len(out))
    assert "_segments" in codec.__dict__  # the one-row API compiled this one
    for twin in (copy.deepcopy(schema), pickle.loads(pickle.dumps(schema))):
        assert twin == schema and twin.__dict__.keys() == schema.__getstate__().keys()
        assert twin.row_codec() is not codec
        assert twin.row_codec().encode_rows(DAMAGE_ROWS) == codec.encode_rows(DAMAGE_ROWS)


# ------------------------------------------------------------ frozen format
@pytest.mark.parametrize("fmt_name,codec_name", FROZEN_FORMATS)
def test_on_disk_format_is_frozen(fmt_name, codec_name):
    """sha256 over (path, bytes) of every file one ``write`` produced
    (``statements/frozen_formats``)."""
    contract.check(
        ("statements", "frozen_formats", f"{fmt_name}/{codec_name}"),
        written_digest(fmt_name, codec_name),
    )
