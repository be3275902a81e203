"""Tests for the storage formats (AO/CO/Parquet) and compression."""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.schema import Column, DataType, Distribution, TableSchema
from repro.errors import StorageError
from repro.hdfs import Hdfs
from repro.storage import available_codecs, get_codec, get_format, list_formats
from repro.storage.base import ScanStats
from repro.storage.compression import _rle_compress, _rle_decompress


def make_fs():
    fs = Hdfs(block_size=2048, replication=2, seed=3)
    for host in ("h1", "h2"):
        fs.add_datanode(host)
    return fs


SCHEMA = TableSchema(
    name="t",
    columns=[
        Column("k", DataType.parse("INT8"), not_null=True),
        Column("price", DataType.parse("DECIMAL(12,2)")),
        Column("day", DataType.parse("DATE")),
        Column("note", DataType.parse("VARCHAR(40)")),
        Column("flag", DataType.parse("BOOL")),
    ],
    distribution=Distribution.hash("k"),
)


def sample_rows(n=500):
    return [
        SCHEMA.coerce_row(
            (
                i,
                round(i * 1.25, 2) if i % 11 else None,
                datetime.date(1995, 1 + i % 12, 1 + i % 28),
                f"note-{i}" if i % 5 else None,
                i % 2 == 0,
            )
        )
        for i in range(n)
    ]


class TestCodecs:
    def test_registry(self):
        assert "quicklz" in available_codecs()
        assert "zlib9" in available_codecs()
        with pytest.raises(StorageError):
            get_codec("lz77")

    def test_level_aliasing(self):
        assert get_codec("zlib", 5).name == "zlib5"
        assert get_codec("gzip").name == "gzip1"

    @given(data=st.binary(max_size=2000))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_all_codecs(self, data):
        for name in available_codecs():
            codec = get_codec(name)
            assert codec.decompress(codec.compress(data)) == data

    def test_rle_corrupt_stream(self):
        with pytest.raises(StorageError):
            _rle_decompress(b"\x01\x02")  # not a multiple of 3

    def test_rle_compresses_runs(self):
        data = b"a" * 5000
        assert len(_rle_compress(data)) < 100

    def test_cost_ordering(self):
        """Heavier codecs must cost more CPU (Fig 11's premise)."""
        assert get_codec("none").decompress_cost == 0
        assert (
            get_codec("quicklz").decompress_cost
            < get_codec("zlib1").decompress_cost
            < get_codec("zlib5").decompress_cost
            < get_codec("zlib9").decompress_cost
        )


class TestFormats:
    @pytest.mark.parametrize("fmt_name", ["ao", "co", "parquet"])
    @pytest.mark.parametrize("codec", ["none", "quicklz", "zlib9", "rle"])
    def test_roundtrip(self, fmt_name, codec):
        fs = make_fs()
        client = fs.client("h1")
        fmt = get_format(fmt_name)
        rows = sample_rows()
        result = fmt.write(client, "/t/f0", rows, SCHEMA, codec)
        assert result.tupcount == len(rows)
        out = list(fmt.scan(client, dict(result.paths), SCHEMA, codec))
        assert out == rows

    @pytest.mark.parametrize("fmt_name", ["co", "parquet"])
    def test_projection_reads_fewer_bytes(self, fmt_name):
        fs = make_fs()
        client = fs.client("h1")
        fmt = get_format(fmt_name)
        rows = sample_rows()
        result = fmt.write(client, "/t/f0", rows, SCHEMA, "none")
        full, proj = ScanStats(), ScanStats()
        list(fmt.scan(client, dict(result.paths), SCHEMA, "none", stats=full))
        out = list(
            fmt.scan(
                client, dict(result.paths), SCHEMA, "none", columns=[0], stats=proj
            )
        )
        assert proj.compressed_bytes < full.compressed_bytes / 2
        assert [r[0] for r in out] == [r[0] for r in rows]
        # unprojected columns come back as None placeholders
        assert all(r[3] is None for r in out)

    def test_ao_projection_reads_everything(self):
        """AO is row-oriented: it cannot skip columns (Fig 11's point)."""
        fs = make_fs()
        client = fs.client("h1")
        fmt = get_format("ao")
        result = fmt.write(client, "/t/f0", sample_rows(), SCHEMA, "none")
        full, proj = ScanStats(), ScanStats()
        list(fmt.scan(client, dict(result.paths), SCHEMA, "none", stats=full))
        list(fmt.scan(client, dict(result.paths), SCHEMA, "none", columns=[0], stats=proj))
        assert proj.compressed_bytes == full.compressed_bytes

    def test_ao_projection_is_charged_every_payload_byte(self):
        """An AO scan builds only the columns it reads, but the simulated
        clock still charges it for decoding the whole payload: Fig 11's
        AO-vs-CO gap stays in the cost model."""
        from repro import Engine
        from repro.storage.cache import BlockDecodeCache

        fs = make_fs()
        client = fs.client("h1")
        fmt = get_format("ao")
        result = fmt.write(client, "/t/f0", sample_rows(), SCHEMA, "zlib1")
        (length,) = result.paths.values()
        assert length < result.uncompressed_bytes  # one compressed block
        for cache in (None, BlockDecodeCache()):
            stats = ScanStats()
            blocks = list(fmt.scan_blocks(client, dict(result.paths), SCHEMA,
                                          "zlib1", columns=[0], stats=stats,
                                          cache=cache))
            assert [sorted(columns) for _, columns in blocks] == [[0]]
            assert stats.blocks == 1
            assert stats.uncompressed_bytes == result.uncompressed_bytes

        costs = {}
        for orientation in ("row", "column"):
            engine = Engine(num_segment_hosts=2, segments_per_host=1)
            session = engine.connect()
            session.execute(
                "CREATE TABLE w (k INT8 NOT NULL, price DECIMAL(12,2), day DATE, "
                f"note VARCHAR(40), flag BOOL) WITH (appendonly=true, "
                f"orientation={orientation}, compresstype=zlib, compresslevel=1) "
                "DISTRIBUTED BY (k)"
            )
            session.load_rows("w", sample_rows())
            engine.block_cache.clear()  # decode from disk, not written values
            result = session.execute("SELECT count(k) FROM w")
            assert result.rows == [(500,)]
            costs[orientation] = result.cost.seconds
        # What the whole-row decode charged before AO scans built only the
        # columns they read: the charge must not move by a bit.
        assert costs == {"row": 0.14683830036581197, "column": 0.1468079727931624}
        assert costs["row"] > costs["column"]

    @pytest.mark.parametrize("fmt_name", ["ao", "co", "parquet"])
    def test_append(self, fmt_name):
        fs = make_fs()
        client = fs.client("h1")
        fmt = get_format(fmt_name)
        rows = sample_rows(100)
        first = fmt.write(client, "/t/f0", rows[:60], SCHEMA, "quicklz")
        second = fmt.write(
            client, "/t/f0", rows[60:], SCHEMA, "quicklz", append=True
        )
        out = list(fmt.scan(client, dict(second.paths), SCHEMA, "quicklz"))
        assert out == rows

    @pytest.mark.parametrize("fmt_name", ["ao", "co", "parquet"])
    def test_logical_length_visibility(self, fmt_name):
        """Scanning with the OLD logical lengths must not see appended
        rows — this is how transaction snapshots isolate user data."""
        fs = make_fs()
        client = fs.client("h1")
        fmt = get_format(fmt_name)
        rows = sample_rows(100)
        first = fmt.write(client, "/t/f0", rows[:60], SCHEMA, "none")
        fmt.write(client, "/t/f0", rows[60:], SCHEMA, "none", append=True)
        out = list(fmt.scan(client, dict(first.paths), SCHEMA, "none"))
        assert out == rows[:60]

    @pytest.mark.parametrize("fmt_name", ["ao", "co", "parquet"])
    def test_empty_write(self, fmt_name):
        fs = make_fs()
        client = fs.client("h1")
        fmt = get_format(fmt_name)
        result = fmt.write(client, "/t/f0", [], SCHEMA, "none")
        assert result.tupcount == 0
        assert list(fmt.scan(client, dict(result.paths), SCHEMA, "none")) == []

    def test_column_formats_compress_better(self):
        fs = make_fs()
        client = fs.client("h1")
        rows = sample_rows(1000)
        sizes = {}
        for fmt_name in ("ao", "co"):
            result = get_format(fmt_name).write(
                client, f"/{fmt_name}/f0", rows, SCHEMA, "zlib1"
            )
            sizes[fmt_name] = sum(result.paths.values())
        assert sizes["co"] < sizes["ao"]

    def test_unknown_format(self):
        with pytest.raises(StorageError):
            get_format("orc2")

    def test_list_formats(self):
        assert list_formats() == ["ao", "co", "parquet"]

    def test_corrupt_block_detected(self):
        fs = make_fs()
        client = fs.client("h1")
        fmt = get_format("ao")
        result = fmt.write(client, "/t/f0", sample_rows(10), SCHEMA, "none")
        client2 = fs.client("h1")
        data = client2.read_file("/t/f0")
        client2.delete("/t/f0")
        client2.write_file("/t/f0", b"\x00\x00" + data[2:])
        with pytest.raises(StorageError):
            list(fmt.scan(client2, dict(result.paths), SCHEMA, "none"))


@st.composite
def random_rows(draw):
    n = draw(st.integers(0, 60))
    rows = []
    for i in range(n):
        rows.append(
            (
                draw(st.integers(-(2**40), 2**40)),
                draw(st.one_of(st.none(), st.floats(-1e6, 1e6))),
                draw(
                    st.dates(
                        min_value=datetime.date(1970, 1, 1),
                        max_value=datetime.date(2100, 1, 1),
                    )
                ),
                draw(st.one_of(st.none(), st.text(max_size=30))),
                draw(st.booleans()),
            )
        )
    return rows


class TestPropertyRoundtrip:
    @settings(max_examples=25, deadline=None)
    @given(rows=random_rows())
    def test_all_formats_roundtrip_random_rows(self, rows):
        fs = make_fs()
        client = fs.client("h1")
        coerced = [SCHEMA.coerce_row(r) for r in rows]
        for fmt_name in ("ao", "co", "parquet"):
            fmt = get_format(fmt_name)
            result = fmt.write(
                client, f"/{fmt_name}/p", coerced, SCHEMA, "quicklz"
            )
            out = list(fmt.scan(client, dict(result.paths), SCHEMA, "quicklz"))
            assert out == coerced
            client.delete(f"/{fmt_name}/p") if fmt_name != "co" else None
            for path in result.paths:
                if client.exists(path):
                    client.delete(path)
