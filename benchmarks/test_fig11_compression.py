"""Figure 11: compression — lineitem size and TPC-H time per codec.

Paper, both scales, codecs none / quicklz / zlib1 / zlib5 / zlib9 for AO
and CO (snappy / gzip for Parquet):

* size: light codecs give ~3x; heavier zlib levels add only slightly;
  column formats compress better than row format;
* time at 160 GB (CPU-bound): higher compression = *slower* (decompression
  CPU buys no IO, data is cached anyway), AO degrades worst;
* time at 1.6 TB (IO-bound): the story flips — compression wins because
  saved IO dwarfs decompression CPU.
"""

from repro.bench import contract
from repro.bench.figures import CODECS, fig11a, fig11b
from repro.bench.reporting import print_figure


def _rows(out):
    return [
        (fmt, codec, cell["lineitem_bytes"] / 1e6, cell["suite_s"])
        for fmt, ladder in out.items()
        for codec, cell in ladder.items()
    ]


def _ladder(out, fmt, key):
    return [out[fmt][codec][key] for codec in CODECS[fmt]]


def test_fig11a_compression_160g(benchmark):
    out = benchmark.pedantic(fig11a, rounds=1, iterations=1)
    print_figure(
        "Figure 11(a): compression at 160GB (CPU-bound)",
        ["format", "codec", "lineitem MB (actual)", "suite s (simulated)"],
        _rows(out),
        notes=[
            "paper: times INCREASE with compression level when CPU-bound",
            "paper: light codecs ~3x ratio; zlib levels add little more",
        ],
    )
    contract.check_figure("fig11a", out)
    for fmt in ("ao", "co", "parquet"):
        sizes = _ladder(out, fmt, "lineitem_bytes")
        times = _ladder(out, fmt, "suite_s")
        # Light codec compresses ~3x; deeper levels shave only a bit more.
        assert sizes[1] < sizes[0] / 2, (fmt, sizes)
        assert sizes[4] <= sizes[1]
        # CPU-bound: compressed runs are slower than uncompressed, and
        # deep zlib is slower than the light codec.
        assert times[4] > times[0], (fmt, times)
        assert times[4] > times[1], (fmt, times)
    # Column formats compress better than the row format.
    assert out["co"]["zlib1"]["lineitem_bytes"] < out["ao"]["zlib1"]["lineitem_bytes"]


def test_fig11b_compression_1600g(benchmark):
    out = benchmark.pedantic(fig11b, rounds=1, iterations=1)
    print_figure(
        "Figure 11(b): compression at 1.6TB (IO-bound)",
        ["format", "codec", "lineitem MB (actual)", "suite s (simulated)"],
        _rows(out),
        notes=["paper: the story flips — compression WINS when IO-bound"],
    )
    contract.check_figure("fig11b", out)
    for fmt in ("ao", "co", "parquet"):
        times = _ladder(out, fmt, "suite_s")
        # IO-bound: any compression beats none.
        assert times[1] < times[0], (fmt, times)
        assert times[2] < times[0], (fmt, times)
