"""The paper's figures (§8) and the ablations, measured on the simulated clock.

One function per figure returns its cells: simulated seconds (and, for
Fig 11, stored bytes) keyed by system, format, query or node count, as
plain JSON data. The figure benchmarks under ``benchmarks/`` print them
beside the paper's numbers, assert their shapes and compare every cell
with ``CONTRACT.json``; the collector (``python -m repro.bench.contract``)
writes the same cells there. ``HEADLINES`` gives each figure's ratios
with the paper's value of each, which a contract mismatch prints before
and after.
"""

from __future__ import annotations

import statistics
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.harness import (
    BenchConfig,
    NOMINAL_160GB,
    NOMINAL_1600GB,
    default_scale_factor,
    get_data,
    get_hawq,
    get_stinger,
    suite_seconds,
)
from repro.engine import Engine
from repro.interconnect import StreamKey, TcpEndpoint, TcpFabric, UdpEndpoint
from repro.network import NetworkConditions, SimNetwork
from repro.planner.planner import PlannerOptions
from repro.simtime import CostModel
from repro.tpch.queries import COMPLEX_JOIN_QUERIES, SIMPLE_SELECTION_QUERIES
from repro.tpch.schema import load_tpch

#: The paper's overall times (s): Fig 6 at 160 GB, Fig 7 at 1.6 TB.
PAPER_160GB = {"stinger": 7935.0, "ao": 239.0, "co": 211.0, "parquet": 172.0}
PAPER_1600GB = {"stinger": 95502.0, "ao": 5115.0, "co": 2490.0, "parquet": 2950.0}
PAPER_OOM_COUNT = 3

#: Fig 10's queries and the paper's hash-over-random gain.
DISTRIBUTION_QUERIES = (5, 8, 9, 18)
PAPER_DISTRIBUTION_GAIN = 2.0

#: Fig 11's codec ladder per storage format (parquet uses snappy/gzip naming).
CODECS = {
    "ao": ("none", "quicklz", "zlib1", "zlib5", "zlib9"),
    "co": ("none", "quicklz", "zlib1", "zlib5", "zlib9"),
    "parquet": ("none", "snappy", "gzip1", "gzip5", "gzip9"),
}

#: UDP outperforms TCP by 54% under random distribution (Fig 12).
PAPER_UDP_GAIN_RANDOM = 0.54

#: Fig 13: the paper runs these on a subset of machines of the same
#: testbed, with 6 segments per node.
NODES = (4, 8, 12, 16)
PER_NODE_BYTES = 40e9
FIXED_TOTAL_BYTES = 160e9
SEGMENTS_PER_NODE = 6


def _config(nominal, fmt="co", io_cached=False, compression="none", **kwargs) -> BenchConfig:
    return BenchConfig(
        nominal_bytes=nominal,
        scale_factor=default_scale_factor(),
        storage_format=fmt,
        compression=compression,
        io_cached=io_cached,
        **kwargs,
    )


# ------------------------------------------------------- Figs 6 and 7
def _overall(nominal, io_cached) -> dict:
    cells = {}
    for fmt in ("ao", "co", "parquet"):
        cells[fmt] = suite_seconds(get_hawq(_config(nominal, fmt, io_cached)).run_suite())
    results = get_stinger(_config(nominal, "ao", io_cached)).run_suite()
    cells["stinger"] = suite_seconds(results)
    cells["oom"] = sorted(n for n, (_, status) in results.items() if status == "oom")
    return cells


def fig06() -> dict:
    """Overall TPC-H time at 160 GB (CPU-bound): per system, and the
    Stinger queries that OOM (none in the paper)."""
    return _overall(NOMINAL_160GB, io_cached=True)


def fig07() -> dict:
    """Overall TPC-H time at 1.6 TB (IO-bound); Stinger's total excludes
    its reducer-OOM queries, as in the paper."""
    return _overall(NOMINAL_1600GB, io_cached=False)


# ------------------------------------------------------- Figs 8 and 9
def _per_query(numbers) -> dict:
    hawq = get_hawq(_config(NOMINAL_1600GB))
    stinger = get_stinger(_config(NOMINAL_1600GB))
    cells = {}
    for n in numbers:
        result, status = stinger.run_query(n)
        cells[f"Q{n}"] = {
            "hawq": hawq.run_query(n).cost.seconds,
            "stinger": result.seconds if status == "ok" else None,
        }
    return cells


def fig08() -> dict:
    """Simple selection queries at 1.6 TB, CO: HAWQ and Stinger seconds
    per query (Stinger ``None`` where it OOMs)."""
    return _per_query(SIMPLE_SELECTION_QUERIES)


def fig09() -> dict:
    """Complex join queries at 1.6 TB, CO, as Fig 8."""
    return _per_query(COMPLEX_JOIN_QUERIES)


def speedups(cells: dict) -> List[float]:
    """Stinger ÷ HAWQ per query of Fig 8 or 9, OOMs left out."""
    return [q["stinger"] / q["hawq"] for q in cells.values() if q["stinger"] is not None]


# ------------------------------------------------------------- Fig 10
def fig10() -> dict:
    """Hash vs random distribution at 1.6 TB: seconds per format,
    distribution and query."""
    cells = {}
    for fmt in ("ao", "co"):
        for distribution in ("hash", "random"):
            bench = get_hawq(_config(NOMINAL_1600GB, fmt, distribution=distribution))
            cells.setdefault(fmt, {})[distribution] = {
                f"Q{n}": bench.run_query(n).cost.seconds for n in DISTRIBUTION_QUERIES
            }
    return cells


def distribution_gains(cells: dict) -> List[float]:
    """Random ÷ hash seconds per format and query of Fig 10."""
    return [
        cells[fmt]["random"][q] / cells[fmt]["hash"][q]
        for fmt in ("ao", "co")
        for q in cells[fmt]["hash"]
    ]


# ------------------------------------------------------------- Fig 11
def _compression(nominal, io_cached) -> dict:
    cells = {}
    for fmt, codecs in CODECS.items():
        for codec in codecs:
            bench = get_hawq(_config(nominal, fmt, io_cached, compression=codec))
            cells.setdefault(fmt, {})[codec] = {
                "lineitem_bytes": bench.table_stored_bytes("lineitem"),
                "suite_s": suite_seconds(bench.run_suite()),
            }
    return cells


def fig11a() -> dict:
    """Stored lineitem bytes and suite seconds per format and codec at
    160 GB (CPU-bound)."""
    return _compression(NOMINAL_160GB, io_cached=True)


def fig11b() -> dict:
    """The same at 1.6 TB (IO-bound)."""
    return _compression(NOMINAL_1600GB, io_cached=False)


# ------------------------------------------------------------- Fig 12
def fig12() -> dict:
    """Suite seconds at 160 GB, CO, per distribution and transport."""
    cells = {}
    for distribution in ("hash", "random"):
        for transport in ("udp", "tcp"):
            bench = get_hawq(_config(
                NOMINAL_160GB, io_cached=True,
                distribution=distribution, interconnect=transport,
            ))
            cells.setdefault(distribution, {})[transport] = suite_seconds(bench.run_suite())
    return cells


def fig12_packet(num_streams: int = 1024, packets_per_stream: int = 12) -> dict:
    """Simulated seconds to drain many concurrent streams, per transport,
    on the real protocol implementation (``repro.interconnect``)."""
    # UDP: all streams share one socket pair.
    net = SimNetwork(NetworkConditions(loss_rate=0.01), seed=11)
    sender_ep = UdpEndpoint(net, ("a", 1))
    receiver_ep = UdpEndpoint(net, ("b", 1))
    pairs = []
    for i in range(num_streams):
        key = StreamKey(1, 1, 1, i, 1000 + i)
        recv = receiver_ep.create_receiver(key, ("a", 1))
        send = sender_ep.create_sender(key, ("b", 1))
        pairs.append((send, recv))
    for send, _ in pairs:
        for p in range(packets_per_stream):
            send.send(p, size=512)
        send.finish()
    udp_time = net.run(
        until=lambda: all(s.done and r.done for s, r in pairs), max_time=120
    )

    # TCP: one connection per stream, with set-up and concurrency cost.
    net2 = SimNetwork(NetworkConditions(loss_rate=0.01), seed=11)
    fabric = TcpFabric(net2)
    a = TcpEndpoint(fabric, ("a", 1))
    b = TcpEndpoint(fabric, ("b", 1))
    tcp_pairs = []
    for i in range(num_streams):
        key = StreamKey(1, 1, 1, i, 1000 + i)
        recv = b.create_receiver(key)
        send = a.create_sender(key, b)
        recv.attach_sender(send)
        tcp_pairs.append((send, recv))
    for send, _ in tcp_pairs:
        for p in range(packets_per_stream):
            send.send(p, size=512)
        send.finish()
    tcp_time = net2.run(
        until=lambda: all(s.done and r.done for s, r in tcp_pairs), max_time=120
    )
    return {"udp": udp_time, "tcp": tcp_time}


def tcp_gap(cells: dict, distribution: str) -> float:
    """How much slower TCP is than UDP, as a share of UDP (Fig 12)."""
    udp, tcp = cells[distribution]["udp"], cells[distribution]["tcp"]
    return (tcp - udp) / udp


# ------------------------------------------------------------- Fig 13
def _scaling(nominal_per_nodes: Callable[[int], float]) -> dict:
    cells = {}
    for nodes in NODES:
        bench = get_hawq(_config(
            nominal_per_nodes(nodes),
            io_cached=True,  # 160-640GB across 4-16 nodes stays cacheable
            sim_segments=nodes,  # one simulated segment per node...
            paper_segments=nodes * SEGMENTS_PER_NODE,  # ...stands for 6 real ones
        ))
        cells[str(nodes)] = suite_seconds(bench.run_suite())
    return cells


def fig13a() -> dict:
    """Scale-up: suite seconds per node count at 40 GB per node."""
    return _scaling(lambda nodes: PER_NODE_BYTES * nodes)


def fig13b() -> dict:
    """Speed-up: suite seconds per node count at 160 GB in total."""
    return _scaling(lambda nodes: FIXED_TOTAL_BYTES)


# ---------------------------------------------------------- ablations
def _ablation_engine(**kwargs) -> Engine:
    model = CostModel()
    model.io_cached = True
    model.scale = 1000.0
    return Engine(num_segment_hosts=8, segments_per_host=2, cost_model=model, **kwargs)


def _tpch_ablation(sql: str, switch: Callable[[bool], dict]) -> dict:
    """One statement on TPC-H with a mechanism on and off (``switch``
    gives the engine's arguments for each): seconds and slices."""
    data = get_data(default_scale_factor())
    cells = {}
    for enabled in (True, False):
        engine = _ablation_engine(**switch(enabled))
        session = engine.connect()
        load_tpch(session, data=data)
        result = session.execute(sql)
        cells["on" if enabled else "off"] = result.cost.seconds
        cells["slices_on" if enabled else "slices_off"] = len(result.plan.slices)
    return cells


def ablation_direct_dispatch() -> dict:
    """40 single-row lookups with direct dispatch (§3) on and off: total
    seconds and the rows each lookup returned."""
    data = get_data(default_scale_factor())
    keys = [row[0] for row in data.orders[:40]]
    cells = {}
    for enabled in (True, False):
        engine = _ablation_engine(
            planner_options=PlannerOptions(enable_direct_dispatch=enabled)
        )
        session = engine.connect()
        load_tpch(session, data=data)
        total, rows = 0.0, []
        for key in keys:
            result = session.execute(f"SELECT * FROM orders WHERE o_orderkey = {key}")
            rows.append(len(result.rows))
            total += result.cost.seconds
        label = "on" if enabled else "off"
        cells[label] = total
        cells[f"rows_{label}"] = rows
    return cells


def ablation_metadata_dispatch() -> dict:
    """Self-described plans (§3.1) vs catalog RPCs to the master."""
    return _tpch_ablation(
        """
        select n_name, count(*) from customer, orders, nation
        where c_custkey = o_custkey and c_nationkey = n_nationkey
        group by n_name
        """,
        lambda on: {"metadata_dispatch": on},
    )


def ablation_partition_elimination() -> dict:
    """A 6-month slice of 7 years of range partitions (§2.3), pruned and
    not: seconds and the answer (count, sum)."""
    data = get_data(default_scale_factor())
    cells = {}
    for enabled in (True, False):
        engine = _ablation_engine(
            planner_options=PlannerOptions(enable_partition_elimination=enabled)
        )
        session = engine.connect()
        session.execute(
            """
            CREATE TABLE sales_part (id INT, saledate DATE, amt DECIMAL(10,2))
            DISTRIBUTED BY (id)
            PARTITION BY RANGE (saledate)
            (START (date '1992-01-01') INCLUSIVE
             END (date '1999-01-01') EXCLUSIVE
             EVERY (INTERVAL '6 month'))
            """
        )
        # orderkey, orderdate, totalprice
        session.load_rows("sales_part", [(o[0], o[4], float(o[3])) for o in data.orders])
        result = session.execute(
            "SELECT count(*), sum(amt) FROM sales_part "
            "WHERE saledate >= date '1996-01-01' "
            "AND saledate < date '1996-07-01'"
        )
        label = "on" if enabled else "off"
        cells[label] = result.cost.seconds
        cells[f"answer_{label}"] = [str(value) for value in result.rows[0]]
    return cells


def ablation_pipelining() -> dict:
    """Pipelined slices vs staged (materialize-per-stage) execution."""
    return _tpch_ablation(
        """
        select n_name, sum(l_extendedprice * (1 - l_discount)) as rev
        from customer, orders, lineitem, supplier, nation, region
        where c_custkey = o_custkey and l_orderkey = o_orderkey
          and l_suppkey = s_suppkey and c_nationkey = s_nationkey
          and s_nationkey = n_nationkey and n_regionkey = r_regionkey
        group by n_name order by rev desc
        """,
        lambda on: {"pipelined": on},
    )


def ablation_colocation() -> dict:
    """The paper's Figure 3 query with co-location awareness on and off
    (off: every join redistributes, as if every table were random)."""
    return _tpch_ablation(
        """
        select l_orderkey, count(l_quantity)
        from lineitem, orders
        where l_orderkey = o_orderkey and l_tax > 0.01
        group by l_orderkey
        """,
        lambda on: {"planner_options": PlannerOptions(enable_colocation=on)},
    )


# ---------------------------------------------------------- the index
#: Figure name -> its measurement, in the order the benchmarks run.
FIGURES: Dict[str, Callable[[], dict]] = {
    "ablation_direct_dispatch": ablation_direct_dispatch,
    "ablation_metadata_dispatch": ablation_metadata_dispatch,
    "ablation_partition_elimination": ablation_partition_elimination,
    "ablation_pipelining": ablation_pipelining,
    "ablation_colocation": ablation_colocation,
    "fig06": fig06,
    "fig07": fig07,
    "fig08": fig08,
    "fig09": fig09,
    "fig10": fig10,
    "fig11a": fig11a,
    "fig11b": fig11b,
    "fig12": fig12,
    "fig12_packet": fig12_packet,
    "fig13a": fig13a,
    "fig13b": fig13b,
}


def _mean(values: List[float]) -> float:
    return sum(values) / len(values)


def _off_over_on(cells: dict) -> float:
    return cells["off"] / cells["on"]


def _light_codec_ratio(cells: dict) -> float:
    none, light = list(cells["co"].values())[:2]
    return none["lineitem_bytes"] / light["lineitem_bytes"]


Headline = Tuple[str, Callable[[dict], float], Optional[float]]

#: Figure name -> (ratio, how to compute it from the cells, the paper's
#: value or None where the paper gives none).
HEADLINES: Dict[str, List[Headline]] = {
    **{
        name: [("off ÷ on", _off_over_on, None)]
        for name in FIGURES if name.startswith("ablation_")
    },
    **{
        name: [
            (f"Stinger ÷ {label}", (lambda c, f=fmt: c["stinger"] / c[f]),
             paper["stinger"] / paper[fmt])
            for fmt, label in (("ao", "AO"), ("co", "CO"), ("parquet", "Parquet"))
        ]
        for name, paper in (("fig06", PAPER_160GB), ("fig07", PAPER_1600GB))
    },
    # The paper's "~10x" is one figure for the group; Q11 and Q13 carry
    # the mean, so the median is the reading to hold against it.
    "fig08": [("mean Stinger ÷ HAWQ", lambda c: _mean(speedups(c)), 10.0),
              ("median Stinger ÷ HAWQ", lambda c: statistics.median(speedups(c)), 10.0)],
    "fig09": [("mean Stinger ÷ HAWQ", lambda c: _mean(speedups(c)), 40.0)],
    "fig10": [("mean random ÷ hash", lambda c: _mean(distribution_gains(c)),
               PAPER_DISTRIBUTION_GAIN)],
    "fig11a": [("CO lineitem none ÷ quicklz", _light_codec_ratio, 3.0)],
    "fig11b": [("CO lineitem none ÷ quicklz", _light_codec_ratio, 3.0)],
    "fig12": [
        ("hash TCP ÷ UDP", lambda c: 1 + tcp_gap(c, "hash"), 1.0),
        ("random TCP ÷ UDP", lambda c: 1 + tcp_gap(c, "random"), 1 + PAPER_UDP_GAIN_RANDOM),
    ],
    "fig12_packet": [("TCP ÷ UDP", lambda c: c["tcp"] / c["udp"], None)],
    "fig13a": [("16 ÷ 4 nodes", lambda c: c["16"] / c["4"], 1.13)],
    "fig13b": [("16 ÷ 4 nodes", lambda c: c["16"] / c["4"], 0.28)],
}


def collect() -> dict:
    """Every figure's cells, at the benchmarks' scale factor."""
    cells = {"scale_factor": default_scale_factor()}
    for name, measure in FIGURES.items():
        cells[name] = measure()
    return cells
