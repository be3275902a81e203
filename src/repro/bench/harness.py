"""Shared set-up for the figure benchmarks.

The paper's testbed: 16 segment hosts x 6 HAWQ segments (96 segments),
or 16 nodes x 9 YARN containers for Stinger; TPC-H at 160 GB (CPU-bound,
fits in page cache) and 1.6 TB (IO-bound).

We execute on dbgen data at a small scale factor and simulate the rest:
``scale = nominal_bytes / actual_bytes`` re-inflates every per-byte and
per-tuple cost. HAWQ runs ``sim_segments`` Python-simulated segments
standing in for the paper's 96, so its model scale divides by
``96 / sim_segments`` (each simulated segment holds that many real
segments' share of data).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.baselines import StingerEngine
from repro.baselines.mapreduce import ReducerOutOfMemory
from repro.engine import Engine
from repro.executor.expr import estimate_row_bytes
from repro.executor.runner import QueryResult
from repro.simtime import CostModel
from repro.tpch.dbgen import TpchData, generate
from repro.tpch.queries import QUERIES
from repro.tpch.schema import TABLE_NAMES, load_tpch

#: Paper cluster geometry.
PAPER_SEGMENTS = 96
PAPER_NODES = 16
PAPER_CONTAINERS_PER_NODE = 9

NOMINAL_160GB = 160e9
NOMINAL_1600GB = 1.6e12


def default_scale_factor() -> float:
    """dbgen scale factor used by the benchmarks (env-overridable)."""
    return float(os.environ.get("REPRO_TPCH_SF", "0.002"))


def raw_bytes(data: TpchData) -> float:
    """Approximate raw (uncompressed) size of the generated dataset."""
    total = 0
    for name in TABLE_NAMES:
        total += sum(estimate_row_bytes(r) for r in getattr(data, name))
    return float(total)


@dataclass
class BenchConfig:
    """One experimental configuration."""

    nominal_bytes: float = NOMINAL_160GB
    scale_factor: float = 0.002
    storage_format: str = "ao"
    compression: str = "none"
    distribution: str = "hash"
    interconnect: str = "udp"
    io_cached: bool = True  # 160GB fits in memory; 1.6TB does not
    sim_segments: int = 16
    paper_segments: int = PAPER_SEGMENTS
    seed: int = 19940601

    def model_scale(self, actual_bytes: float) -> float:
        per_real_segment = self.nominal_bytes / self.paper_segments
        per_sim_segment = actual_bytes / self.sim_segments
        return per_real_segment / max(per_sim_segment, 1.0)


@dataclass
class HawqBench:
    """A loaded HAWQ cluster ready to run the TPC-H suite."""

    config: BenchConfig
    engine: Engine
    session: object
    data: TpchData
    actual_bytes: float
    _results: Dict[int, QueryResult] = field(default_factory=dict)

    @classmethod
    def create(
        cls, config: BenchConfig, data: Optional[TpchData] = None
    ) -> "HawqBench":
        model = CostModel()
        model.io_cached = config.io_cached
        model.modeled_segments = config.paper_segments
        engine = Engine(
            num_segment_hosts=config.sim_segments,
            segments_per_host=1,
            cost_model=model,
            interconnect=config.interconnect,
            seed=config.seed,
        )
        session = engine.connect()
        if data is None:
            data = generate(config.scale_factor, seed=config.seed)
        load_tpch(
            session,
            scale=config.scale_factor,
            storage_format=config.storage_format,
            compression=config.compression,
            distribution=config.distribution,
            data=data,
        )
        actual = raw_bytes(data)
        model.scale = config.model_scale(actual)
        return cls(
            config=config,
            engine=engine,
            session=session,
            data=data,
            actual_bytes=actual,
        )

    def run_query(self, number: int) -> QueryResult:
        """Run one TPC-H query; returns the SELECT's result (memoized —
        execution is deterministic, so figure benchmarks sharing a
        configuration reuse each other's runs)."""
        if number in self._results:
            return self._results[number]
        result: Optional[QueryResult] = None
        for stmt in QUERIES[number]:
            r = self.session.execute(stmt)
            if r.plan is not None:
                result = r
        assert result is not None
        self._results[number] = result
        return result

    def run_suite(self, numbers=None) -> Dict[int, QueryResult]:
        numbers = numbers or sorted(QUERIES)
        return {n: self.run_query(n) for n in numbers}

    def table_stored_bytes(self, table: str) -> int:
        """Physical (compressed) bytes of one table on HDFS."""
        with self.engine.txns.run() as txn:
            files = self.engine.catalog.segfiles(table, txn.statement_snapshot())
        return sum(sum(segfile["paths"].values()) for segfile in files)


@dataclass
class StingerBench:
    """A loaded Stinger warehouse ready to run the suite."""

    config: BenchConfig
    engine: StingerEngine
    data: TpchData
    actual_bytes: float
    _results: Dict[int, Tuple[object, str]] = field(default_factory=dict)

    @classmethod
    def create(
        cls, config: BenchConfig, data: Optional[TpchData] = None
    ) -> "StingerBench":
        if data is None:
            data = generate(config.scale_factor, seed=config.seed)
        actual = raw_bytes(data)
        model = CostModel()
        model.io_cached = config.io_cached
        stinger = StingerEngine(
            num_nodes=PAPER_NODES,
            containers_per_node=PAPER_CONTAINERS_PER_NODE,
            cost_model=model,
            scale=config.nominal_bytes / actual,
            seed=config.seed,
        )
        from repro.catalog.schema import TableSchema
        from repro.tpch.schema import create_table_sql
        from repro.ddl import schema_from_ast
        from repro.sql.parser import parse_statement

        for table in TABLE_NAMES:
            ddl = parse_statement(create_table_sql(table, "ao", "none", "hash"))
            schema = schema_from_ast(ddl)
            stinger.load_table(schema, getattr(data, table))
        return cls(config=config, engine=stinger, data=data, actual_bytes=actual)

    def run_query(self, number: int):
        """Run one query; returns (result_or_None, 'ok'|'oom'). Memoized."""
        if number in self._results:
            return self._results[number]
        result = None
        try:
            for stmt in QUERIES[number]:
                r = self.engine.execute(stmt)
                if r.column_names:
                    result = r
            outcome = (result, "ok")
        except ReducerOutOfMemory:
            outcome = (None, "oom")
        self._results[number] = outcome
        return outcome

    def run_suite(self, numbers=None) -> Dict[int, Tuple[object, str]]:
        numbers = numbers or sorted(QUERIES)
        return {n: self.run_query(n) for n in numbers}


# --------------------------------------------------------------- memoization
_DATA_CACHE: Dict[Tuple[float, int], TpchData] = {}
_HAWQ_CACHE: Dict[tuple, HawqBench] = {}
_STINGER_CACHE: Dict[tuple, StingerBench] = {}


def get_data(scale_factor: float, seed: int = 19940601) -> TpchData:
    key = (scale_factor, seed)
    if key not in _DATA_CACHE:
        _DATA_CACHE[key] = generate(scale_factor, seed=seed)
    return _DATA_CACHE[key]


def _config_key(config: BenchConfig) -> tuple:
    return (
        config.nominal_bytes,
        config.scale_factor,
        config.storage_format,
        config.compression,
        config.distribution,
        config.interconnect,
        config.io_cached,
        config.sim_segments,
        config.paper_segments,
        config.seed,
    )


def get_hawq(config: BenchConfig) -> HawqBench:
    """Shared, memoized HAWQ bench instance for a configuration."""
    key = _config_key(config)
    if key not in _HAWQ_CACHE:
        _HAWQ_CACHE[key] = HawqBench.create(
            config, data=get_data(config.scale_factor, config.seed)
        )
    return _HAWQ_CACHE[key]


def get_stinger(config: BenchConfig) -> StingerBench:
    key = _config_key(config)
    if key not in _STINGER_CACHE:
        _STINGER_CACHE[key] = StingerBench.create(
            config, data=get_data(config.scale_factor, config.seed)
        )
    return _STINGER_CACHE[key]


def suite_seconds(results: Dict[int, object]) -> float:
    """Total simulated seconds over a suite of results."""
    total = 0.0
    for result in results.values():
        if isinstance(result, tuple):  # Stinger (result, status)
            result, status = result
            if status != "ok":
                continue
            total += result.seconds
        else:
            total += result.cost.seconds
    return total
