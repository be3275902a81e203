"""End to end at ``--quick`` size: every named metric, and exactness."""

import math

import pytest

import run
import spec
from workloads import WORKLOADS, draw_short_statements

NAMES = [name for name, _why in spec.WORKLOADS]
#: Same seed, same value: simulated cost, space, and every count.
EXACT_END_TO_END = ("sim_s", "stored_bytes_per_user_byte")
EXACT_SUFFIXES = (
    ".calls", ".tasks", ".messages", ".bytes", ".parked", ".wait_sim_s",
    ".datagrams", ".tuples", ".bytes_read", ".hits", ".misses", ".hit_ratio",
    ".reads", ".writes", ".stored_bytes", ".motion_streams", ".motion_bytes",
    ".wal_records",
)


@pytest.fixture(scope="module")
def results():
    cache = {}

    def get(workload, trace, seed=7, repeat=0):
        key = (workload, trace, seed, repeat)
        if key not in cache:
            cache[key] = run.run_child(workload, seed, spec.RUN_SECONDS, trace, True)
        return cache[key]

    return get


def test_workload_names_agree():
    assert sorted(NAMES) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
def test_every_end_to_end_metric_is_present_and_finite(results, workload):
    result = results(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, *_ in spec.END_TO_END]
    for name, unit, _better, _bound in spec.END_TO_END:
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name


@pytest.mark.parametrize("workload", NAMES)
def test_every_per_layer_metric_is_present_and_finite(results, workload):
    result = results(workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, *_ in spec.PER_LAYER]
    for name, unit, _better in spec.PER_LAYER:
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert math.isfinite(metric["value"]), name


@pytest.mark.parametrize("workload", NAMES)
def test_counts_repeat_exactly_under_the_same_seed(results, workload):
    first, again = results(workload, 1), results(workload, 1, repeat=1)
    for name, _unit, _better in spec.PER_LAYER:
        if name.endswith(EXACT_SUFFIXES):
            assert first["metrics"][name] == again["metrics"][name], name


@pytest.mark.parametrize("workload", ["tpch_power", "load_write"])
def test_simulated_cost_and_space_repeat_exactly(results, workload):
    first, again = results(workload, 0), results(workload, 0, repeat=1)
    assert first["attempted"] == again["attempted"]
    for name in EXACT_END_TO_END:
        assert first["metrics"][name] == again["metrics"][name], name


def test_another_seed_draws_other_statements_and_other_data(results):
    workload = WORKLOADS["short_serial"]
    one, two = workload.generate(7, True), workload.generate(8, True)
    assert one.data.lineitem != two.data.lineitem
    draws = [
        draw_short_statements(inputs.data, inputs.rng("short_serial"), 4)
        for inputs in (one, two, workload.generate(7, True))
    ]
    assert draws[0] != draws[1]
    assert draws[0] == draws[2]
    a, b = results("short_serial", 0), results("short_serial", 0, seed=8)
    assert a["metrics"]["sim_s"] != b["metrics"]["sim_s"]
