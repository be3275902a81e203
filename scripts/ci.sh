#!/usr/bin/env bash
# Local CI gate: determinism lint, tier-1 tests, the paper's figures, the
# typed-kernel microbenchmark, and benchmarks/perf with its count budgets.
# Run from the repo root:  bash scripts/ci.sh
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

echo "== repro-lint: R1 wall clock, R2 seeds, R4 handlers, R5 set order, R6 obs, R7 shared state, R8 scheduler keys, R9 rpc pairing, R10 owners =="
lint_start=$(date +%s.%N)
lint_json=$(python -m repro.lint --json) || {
    status=$?
    echo "$lint_json"
    echo "repro-lint failed (exit $status)"
    exit "$status"
}
lint_end=$(date +%s.%N)
python - "$lint_json" "$lint_start" "$lint_end" <<'PY'
import json, sys
report = json.loads(sys.argv[1])
wall = float(sys.argv[3]) - float(sys.argv[2])
counts = {rule: 0 for rule in report["rules"]}
for finding in report["findings"]:
    counts[finding["rule"]] = counts.get(finding["rule"], 0) + 1
for rule in sorted(counts):
    print(f"  {rule}: {counts[rule]} finding(s)")
print(f"  {report['files']} files, {wall:.2f}s wall")
PY

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== CO / Parquet decode to lists without NumPy =="
# Tier-1 ran these on NumPy. Without it a CO / Parquet block decodes to
# what an AO block decodes to everywhere — a plain list per column — and
# the engine must read and write the same bytes, fold the same
# statistics, narrow every filter to the same rows, size every batch the
# same (a census of Python values), place every key on the same segment
# and agree with the row executor — and with SQLite on the scan shapes
# and on `%`, `IN` and LIKE, and on the generated statements — and charge
# every byte it reads and writes, and keep every table's files and rows
# through the op sequences.
REPRO_NO_NUMPY=1 python -m pytest -q \
    tests/test_storage.py tests/test_block_cache.py tests/test_codec.py \
    tests/test_analyze_columnar.py tests/test_predicate_form.py \
    tests/test_batch_sizing.py tests/test_vectors.py \
    tests/test_batch_differential.py tests/test_two_representations.py \
    tests/test_placement.py tests/test_sqlite_reference.py \
    tests/test_postgres_rules.py tests/test_byte_conservation.py \
    tests/test_table_files.py tests/test_reference.py

echo "== the outside reference at CI scale: the 22 three ways at SF 0.01, 40 x 50 generated statements =="
# Tier-1 runs both smaller. At SF 0.001 Q8 and Q20 answer no rows, so
# only SF 0.01 checks them; there all 22 answer rows (Stinger takes ~7 s).
# HAWQ runs the 22 on AO tables (list-backed batches) and on CO tables
# (typed batches, NumPy-backed here).
REPRO_REFERENCE_SF=0.01 python -m pytest -q tests/test_tpch.py -k test_the_22_agree_three_ways
REPRO_REFERENCE_SEEDS=40 python -m pytest -q tests/test_reference.py -k test_generated_statements

echo "== op sequences over user tables at CI scale: 2,000 sequences of 30 steps =="
# Tier-1 runs 300 (tests/test_table_files.py's default): sessions, blocks,
# every write and DDL verb, VACUUM and faults against the model of
# committed rows, with the file, catalog, standby and runtime invariants
# after every step. Derandomized, so a run repeats; ~70 s.
REPRO_OP_SEQUENCES=2000 python -m pytest -q tests/test_table_files.py -k TestOpSequences

echo "== the simulated-clock contract per statement, under three hash seeds =="
# Tier-1 checked these once, under a random hash seed. Each reading must
# be CONTRACT.json's to the float bit whatever the seed of set and dict
# order: DISPATCH payload bytes and seconds, TPC-H traffic, the EXPLAIN
# digests and trees, the on-disk format digests.
for seed in 0 1 2; do
    PYTHONHASHSEED=$seed python -m pytest -q \
        tests/test_payload_canary.py \
        tests/test_tpch.py::test_query_traffic_is_pinned \
        tests/test_front_half.py::test_the_tpch_plans_are_pinned \
        tests/test_explain_verbose.py::TestGoldenStructure \
        tests/test_explain_verbose.py::TestInitPlanTimings::test_q11_plain_analyze_matches_golden \
        tests/test_codec.py::test_on_disk_format_is_frozen
done

echo "== the paper's figures: Fig 6-13 + ablations + the perf workloads on the simulated clock =="
# pytest is the one way to regenerate the tables (add -s to print them).
# Each figure test checks every cell against CONTRACT.json exactly, floats
# by repr, and keeps its shape assertions; a moved cell fails it with the
# figure's ratios before and after beside the paper's. The last test runs
# each benchmarks/perf workload once (seed 2, --quick) and checks its
# sim_s, stored bytes per user byte and tpch_power's must-repeat counters
# the same way. Re-pin deliberately with python -m repro.bench.contract.
# 17 tests, ~55 s.
python -m pytest benchmarks/ --benchmark-only --ignore=benchmarks/perf -q

echo "== typed-kernel microbenchmark with NumPy (batch >= 5x row on 100k CO rows) =="
# The one check that runs the typed-vector kernels at a size where they
# pay; whole-statement wall time is benchmarks/perf's (below, and
# BENCHMARK.json's bounds). --no-report: a local run leaves the tracked
# BENCH_wallclock.json as it is.
python -m repro.bench --wallclock --check --no-report

echo "== the same microbenchmark without NumPy: list batches against rows (batch >= 1.5x row) =="
REPRO_NO_NUMPY=1 python -m repro.bench --wallclock --check --no-report

echo "== benchmarks/perf: one tiny round of every workload =="
# The repo's end-to-end benchmark must keep running against this tree:
# every workload's answers are checked against the row-executor oracle.
python3 benchmarks/perf/run.py --quick

echo "== Python-call budgets on traced quick rounds (counts, not seconds) =="
# Per workload (one traced quick round each): whether a reading is per
# parsed statement, and each reading — a metric or a sum of metrics —
# with its ceiling.
python - <<'PY'
import json, subprocess, sys

BUDGETS = {
    # What a short statement costs whatever it reads, as Python calls and
    # collector runs per parsed statement: alone on a session, and as 8
    # closed-loop streams on one loop. Before catalog versions were shared
    # (PR 16) short_serial read 21,027 and 0.63; with one statement driver
    # (PR 17) the two workloads read 8,875 / 0.425 and 8,817 / 0.475 (they
    # were 8,744 / 0.4 and 9,197 / 0.5 with two); with the dispatch message
    # encoded by value instead of copied and pickled (PR 18) they read
    # 6,918 / 0.25-0.275 and 6,838 / 0.3. The ceilings are those readings
    # + 15 %.
    # With tokens keyed once by the lexer and catalog versions filed by
    # relation name they read 5,627 / 0.225 and 5,549 / 0.3 (6,894 and
    # 6,817 before), and the Python calls inside repro/sql read 138 a
    # statement on both (569 before); the sql ceiling is that reading
    # + 15 %.
    # With dispatch metadata kept per catalog version, no random draws on
    # a lossless link and metric series found without formatting their
    # keys, they read 5,026 and 5,008 Python calls (5,557 and 5,477
    # before); with a motion as one barrier, gather's schedule in one
    # pass, a lossless datagram as one heap entry and the cache totals
    # read in one unsorted pass, 4,762 and 4,676; with RPC messages and
    # motion streams on one in-order queue instead of the datagram net,
    # 4,583 and 4,588 (4,735 and 4,649 before, on the same box). With
    # each expression tree walked once by the front half, the DISPATCH
    # message's common values written inline and a statement's metrics
    # diffed without two snapshots, they read 3,500 and 3,501 (4,559 and
    # 4,563 before, on the same box), and the Python calls inside
    # repro/planner 378.7 and 378.7 (697.7 and 697.7 before). The call
    # ceilings are these readings + 15 %.
    # With one QD/QE process group per engine instead of one per
    # statement loop, the Python calls inside repro/cluster read 150.5
    # and 158.7 (175.5 and 160.0 before, when each lone statement built
    # and tore down its workers). The cluster ceilings are these
    # readings + 15 %, so a statement that rebuilds its workers fails.
    ("short_serial", True): {
        "python.pycalls": 4026, "sql.pycalls": 159, "planner.pycalls": 436,
        "cluster.pycalls": 173, "python.gc_collections": 0.32,
    },
    ("short_streams", True): {
        "python.pycalls": 4026, "sql.pycalls": 159, "planner.pycalls": 436,
        "cluster.pycalls": 183, "python.gc_collections": 0.35,
    },
    # The write path: create / load / insert / ANALYZE / read-back, in
    # the catalog layer (where ANALYZE's statistics live) and overall.
    # While ANALYZE zipped blocks into rows and walked every value three
    # times, and load_rows coerced row by row (twice for INSERT), they read
    # 58,761 and 553,821; folding column blocks and coercing by column
    # they read 17,008 and 418,274; with keyed catalog reads and the flat
    # AO decode, 13,340 and 313,068; with every first read of a block
    # taking the values its writer left in the block cache instead of
    # decoding, 13,340 and 302,030. The ceilings are that last reading
    # + 15 %. With first-updater-wins catalog writes the catalog read
    # 17,956, over its ceiling, most of it the standby's replay calling a
    # one-line method per version; with that test inlined, 13,525.
    ("load_write", False): {"catalog.pycalls": 15341, "python.pycalls": 347335},
    # The cold scans' decode: the AO row loop (repro/catalog's RowCodec)
    # and the formats' block loops (repro/storage). With AO scans building
    # only the columns they read it reads 9,346 (9,378 when every column
    # was built); the ceiling is that reading + 15 %, so a Python call per
    # row creeping back into the AO loop fails it. With a filtered CO or
    # Parquet scan converting its late columns at the kept rows only (a
    # few calls more per chunk, none per row) it reads 9,867.
    ("scan_cold", False): {"catalog.pycalls + storage.pycalls": 10748},
    ("tpch_power", False): {
        # The 22 TPC-H statements inside the operators and their column
        # kernels (repro/executor + repro/columnar). With filters that narrow
        # a selection and batches sized once (PR 20) it reads 163,989
        # (104,625 + 59,364) of 1,110,047 calls overall; the three-valued
        # masks and per-receiver sizing before it read 161,602 (101,510 +
        # 60,092) of 1,158,344 — the saving is in comprehension passes and
        # C-level work this count does not see, so it is a guard against a
        # per-row Python call creeping into a kernel, not a score. The
        # ceiling is the reading + 15 %.
        "executor.pycalls + columnar.pycalls": 188600,
        # The same round's control plane: the event clock, the datagram net,
        # the RPC bus and the exchange (repro/simtime + network + cluster +
        # interconnect). With a motion as one barrier, gather's schedule in
        # one pass and a lossless datagram as one heap entry it reads 52,730
        # (84,587 before); with RPC messages and motion streams on the
        # runtime's in-order queue, 50,079 (51,138 before, on the same box),
        # none of them in the net; with InitPlans on the statement loop and
        # a task's ACK sent but never queued, 49,769 (50,079 before, on the
        # same box). The ceiling is that reading + 15 %.
        "simtime.pycalls + network.pycalls + cluster.pycalls + interconnect.pycalls": 57234,
    },
}

failed = False
for (workload, per_statement), ceilings in BUDGETS.items():
    out = subprocess.run(
        ["python3", "benchmarks/perf/run.py", "--workload", workload, "--quick", "--trace", "1"],
        check=True, stdout=subprocess.PIPE, text=True,
    ).stdout
    metrics = json.loads(out.splitlines()[-1])["metrics"]
    for reading, ceiling in ceilings.items():
        value = sum(metrics[name]["value"] for name in reading.split(" + "))
        if per_statement:
            value /= metrics["sql.parse.calls"]["value"]
            reading += f" / statement: {value:,.3f}"
        else:
            reading += f": {value:,.0f}"
        over = value > ceiling
        failed |= over
        print(f"  {workload}: {reading} (ceiling {ceiling:,})" + ("  OVER BUDGET" if over else ""))
sys.exit(1 if failed else 0)
PY

echo "== observability gate (system views + Prometheus exposition) =="
# Prometheus exposition must be well-formed (the exporter self-checks
# against the text-format grammar) and every system view must answer
# through the normal SQL path. R6 (obs passivity) is in the full lint
# run at the top.
python -m repro.obs --prom --check > /dev/null
python -m repro.obs --smoke

echo "== benchmarks/perf: its own tests =="
# The harness's tests check the harness (its wrappers, spans and trace
# export), not this tree. They run last, so that a harness test that
# names an entry point the engine has retired fails CI only after every
# gate on the engine has run.
python -m pytest benchmarks/perf/tests -q

echo "CI gate passed."
