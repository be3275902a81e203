#!/usr/bin/env bash
# Local CI gate: determinism lint, tier-1 tests, the paper's figures, the
# typed-kernel microbenchmark, and benchmarks/perf with its count budgets.
# Run from the repo root:  bash scripts/ci.sh
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

echo "== repro-lint (R1, R2, R4..R9; R3 is retired) =="
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

echo "== one dispatch sizing path (no deepcopy in src/, no pickle in planner/dispatch.py) =="
# The DISPATCH message is sized by planner/wire.py's by-value encoding;
# a copy or a pickle coming back would be a second, identity-dependent
# path beside it.
if grep -rn --include='*.py' "deepcopy" src/repro \
    || grep -n "pickle" src/repro/planner/dispatch.py; then
    echo "found a deepcopy under src/repro or a pickle in planner/dispatch.py"
    exit 1
fi

echo "== two column representations (a typed vector is a NumPy vector, or the column is a list) =="
# A vector on any other buffer would need a check of which one it holds
# in every kernel, and every mask handed on would need converting again.
if grep -rnE "from array import|is_numpy|_is_np_array" src/repro; then
    echo "found a second vector backend, or a check for one, under src/repro"
    exit 1
fi

echo "== one isolation check (no runtime sanitizer under src/) =="
# Serial = concurrent is checked by tier-1's differential and chaos
# suites at run time and by lint rule R7 statically; a runtime sanitizer
# coming back would be a third witness of the same contract.
if grep -rniE "detsan|repro\.sanitize|IsolationViolation" src/repro; then
    echo "found a runtime isolation sanitizer, or a hook for one, under src/repro"
    exit 1
fi

echo "== one byte-charging check (no call graph under src/) =="
# Every read and written byte is charged: tier-1's
# tests/test_byte_conservation.py checks it at run time on every
# statement it runs. A lint call graph coming back would be a second,
# static witness of the same contract, one that missed a real uncharged
# read (docs/perf/PR-31.md).
if grep -rnE "callgraph|CallGraph" src/repro; then
    echo "found a lint call graph, or a use of one, under src/repro"
    exit 1
fi

echo "== one owner of a table's files (storage/table.py) =="
# Naming, appending, truncating and deleting a table's HDFS files is
# repro.storage.table's alone; the statement facade and the MapReduce
# formats reach the files through it.
if grep -nE "client\.(truncate|delete)\(|file_status\(|_table_generation|segment_data_path" \
    src/repro/engine.py src/repro/storage/hadoop_formats.py; then
    echo "found file handling outside src/repro/storage/table.py"
    exit 1
fi

echo "== one statement timeline (dispatch charged once, EXPLAIN ANALYZE reads the trace) =="
# The master charges a dispatch once, when it opens; each wave's share
# of the task DAG is composed once, when the wave settles; and EXPLAIN
# ANALYZE reads every slice and task line off the statement's trace. A
# scratch replay of the charges, a second composition of the DAG or a
# second per-slice timing record coming back would be a copy that has
# to be kept float-identical by hand.
if grep -rnE "predicted_overhead|SliceTiming|TaskTiming|add_graph|_composed" src/repro; then
    echo "found a second record of a statement's timeline under src/repro"
    exit 1
fi

echo "== one scan provider (every SeqScan reaches both executors as blocks) =="
# A worker lends its executor one scan: the blocks of a table's segfile
# lanes, or a master-only relation's rows one per block. A second,
# row-shaped provider for tables or for the catalog and system views
# would be a second read path that both executors must agree on by hand.
if grep -rnE "batch_scan|_batch_scan_provider|catalog_rows|sysview_rows" src/repro; then
    echo "found a second scan provider under src/repro"
    exit 1
fi

echo "== one barrier per motion, and gather's schedule in one pass =="
# A motion is one (senders, consumers, delay) barrier, not a sender x
# receiver list of pair edges, and TaskGraph.replay computes a
# statement's stand-alone schedule in one slotless pass. A per-pair
# motion list in settle_wave, or an EventScheduler built to replay a
# settled graph, would bring back the control plane's per-pair and
# second-clock bookkeeping.
python - <<'PY'
import ast, sys

def method(path, owner, name):
    tree = ast.parse(open(path).read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == owner:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == name:
                    return item
    sys.exit(f"{path}: {owner}.{name} not found")

found = []
replay = method("src/repro/simtime/scheduler.py", "TaskGraph", "replay")
for node in ast.walk(replay):
    if isinstance(node, ast.Name) and node.id == "EventScheduler":
        found.append(f"TaskGraph.replay:{node.lineno}: builds an EventScheduler")
settle = method("src/repro/executor/runner.py", "QueryDispatch", "settle_wave")
for node in ast.walk(settle):
    comprehension = isinstance(
        node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
    )
    if comprehension and len(node.generators) > 1:
        found.append(f"settle_wave:{node.lineno}: a comprehension over pairs")
    if isinstance(node, ast.For) and any(
        isinstance(inner, ast.For) for inner in ast.walk(node) if inner is not node
    ):
        found.append(f"settle_wave:{node.lineno}: a loop over pairs")
for line in found:
    print(line)
sys.exit(1 if found else 0)
PY

echo "== one way a statement's messages travel (the runtime's in-order queue) =="
# RPC messages and motion streams ride DistributedRuntime's MessageQueue;
# the simulated datagram net serves the UDP / TCP interconnect, Fig 12
# and the chaos drill, with one kind of endpoint. An engine module
# importing repro.network, or SimNetwork growing a second endpoint kind
# again, would bring back a net the engine never clocks.
python - <<'PY'
import ast, pathlib, sys

found = []
root = pathlib.Path("src/repro")
paths = [root / "engine.py", root / "interconnect" / "exchange.py"]
paths += sorted((root / "executor").rglob("*.py")) + sorted((root / "cluster").rglob("*.py"))
for path in paths:
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if any(name == "repro.network" or name.startswith("repro.network.") for name in names):
            found.append(f"{path}:{node.lineno}: imports {', '.join(names)}")
simnet = ast.parse((root / "network" / "simnet.py").read_text())
for node in ast.walk(simnet):
    if isinstance(node, ast.ClassDef) and node.name == "SimNetwork":
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "bind":
                found.append(f"simnet.py:{item.lineno}: SimNetwork.bind")
for line in found:
    print(line)
sys.exit(1 if found else 0)
PY

echo "== one relation-access step (lookup, privilege, then lock, in Session.access_relation) =="
# Each verb states only its lock mode and privilege; looking the relation
# up, checking the privilege before the lock and taking the lock without
# waiting are decided once. A relation lock key, a lock or a privilege
# check anywhere else would be a second place deciding them.
python - <<'PY'
import ast, pathlib, sys

found = []
for path in sorted(pathlib.Path("src/repro").rglob("*.py")):
    if path.parent.name == "txn":
        continue  # the lock manager itself
    tree = ast.parse(path.read_text())
    owner = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                owner[node] = func.name  # innermost function wins
    for node in ast.walk(tree):
        lock_key = (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.startswith("rel:")
        )
        call = isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        target = ast.unparse(node.func) if call else ""
        lock = call and (
            node.func.attr == "lock" or target.endswith("locks.acquire")
        )
        check = call and target.endswith("security.check")
        if (lock_key or lock or check) and owner.get(node) != "access_relation":
            found.append(f"{path}:{node.lineno}: {ast.unparse(node)[:70]}")
for line in found:
    print(line)
sys.exit(1 if found else 0)
PY

echo "== master-only relations are known to one module (catalog/master_relations.py) =="
# Which relations live on the master alone, and their schemas, are
# repro.catalog.master_relations's; everyone else asks is_master_only().
if grep -rnE "CATALOG_RELATION_COLUMNS|SYSTEM_VIEW_COLUMNS" src/repro --include='*.py' \
    | grep -v "^src/repro/catalog/master_relations.py:"; then
    echo "found a master-only relation table read outside catalog/master_relations.py"
    exit 1
fi

echo "== engine.py is the session facade (DDL and ANALYZE are repro.ddl's) =="
if grep -nE "def _?(create_table|create_view|create_external_table|drop|truncate|alter_table|analyze|analyze_table|analyze_relation|schema_from_ast|apply_storage_options|partition_spec|create_role|drop_role|alter_role|grant)\(|class _?CatalogAdapter" \
    src/repro/engine.py; then
    echo "found a DDL verb defined in src/repro/engine.py"
    exit 1
fi

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== CO / Parquet decode to lists without NumPy =="
# Tier-1 ran these on NumPy. Without it a CO / Parquet block decodes to
# what an AO block decodes to everywhere — a plain list per column — and
# the engine must read and write the same bytes, fold the same
# statistics, narrow every filter to the same rows, size every batch the
# same (a census of Python values), place every key on the same segment
# and agree with the row executor — and with SQLite on the scan shapes
# and on `%`, `IN` and LIKE — and charge every byte it reads and writes.
REPRO_NO_NUMPY=1 python -m pytest -q \
    tests/test_storage.py tests/test_block_cache.py tests/test_codec.py \
    tests/test_analyze_columnar.py tests/test_predicate_form.py \
    tests/test_batch_sizing.py tests/test_vectors.py \
    tests/test_batch_differential.py tests/test_two_representations.py \
    tests/test_placement.py tests/test_sqlite_reference.py \
    tests/test_postgres_rules.py tests/test_byte_conservation.py \
    tests/test_table_files.py

echo "== the paper's figures: Fig 6-13 + ablations on the simulated clock =="
# pytest is the one way to regenerate them (add -s for the tables); their
# shape assertions are the simulated-clock contract. 16 tests, ~70 s.
python -m pytest benchmarks/ --benchmark-only --ignore=benchmarks/perf -q

echo "== typed-kernel microbenchmark with NumPy (batch >= 5x row on 100k CO rows) =="
# The one check that runs the typed-vector kernels at a size where they
# pay; whole-statement wall time is benchmarks/perf's (below, and
# BENCHMARK.json's bounds).
python -m repro.bench --wallclock --check

echo "== the same microbenchmark without NumPy: list batches against rows (batch >= 1.5x row) =="
REPRO_NO_NUMPY=1 python -m repro.bench --wallclock --check --no-report

echo "== benchmarks/perf: one tiny round of every workload =="
# The repo's end-to-end benchmark must keep running against this tree:
# every workload's answers are checked against the row-executor oracle.
python3 benchmarks/perf/run.py --quick

echo "== per-statement budget on the short workloads (counts, not seconds) =="
# What a short statement costs whatever it reads, as Python calls and
# collector runs per parsed statement of one traced quick round: alone on
# a session, and as 8 closed-loop streams on one loop. Before catalog
# versions were shared (PR 16) short_serial read 21,027 and 0.63; with
# one statement driver (PR 17) the two workloads read 8,875 / 0.425 and
# 8,817 / 0.475 (they were 8,744 / 0.4 and 9,197 / 0.5 with two); with
# the dispatch message encoded by value instead of copied and pickled
# (PR 18) they read 6,918 / 0.25-0.275 and 6,838 / 0.3. The ceilings are
# those readings + 15 %.
# With tokens keyed once by the lexer and catalog versions filed by
# relation name they read 5,627 / 0.225 and 5,549 / 0.3 (6,894 and 6,817
# before), and the Python calls inside repro/sql read 138 a statement on
# both (569 before); the sql ceiling is that reading + 15 %.
# With dispatch metadata kept per catalog version, no random draws on a
# lossless link and metric series found without formatting their keys,
# they read 5,026 and 5,008 Python calls (5,557 and 5,477 before); with
# a motion as one barrier, gather's schedule in one pass, a lossless
# datagram as one heap entry and the cache totals read in one unsorted
# pass, 4,762 and 4,676; with RPC messages and motion streams on one
# in-order queue instead of the datagram net, 4,583 and 4,588 (4,735 and
# 4,649 before, on the same box). The two call ceilings are these
# readings + 15 %.
for budget in "short_serial 5271 159 0.32" "short_streams 5276 159 0.35"; do
    set -- $budget
    budget_json=$(python3 benchmarks/perf/run.py --workload "$1" --quick --trace 1 | tail -n 1)
    python - "$budget_json" "$@" <<'PY'
import json, sys
metrics = json.loads(sys.argv[1])["metrics"]
workload = sys.argv[2]
calls_ceiling, sql_ceiling, gc_ceiling = map(float, sys.argv[3:6])
statements = metrics["sql.parse.calls"]["value"]
failed = False
for name, ceiling in (
    ("python.pycalls", calls_ceiling),
    ("sql.pycalls", sql_ceiling),
    ("python.gc_collections", gc_ceiling),
):
    per_statement = metrics[name]["value"] / statements
    over = per_statement > ceiling
    failed |= over
    print(f"  {workload}: {name} / statement: {per_statement:,.3f} (ceiling {ceiling:,})"
          + ("  OVER BUDGET" if over else ""))
sys.exit(1 if failed else 0)
PY
done

echo "== write-path budget on load_write (counts, not seconds) =="
# What one traced quick round of create / load / insert / ANALYZE /
# read-back costs in Python calls: in the catalog layer (where ANALYZE's
# statistics live) and overall. While ANALYZE zipped blocks into rows
# and walked every value three times, and load_rows coerced row by row
# (twice for INSERT), they read 58,761 and 553,821; folding column blocks
# and coercing by column they read 17,008 and 418,274; with keyed catalog
# reads and the flat AO decode, 13,340 and 313,068; with every first read
# of a block taking the values its writer left in the block cache instead
# of decoding, 13,340 and 302,030. The ceilings are that last reading
# + 15 %.
budget_json=$(python3 benchmarks/perf/run.py --workload load_write --quick --trace 1 | tail -n 1)
python - "$budget_json" <<'PY'
import json, sys
metrics = json.loads(sys.argv[1])["metrics"]
failed = False
for name, ceiling in (("catalog.pycalls", 15341), ("python.pycalls", 347335)):
    calls = metrics[name]["value"]
    over = calls > ceiling
    failed |= over
    print(f"  load_write: {name}: {calls:,.0f} (ceiling {ceiling:,})"
          + ("  OVER BUDGET" if over else ""))
sys.exit(1 if failed else 0)
PY

echo "== executor and control-plane budgets on tpch_power (counts, not seconds) =="
# What one traced quick round of the 22 TPC-H statements costs in Python
# calls inside the operators and their column kernels (repro/executor +
# repro/columnar). With filters that narrow a selection and batches
# sized once (PR 20) it reads 163,989 (104,625 + 59,364) of 1,110,047
# calls overall; the three-valued masks and per-receiver sizing before
# it read 161,602 (101,510 + 60,092) of 1,158,344 — the saving is in
# comprehension passes and C-level work this count does not see, so it
# is a guard against a per-row Python call creeping into a kernel, not
# a score. The ceiling is the reading + 15 %.
budget_json=$(python3 benchmarks/perf/run.py --workload tpch_power --quick --trace 1 | tail -n 1)
python - "$budget_json" <<'PY'
import json, sys
metrics = json.loads(sys.argv[1])["metrics"]
calls = metrics["executor.pycalls"]["value"] + metrics["columnar.pycalls"]["value"]
ceiling = 188600
over = calls > ceiling
print(f"  tpch_power: executor.pycalls + columnar.pycalls: {calls:,.0f} (ceiling {ceiling:,})"
      + ("  OVER BUDGET" if over else ""))
sys.exit(1 if over else 0)
PY

# The same round's control plane: the Python calls inside the event
# clock, the datagram net, the RPC bus and the exchange (repro/simtime +
# network + cluster + interconnect). With a motion as one barrier,
# gather's schedule in one pass and a lossless datagram as one heap
# entry it reads 52,730 (84,587 before); with RPC messages and motion
# streams on the runtime's in-order queue, 50,079 (51,138 before, on the
# same box), none of them in the net. The ceiling is that reading + 15 %.
python - "$budget_json" <<'PY'
import json, sys
metrics = json.loads(sys.argv[1])["metrics"]
layers = ("simtime", "network", "cluster", "interconnect")
calls = sum(metrics[f"{layer}.pycalls"]["value"] for layer in layers)
ceiling = 57591
over = calls > ceiling
print(f"  tpch_power: simtime + network + cluster + interconnect pycalls: "
      f"{calls:,.0f} (ceiling {ceiling:,})" + ("  OVER BUDGET" if over else ""))
sys.exit(1 if over else 0)
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
