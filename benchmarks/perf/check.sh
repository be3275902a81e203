#!/usr/bin/env bash
# The benchmark's own gate (scripts/ci.sh does not call it yet): its
# tests, one tiny round of every workload, then the same code measured
# twice against the bounds in BENCHMARK.json.
#   bash benchmarks/perf/check.sh          # 3 runs per set (~10 min)
#   RUNS=10 bash benchmarks/perf/check.sh  # what the driver does (~35 min)
set -euo pipefail
cd "$(dirname "$0")/../.."

python3 -m pytest benchmarks/perf/tests -q
python3 benchmarks/perf/run.py --quick --trace 1
python3 benchmarks/perf/run.py --aa --runs "${RUNS:-3}"
