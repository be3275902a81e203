"""Puts the benchmark's modules and the engine on ``sys.path``.

Run with ``python -m pytest benchmarks/perf/tests -q`` from the repo
root; these tests are outside tier-1's ``testpaths``.
"""

import os
import sys

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(os.path.dirname(PERF))
for path in (os.path.join(REPO, "src"), PERF):
    if path not in sys.path:
        sys.path.insert(0, path)
