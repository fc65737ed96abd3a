"""Set-up cost a fresh interpreter pays before any CLI command does work.

Usage: ``python3 setup_probe.py SRC_DIR``.  Times ``import stablemanifold``
and building the growth pipeline the way the CLI does, and prints both
durations as one JSON object.
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import stablemanifold  # noqa: E402

t1 = time.perf_counter()
stablemanifold.build_growth_pipeline(stablemanifold.GrowthParams(alpha=0.36, beta=0.99),
                                     steady_tol=1e-13)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "pipeline_s": t2 - t1}))
