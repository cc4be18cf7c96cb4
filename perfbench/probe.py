"""Set-up probe: a fresh interpreter imports morsekit and makes one warm-up call.

    python3 perfbench/probe.py <workload> <scratch-dir>

The benchmark times this whole process, start to exit, as ``setup_s``.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402
import workloads  # noqa: E402

name, work = sys.argv[1], Path(sys.argv[2])
design = json.loads((BENCH_DIR / "design.json").read_text())
ctx = harness.Context(harness.NullTracer(), design["workloads"][name], design["budgets"],
                      design["tolerances"], work, None)
workloads.warmup(name, ctx)
