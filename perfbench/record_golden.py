"""Record the CLI outputs that the cli-session workload checks on every run.

    python3 perfbench/record_golden.py

Runs each README invocation of the cli-session workload once, as a fresh
subprocess, and writes its exit code, stdout and the sha256 of every output
file to perfbench/golden_cli.json.  Re-record only when a change to the CLI
output is intended.
"""

import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

import harness  # noqa: E402
import workloads  # noqa: E402

spec = run.DESIGN["workloads"]["cli-session"]
work = run.OUT / "work" / "golden"
work.mkdir(parents=True, exist_ok=True)
ctx = harness.Context(harness.NullTracer(), spec, run.DESIGN["budgets"], run.DESIGN["tolerances"],
                      work, run._child_env(run._thread_cap()))
golden = {}
for argv in spec["invocations"]:
    out = workloads.cli_op(workloads.Case(0, 0, argv=tuple(argv)), ctx)
    golden[" ".join(argv)] = {
        "exit_code": out["exit_code"],
        "stdout": out["stdout"],
        "files": workloads._digest(out["out_dir"]),
    }
shutil.rmtree(work, ignore_errors=True)
(BENCH_DIR / "golden_cli.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
