"""morsekit benchmark: one workload, one seed, end-to-end or per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

The program is imported from ``src/`` of the checkout; nothing is installed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines
before it print every end-to-end metric by name and unit, and the run record
(seed, generated inputs, versions, thread cap, sample counts) is written to
``.bench_out/`` together with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("cli-session", "verify", "deep-wells")
USAGE_ERROR = 2


def _fail(message: str, code: int = USAGE_ERROR):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _thread_cap() -> int:
    nproc = len(os.sched_getaffinity(0))
    return min(nproc, DESIGN["thread_cap_max"])


def _child_env(cap: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["MORSEKIT_THREADS"] = str(cap)
    return env


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _mem_available_mb() -> float | None:
    try:
        with open("/proc/meminfo") as meminfo:
            for line in meminfo:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def _setup_seconds(name: str, env: dict, work: Path, repeats: int) -> list[float]:
    """Fresh interpreter to ready (import plus one warm-up call), ``repeats`` times."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH_DIR / "probe.py"), name, str(work)],
                       env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def _run_passes(name, cases, ctx, passes, first_op=0, min_completed=harness.TAIL_BEYOND + 1):
    """Closed loop, one client: ``passes`` whole passes over the case list.

    Whole passes keep the mix of cases identical on every run; more passes
    run until ``min_completed`` operations have completed (by default enough
    for a tail latency with ten samples beyond it).  A run that needs more
    than the phase cap stops starting operations, and the cases it did not
    reach count as refused.
    """
    import workloads

    outcomes, done, timed = [], 0, 0.0
    phase_start = time.perf_counter()
    cap = DESIGN["budgets"]["phase_s"]
    while True:
        for case in cases:
            op_id = first_op + len(outcomes)
            if time.perf_counter() - phase_start > cap:
                outcomes.append(harness.Outcome(op_id, str(case.record()), harness.REFUSED, 0.0,
                                        detail=f"phase over {cap} s"))
                continue
            outcome = workloads.run_op(name, case, op_id, ctx)
            outcomes.append(outcome)
            timed += outcome.latency
        done += 1
        completed = sum(o.kind == "ok" for o in outcomes)
        if time.perf_counter() - phase_start > cap:
            break
        if done >= passes and completed >= min_completed:
            break
    return outcomes, done, timed


def _passes(spec: dict, seconds: float) -> int:
    """Fixed work per run: passes come from --seconds and the nominal pass time."""
    return max(1, math.ceil(seconds / spec["pass_s"] - 1e-9))


def _layer_metrics(tracer, untraced_pass_s: float, traced_pass_s: float) -> dict:
    """Per-layer metrics of one traced pass over the case list."""
    own = harness.self_time_by_name(tracer.spans)
    counts = tracer.counts
    values = {}
    for name, meta in DESIGN["metrics"]["per_layer"].items():
        source = meta["source"]
        if source == "span":
            values[name] = own.get(meta["span"], 0.0)
        elif source == "count":
            values[name] = float(counts.get(name, 0))
        elif source == "peak":
            values[name] = float(counts.get(name, 0.0))
    write_s = sum(t for span, t in own.items() if span.startswith("fileio."))
    values["fileio.mb_per_s"] = (
        counts.get("fileio.bytes_written", 0) / write_s / 1e6 if write_s > 0 else 0.0
    )
    values["trace.overhead_ratio"] = traced_pass_s / untraced_pass_s - 1.0
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cap = _thread_cap()
    # the cap must be in place before numpy loads its BLAS backend
    os.environ["MORSEKIT_THREADS"] = str(cap)
    env = _child_env(cap)
    work = OUT / "work" / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    mem_available = _mem_available_mb()

    # half of the set-up probes run now and half after the timed phase
    setup_before = DESIGN["setup_repeats"] // 2
    setup = _setup_seconds(name, env, work, setup_before)

    # morsekit (and numpy under it) loads only now, after the thread cap is set
    sys.path.insert(0, str(SRC))
    import morsekit

    if Path(morsekit.__file__).resolve().parent != (SRC / "morsekit").resolve():
        _fail(f"imported morsekit from {morsekit.__file__}, not from {SRC}")
    import workloads

    spec = DESIGN["workloads"][name]
    golden = json.loads((BENCH_DIR / "golden_cli.json").read_text())
    ctx = harness.Context(harness.NullTracer(), spec, DESIGN["budgets"], DESIGN["tolerances"],
                          work, env, golden)
    workloads.warmup(name, ctx)
    workloads.calibrate(name, ctx)
    cases = workloads.make_cases(name, spec, seed)

    if trace:
        # one untraced pass, then one traced pass: the gap is the tracing overhead
        base, passes, timed = _run_passes(name, cases, ctx, 1, min_completed=0)
        ctx.tr = harness.Tracer()
        traced, _, traced_s = _run_passes(name, cases, ctx, 1, first_op=len(base), min_completed=0)
        outcomes = base + traced
        layer = _layer_metrics(ctx.tr, timed, traced_s)
    else:
        base, passes, timed = _run_passes(name, cases, ctx, _passes(spec, seconds))
        outcomes, layer = base, None

    setup += _setup_seconds(name, env, work, DESIGN["setup_repeats"] - setup_before)

    known = {d["check"] for d in DESIGN["known_defects"] if d["workload"] == name}
    tal = harness.tally(outcomes, known)
    lat = harness.latency_metrics(harness.tally(base, known), timed)
    usage = resource.RUSAGE_CHILDREN if name == "cli-session" else resource.RUSAGE_SELF
    e2e = {
        "setup_s": statistics.median(setup),
        "ops_per_s": lat["ops_per_s"],
        "op_p50_s": lat["op_p50_s"],
        "op_tail_s": lat["op_tail_s"],
        "fail_ratio": tal.fail_ratio,
        "ok_ratio": 1.0 - tal.fail_ratio,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        "accuracy_margin_digits": tal.margin,
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": _git_commit(),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": workloads.np.__version__,
            "scipy": __import__("scipy").__version__,
            "mpmath": __import__("mpmath").__version__,
            "morsekit": morsekit.__version__,
        },
        "nproc": len(os.sched_getaffinity(0)),
        "thread_cap": cap,
        "thread_env": {v: os.environ.get(v) for v in
                       ("MORSEKIT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "mem_available_mb_at_start": mem_available,
        "setup_s_samples": setup,
        "inputs": [c.record() for c in cases],
        "passes": passes,
        "timed_s": timed,
        "attempted": tal.attempted,
        "completed": lat["completed"],
        "outcomes": tal.by_kind,
        "op_tail_percentile": lat["op_tail_percentile"],
        "budgets": DESIGN["budgets"],
        "crossing_bytes_per_pair": ctx.bytes_per_pair or None,
        "ops": [
            {"op": o.op, "case": o.case, "kind": o.kind, "latency_s": o.latency,
             "checks": {c.name: c.err for c in o.checks}, "detail": o.detail}
            for o in outcomes
        ],
        "unexpected": [o.op for o in tal.unexpected],
        "end_to_end": e2e,
        "per_layer": layer,
    }
    OUT.mkdir(exist_ok=True)
    doc = dict(record, spans=[vars(s) for s in ctx.tr.spans] if trace else None)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(doc, indent=1))
    shutil.rmtree(work, ignore_errors=True)
    return record, tal


def _print_table(record: dict) -> None:
    e2e = record["end_to_end"]
    units = {n: m["unit"] for n, m in DESIGN["metrics"]["end_to_end"].items()}
    print(f"workload {record['workload']}  seed {record['seed']}  passes {record['passes']}  "
          f"attempted {record['attempted']}  outcomes {record['outcomes']}  "
          f"threads {record['thread_cap']}/{record['nproc']}")
    for name in DESIGN["metrics"]["end_to_end"]:
        value = e2e[name]
        note = ""
        if name == "op_tail_s":
            note = f"  (p{record['op_tail_percentile']:.1f} of {record['completed']} completed)"
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<24} {shown:>12} {units[name]}{note}")
    for failure in [o for o in record["ops"] if o["kind"] != "ok"][:12]:
        print(f"  failed op {failure['op']} [{failure['kind']}] {failure['case']}: {failure['detail'][:160]}")
    if record["per_layer"]:
        for name, value in record["per_layer"].items():
            unit = DESIGN["metrics"]["per_layer"][name]["unit"]
            print(f"  {name:<32} {value:.6g} {unit}")


def _result_line(record: dict, tal, trace: bool) -> dict:
    table = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    source = record["per_layer"] if trace else record["end_to_end"]
    return {
        "correct": tal.correct,
        "attempted": tal.attempted,
        "failed": tal.failed,
        "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in table},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "morsekit" / "__init__.py").is_file():
        _fail(f"no morsekit sources under {SRC}; run from the root of a morsekit checkout")
    if args.workload == "all":
        return _run_all(args)

    import selftest

    if not selftest.passes():
        _fail("harness self-test failed; not measuring", 3)
    record, tal = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_table(record)
    print(json.dumps(_result_line(record, tal, bool(args.trace))))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            _fail(f"workload {name} exited with {proc.returncode}", proc.returncode)
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


DESIGN = json.loads((BENCH_DIR / "design.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

if __name__ == "__main__":
    sys.exit(main())
