"""The benchmark workloads: seeded cases, timed operations and output checks.

Each operation reaches morsekit only through its public entry points: the
``morsekit.cli`` module (as a subprocess; in-process in the traced run), and
the public functions of ``spectrum``, ``specfun``, ``states``, ``coherent``
and ``fileio``.  Library operations build a fresh well from their own ``p``
text, so no table or box cached on a ``MorseBasis`` is reused from one
operation to the next.

Every timed call into morsekit sits inside ``tr.span(...)``.  With tracing
off the span is a shared no-op; with tracing on the traced run also makes the
table-building calls explicit (``support_box``, ``mode_tables`` on the base
and refined rules, and the Laguerre recurrence on the same nodes) so that
table building and contraction land in separate spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from morsekit import cli, coherent, fileio, specfun, spectrum, states
from morsekit.errors import MorsekitError, QuadratureAccuracyError

from harness import (OK, RAISED, REFUSED, Check, Outcome, OverBudget, classify, memory_budget,
                     peak_traced_bytes, time_budget)

# The library's default quadrature rule; table spans are built on it and its refinement.
BASE_RULE = states.QuadratureConfig()
# Moments are checked against the same computation on a rule four times finer.
REFERENCE_RULE = states.QuadratureConfig(points_per_axis=4 * BASE_RULE.points_per_axis,
                                         panels=4 * BASE_RULE.panels)
# Warm-up and set-up use the README's p = 3 pi well (k = 9).
WARMUP_P = spectrum.pi_multiple_text(3.0)


@dataclass(frozen=True)
class Case:
    """One seeded input: a p text (40 significant digits) and an amplitude, or CLI flags."""

    index: int
    k: int
    p_text: str = ""
    psi: float = 0.0
    task: str = ""
    argv: tuple = ()

    def record(self) -> dict:
        if self.argv:
            return {"argv": list(self.argv)}
        out = {"k": self.k, "p": self.p_text, "psi": self.psi}
        if self.task:
            out["task"] = self.task
        return out


def p_text(rng: random.Random, k: int, stratum: int, strata: int) -> str:
    """40-significant-digit text of p = k + eps, eps inside the middle third of a stratum.

    Spreading eps over fixed strata makes every run hold the same mix of
    small-eps wells (where the top mode is barely bound) and ordinary ones.
    """
    digits = 40 - len(str(k))
    scale = 10**digits
    lo = math.ceil((stratum + 1.0 / 3.0) / strata * scale)
    hi = math.floor((stratum + 2.0 / 3.0) / strata * scale)
    return f"{k}.{rng.randrange(lo, hi):0{digits}d}"


def psi_value(rng: random.Random, span: list, stratum: int, strata: int) -> float:
    """An amplitude inside the middle third of one of ``strata`` equal strata of ``span``."""
    lo, hi = span
    width = (hi - lo) / strata
    return round(lo + width * (stratum + rng.uniform(1.0 / 3.0, 2.0 / 3.0)), 6)


def make_cases(name: str, spec: dict, seed: int) -> list[Case]:
    """The seeded case list of one workload; the same seed gives the same list."""
    rng = random.Random(f"{name}:{seed}")
    if name == "cli-session":
        order = list(range(len(spec["invocations"])))
        rng.shuffle(order)
        return [Case(i, 0, argv=tuple(spec["invocations"][j])) for i, j in enumerate(order)]
    grid = spec["k_grid"]
    n = len(grid)
    cases = []
    for i, k in enumerate(grid):
        # each repeat draws its own p and psi from the same strata
        for _ in range(spec["k_repeat"][i]):
            text = p_text(rng, k, spec["eps_strata"][i], n)
            psi = psi_value(rng, spec["psi_range"], spec["psi_strata"][i], n)
            if name == "deep-wells":
                for task in DEEP_TASKS:
                    cases.append(Case(len(cases), k, text, psi, task))
            else:
                cases.append(Case(len(cases), k, text, psi))
    # The host's speed drifts over seconds, so like operations run in a seeded
    # order spread over the pass, not back to back: the order statistics that
    # become op_p50_s and op_tail_s then sample the whole timed phase.
    rng.shuffle(cases)
    return cases


# -- shared library steps ------------------------------------------------------


def _well(p: str, tr, mode: str = spectrum.IRRATIONAL, coeffs=None):
    with tr.span("spectrum.decompose"):
        param = spectrum.decompose(p, mode)
    with tr.span("spectrum.order_spectrum"):
        spec = spectrum.order_spectrum(param)
    tr.count("spectrum.levels", len(spec.levels))
    with tr.span("states.build_mu_basis"):
        mu = states.build_mu_basis(spec, coeffs)
    with tr.span("states.MorseBasis"):
        basis = states.MorseBasis(param)
    return param, spec, mu, basis


def _explicit_tables(basis, tr) -> None:
    """Traced run only: build the tables the next call would build inside itself."""
    if not tr.enabled:
        return
    with tr.span("states.support_box"):
        basis.support_box()
    for rule in (BASE_RULE, BASE_RULE.refined()):
        with tr.span("states.mode_tables"):
            tables = basis.mode_tables(rule)
        tr.count("states.quad_nodes", tables.x.size)
        # the same nodes and degrees mode_tables runs the recurrence on
        z = np.exp(np.minimum(math.log(basis.nu) - basis.beta * tables.x, 700.0))
        with tr.span("specfun.laguerre_signed_log"):
            for n in basis.bound_modes():
                alpha = 2.0 * (basis.p - n)
                specfun.laguerre_signed_log(n, alpha, z)
                if n > 0:
                    specfun.laguerre_signed_log(n - 1, alpha + 1.0, z)
                tr.count("specfun.recurrence_steps", (2 * n - 1 if n else 0) * z.size)


def _level_count_check(k: int, levels: int) -> Check:
    return Check("level_count", abs(levels - (k + 1) * (k + 2) // 2), None)


def _moment_error(got, ref) -> float:
    names = ("mean_q", "mean_q2", "mean_p", "mean_p2")
    return max(abs(getattr(got, n) - getattr(ref, n)) / max(1.0, abs(getattr(ref, n))) for n in names)


# -- verify ----------------------------------------------------------------------

def verify_op(case: Case, ctx) -> dict:
    tr, budgets = ctx.tr, ctx.budgets
    param, spec, mu, basis = _well(case.p_text, tr)
    _explicit_tables(basis, tr)
    with tr.span("states.gram_matrix"), time_budget(budgets["gram_matrix_s"]):
        gram = states.gram_matrix(basis, mu.states)
    tr.count("states.gram_entries", gram.size)
    with tr.span("coherent.ladder_f"):
        ladder = coherent.ladder_f(spec)
    with tr.span("coherent.coherent_coefficients"):
        state = coherent.coherent_coefficients(case.psi, ladder, mu)
    with tr.span("coherent.bg_residual"):
        closed = coherent.bg_residual(state, ladder)
    log_closed = (
        (state.xi + 1) * math.log(abs(state.psi))
        - 0.5 * ladder.log_factorials[-1]
        - 0.5 * state.log_normalization
    )
    out = {"levels": len(spec.levels), "gram": gram, "state": state,
           "closed": closed, "log_closed": log_closed}
    try:
        with tr.span("coherent.bg_residual_direct"), time_budget(budgets["bg_residual_direct_s"]):
            out["direct"] = coherent.bg_residual_direct(state, ladder)
    except OverBudget as exc:
        # the Gram matrix and the closed form are still checked
        raise OverBudget(str(exc), partial=out) from exc
    return out


def verify_check(case: Case, out: dict, ctx) -> list[Check]:
    tr, tol = ctx.tr, ctx.tol
    dev = float(np.abs(out["gram"] - np.eye(out["gram"].shape[0])).max())
    tr.peak("states.gram_dev_max", dev)
    norm = float(np.sum(np.abs(out["state"].coefficients) ** 2))
    checks = [
        _level_count_check(case.k, out["levels"]),
        Check("gram_identity", dev, tol["gram"]),
        Check("coherent_norm", abs(norm - 1.0), tol["coherent_norm"]),
    ]
    closed, direct = out["closed"], out.get("direct")
    if closed == 0.0 and math.isfinite(out["log_closed"]):
        tr.count("coherent.residual_underflows")
    # compared only where both are normal doubles: below that the closed form
    # has underflowed or lost digits, and the direct value was rounded to match
    if direct is not None and min(closed, direct) >= sys.float_info.min:
        rel = abs(closed - direct) / direct
        tr.peak("coherent.residual_rel_err", rel)
        checks.append(Check("residual_match", rel, tol["residual"]))
    return checks


# -- deep wells ------------------------------------------------------------------

DEEP_TASKS = ("spectrum", "density", "moments", "crossings")


def _coherent_state(case: Case, tr):
    param, spec, mu, basis = _well(case.p_text, tr)
    with tr.span("coherent.ladder_f"):
        ladder = coherent.ladder_f(spec)
    with tr.span("coherent.coherent_coefficients"):
        state = coherent.coherent_coefficients(case.psi, ladder, mu)
    return param, spec, mu, basis, state


def deep_op(case: Case, ctx) -> dict:
    tr = ctx.tr
    if case.task == "spectrum":
        param, spec, _, _ = _well(case.p_text, tr)
        with tr.span("spectrum.count_summary"):
            census = spectrum.count_summary(spec.levels)
        return {"levels": len(spec.levels), "census": census}
    if case.task == "density":
        param, spec, mu, basis, state = _coherent_state(case, tr)
        if tr.enabled:
            with tr.span("coherent.coefficient_matrix"):
                state.coefficient_matrix(basis.k + 1)
        with tr.span("states.density_grid"):
            field = states.density_grid(basis, state)
        return {"field": field, "basis": basis, "state": state}
    if case.task == "moments":
        param, spec, mu, basis, state = _coherent_state(case, tr)
        _explicit_tables(basis, tr)
        with tr.span("coherent.moments"):
            report = coherent.moments(basis, state, "x")
        return {"report": report, "param": param, "state": state}
    with tr.span("spectrum.decompose"):
        param = spectrum.decompose(case.p_text, spectrum.IRRATIONAL)
    levels = (param.k + 1) * (param.k + 2) // 2
    pairs = levels * (levels - 1) // 2
    tr.count("spectrum.crossing_pairs", pairs)
    budget = ctx.budgets["crossing_report_mib"] * 2**20
    with tr.span("spectrum.crossing_report"):
        try:
            need = pairs * ctx.bytes_per_pair
            if need > budget:
                raise OverBudget(f"{pairs} key pairs need about {need / 2**20:.0f} MiB, "
                                 f"over the budget of {budget / 2**20:g} MiB")
            # the address-space cap stops the call should the estimate fall short
            with memory_budget(budget):
                crossings = spectrum.crossing_report(param.k, param.epsilon, ctx.spec["crossing_tol"])
        except OverBudget:
            tr.count("spectrum.crossing_refused")
            raise
    return {"crossings": crossings, "epsilon": param.epsilon}


def calibrate(name: str, ctx) -> None:
    """Measure crossing_report's bytes per key pair on a small well, outside any timed region.

    The deep-wells budget check multiplies this by a well's pair count, so a
    crossing scan that needs less memory per pair is refused less often.
    """
    if name != "deep-wells":
        return
    k = ctx.spec["calibration_k"]
    param = spectrum.decompose(p_text(random.Random(0), k, 1, 3), spectrum.IRRATIONAL)
    levels = (k + 1) * (k + 2) // 2
    peak = peak_traced_bytes(
        lambda: spectrum.crossing_report(param.k, param.epsilon, ctx.spec["crossing_tol"]))
    ctx.bytes_per_pair = peak / (levels * (levels - 1) // 2)


def _density_reference(field, basis, state, rng: random.Random, samples: int) -> float:
    """Largest deviation, relative to the peak, of sampled cells from a direct sum.

    The direct sum adds c_i (gamma phi_n(x) phi_m(y) + delta phi_m(x) phi_n(y))
    level by level, without the coefficient matrix density_grid contracts.
    """
    spec = field.spec
    # the peak cell plus cells where the density is not negligible
    live_i, live_j = np.nonzero(field.values > 1e-3 * field.values.max())
    pick = [int(np.argmax(field.values[live_i, live_j]))]
    pick += [rng.randrange(live_i.size) for _ in range(samples - 1)]
    ii, jj = live_i[pick], live_j[pick]
    xs, ys = spec.x_centers()[ii], spec.y_centers()[jj]
    modes = range(basis.k + 1)
    fx = np.array([basis.mode_values(n, xs) if basis.mode_is_bound(n) else 0 * xs for n in modes])
    fy = np.array([basis.mode_values(n, ys) if basis.mode_is_bound(n) else 0 * ys for n in modes])
    amp = np.zeros(samples, dtype=complex)
    for c, s in zip(state.coefficients, state.basis.states):
        if s.is_diagonal:
            amp += c * fx[s.n] * fy[s.n]
        else:
            amp += c * (s.coeffs.gamma * fx[s.n] * fy[s.m] + s.coeffs.delta * fx[s.m] * fy[s.n])
    peak = float(field.values.max())
    return float(np.max(np.abs(np.abs(amp) ** 2 - field.values[ii, jj]))) / peak


def deep_check(case: Case, out: dict, ctx) -> list[Check]:
    tol = ctx.tol
    k = case.k
    if case.task == "spectrum":
        c = out["census"]
        levels = (k + 1) * (k + 2) // 2
        census_err = abs(c.total_states - (k + 1) ** 2) + abs(c.distinct - levels) + abs(
            c.swap_reduced - levels) + abs(c.accidental)
        return [_level_count_check(k, out["levels"]), Check("census", census_err, None)]
    if case.task == "density":
        field = out["field"]
        finite = bool(np.all(np.isfinite(field.values)) and field.values.min() >= 0.0)
        rng = random.Random(f"density:{case.p_text}")
        err = _density_reference(field, out["basis"], out["state"], rng, ctx.spec["density_samples"])
        return [Check("density_finite", 0 if finite else 1, None),
                Check("density_reference", err, tol["density"])]
    if case.task == "moments":
        report = out["report"]
        ref = ctx.reference(case, lambda: coherent.moments(
            states.MorseBasis(out["param"]), out["state"], "x", REFERENCE_RULE))
        # var_q var_p >= 1/4 (hbar = 1); err is how far below the floor it sits
        return [Check("uncertainty_floor", max(0.0, 0.25 - report.product), tol["uncertainty_floor"]),
                Check("moments_reference", _moment_error(report, ref), tol["moments"])]
    window = ctx.spec["crossing_tol"]
    outside = sum(abs(c.epsilon_cross - out["epsilon"]) >= window for c in out["crossings"])
    return [Check("crossing_window", outside, None)]


# -- cli session -------------------------------------------------------------------

def _digest(out_dir: Path) -> dict:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
    }


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def cli_op(case: Case, ctx) -> dict:
    out_dir = _fresh_dir(ctx.work / "cli")
    if ctx.tr.enabled:
        return _cli_traced(case, ctx, out_dir)
    cmd = [sys.executable, "-m", "morsekit.cli", *case.argv, "--out", str(out_dir)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ctx.env,
                            cwd=ctx.work, text=True)
    try:
        stdout, _ = proc.communicate(timeout=ctx.budgets["cli_subprocess_s"])
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise OverBudget(f"CLI call over {ctx.budgets['cli_subprocess_s']} s")
    return {"exit_code": proc.returncode, "stdout": stdout, "out_dir": out_dir}


def cli_check(case: Case, out: dict, ctx) -> list[Check]:
    gold = ctx.golden[" ".join(case.argv)]
    files = _digest(out["out_dir"])
    checks = [
        Check("exit_code", int(out["exit_code"] != gold["exit_code"]), None),
        Check("stdout", int(out["stdout"] != gold["stdout"]), None),
        Check("output_sha256", int(files != gold["files"]), None),
    ]
    shutil.rmtree(out["out_dir"], ignore_errors=True)
    return checks


_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import morsekit.cli; print(time.perf_counter() - t)"
)

# The public functions cli.main reaches, by module.  cli.main imports them when
# it runs, so wrapping the module attributes puts spans around its own calls.
_CLI_CALLS = {
    fileio: ("write_spectrum_csv", "write_spectrum_json", "write_density_csv", "write_density_pgm",
             "write_density_meta", "write_coherent_json", "write_sweep_csv"),
    spectrum: ("decompose", "order_spectrum", "count_summary"),
    states: ("build_mu_basis", "density_grid"),
    coherent: ("ladder_f", "coherent_coefficients", "bg_residual", "uncertainty_sweep"),
}


def _span_name(module, attr: str) -> str:
    if attr.startswith("write_spectrum_"):
        return "fileio.write_spectrum"
    return f"{module.__name__.rsplit('.', 1)[1]}.{attr}"


def _spanned(tr, name: str, fn):
    def call(*args, **kwargs):
        if name == "coherent.uncertainty_sweep":
            _explicit_tables(args[0], tr)
        with tr.span(name):
            result = fn(*args, **kwargs)
        if name.startswith("fileio."):
            tr.count("fileio.bytes_written", Path(args[0]).stat().st_size)
        elif name == "spectrum.order_spectrum":
            tr.count("spectrum.levels", len(result.levels))
        return result

    return call


@contextlib.contextmanager
def _cli_spans(tr):
    """Wrap the public calls of ``_CLI_CALLS`` in spans for the duration of the block."""
    saved = [(module, attr, getattr(module, attr)) for module, attrs in _CLI_CALLS.items()
             for attr in attrs]
    for module, attr, fn in saved:
        setattr(module, attr, _spanned(tr, _span_name(module, attr), fn))
    try:
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def _cli_traced(case: Case, ctx, out_dir: Path) -> dict:
    """Traced CLI operation: fresh-process import, then ``cli.main`` in process with spans."""
    tr = ctx.tr
    probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], capture_output=True,
                           text=True, env=ctx.env, cwd=ctx.work, check=True)
    tr.count("cli.import_s", float(probe.stdout))
    buffer = io.StringIO()
    with _cli_spans(tr), tr.span("cli.main"), contextlib.redirect_stdout(buffer), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*case.argv, "--out", str(out_dir)])
    return {"exit_code": code, "stdout": buffer.getvalue(), "out_dir": out_dir}


# -- running one operation -------------------------------------------------------

OPS = {
    "cli-session": (cli_op, cli_check),
    "verify": (verify_op, verify_check),
    "deep-wells": (deep_op, deep_check),
}


def _checks(check, case: Case, out: dict, ctx) -> list[Check]:
    try:
        return check(case, out, ctx)
    except Exception as exc:  # a check that cannot be made is a failed check
        return [Check(f"check_error:{type(exc).__name__}", math.inf, None)]


def run_op(name: str, case: Case, op_id: int, ctx) -> Outcome:
    """Time one operation, then check its output outside the timed region."""
    op, check = OPS[name]
    ctx.tr.begin_op(op_id, case.k)
    label = " ".join(case.argv) if case.argv else f"k={case.k} {case.task}".strip()
    start = time.perf_counter()
    try:
        with ctx.tr.span(f"op.{name}"):
            out = op(case, ctx)
    except OverBudget as exc:
        latency = time.perf_counter() - start
        checks = [] if exc.partial is None else _checks(check, case, exc.partial, ctx)
        failed = [c.name for c in checks if not c.passed]
        detail = str(exc) + (f"; failed checks: {', '.join(failed)}" if failed else "")
        return Outcome(op_id, label, REFUSED, latency, checks, detail=detail)
    except MorsekitError as exc:
        if isinstance(exc, QuadratureAccuracyError):
            ctx.tr.count("states.quad_failures")
        return Outcome(op_id, label, RAISED, time.perf_counter() - start,
                       detail=f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # a crash is counted and reported, never allowed to end the run
        return Outcome(op_id, label, RAISED, time.perf_counter() - start,
                       detail=f"{type(exc).__name__}: {exc}", documented=False)
    latency = time.perf_counter() - start
    return classify(Outcome(op_id, label, OK, latency, _checks(check, case, out, ctx)))


def warmup(name: str, ctx) -> None:
    """One untimed operation on the README's p = 3 pi well (k = 9)."""
    if name == "cli-session":
        out_dir = _fresh_dir(ctx.work / "warmup")
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["spectrum", "--p", "3pi", "--out", str(out_dir)])
        shutil.rmtree(out_dir, ignore_errors=True)
        return
    tasks = DEEP_TASKS if name == "deep-wells" else ("",)
    for task in tasks:
        OPS[name][0](Case(0, 9, WARMUP_P, 1.0, task), ctx)
