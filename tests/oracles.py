"""Reference implementations that the vectorized library code is tested against.

These are the straightforward loops and complex-arithmetic forms the library
used before it was vectorized or simplified; they are slow but their
arithmetic is easy to audit.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath
import numpy as np

from morsekit import (
    IRRATIONAL,
    RATIONAL,
    Crossing,
    OrderedSpectrum,
    OrderingAmbiguityError,
    enumerate_levels,
    level_key,
    log_bg_residual,
)

# Adjacent float energies closer than this many ulps are re-compared exactly.
_ULP_WINDOW = 8


def laguerre(n, alpha, x):
    """Generalized Laguerre polynomial L_n^alpha(x) by the upward recurrence.

    j L_j = (2j - 1 + alpha - x) L_{j-1} - (j - 1 + alpha) L_{j-2},
    seeded with L_0 = 1 and L_1 = 1 + alpha - x.
    """
    if n < 0:
        raise ValueError("polynomial degree must be non-negative")
    if alpha <= -1.0:
        raise ValueError("alpha must exceed -1 for an orthogonal family")
    arr = np.asarray(x, dtype=float)
    prev = np.zeros_like(arr)
    cur = np.ones_like(arr)
    for j in range(1, n + 1):
        prev, cur = cur, ((2.0 * j - 1.0 + alpha - arr) * cur - (j - 1.0 + alpha) * prev) / j
    return float(cur) if arr.ndim == 0 else cur


def laguerre_derivative(n, alpha, x):
    """d/dx L_n^alpha(x) = -L_{n-1}^{alpha+1}(x), with the n = 0 case zero."""
    if n == 0:
        out = np.zeros_like(np.asarray(x, dtype=float))
        return float(out) if out.ndim == 0 else out
    return -laguerre(n - 1, alpha + 1.0, x)


def bg_residual_direct_logexp(state, ladder):
    """bg_residual_direct with each magnitude exponentiated from its log.

    e_n = exp(h_n - max h), h_n = n ln|Psi| - ln([f(n)]!) / 2, at the same
    working precision as the library; one mpmath log and exp per rung.
    """
    estimate = log_bg_residual(state, ladder) / math.log(10.0)
    if state.psi == 0.0:
        return 0.0
    with mpmath.workdps(40 + max(0, -int(math.floor(estimate)))):
        apsi = abs(mpmath.mpc(state.psi))
        log_apsi = mpmath.log(apsi)
        log_fact, h = mpmath.mpf(0), [mpmath.mpf(0)]
        for n, value in enumerate(ladder.f[1:].tolist(), start=1):
            log_fact += mpmath.log(value)
            h.append(n * log_apsi - log_fact / 2)
        top = max(h)
        e = [mpmath.exp(t - top) for t in h]
        gaps = [mpmath.sqrt(f) * hi - apsi * lo for f, lo, hi in zip(ladder.f[1:].tolist(), e, e[1:])]
        gaps.append(apsi * e[-1])
        return float(mpmath.sqrt(mpmath.fdot(gaps, gaps) / mpmath.fdot(e, e)))


def bg_residual_direct_complex(state, ladder, dps=None):
    """bg_residual_direct on the complex coefficients, phases and all."""
    if state.psi == 0.0:
        return 0.0
    if dps is None:
        estimate = (
            (state.xi + 1) * math.log10(abs(state.psi))
            - (0.5 * ladder.log_factorials[-1] + 0.5 * state.log_normalization) / math.log(10.0)
        )
        dps = 40 + max(0, -int(math.floor(estimate)))
    with mpmath.workdps(dps):
        psi = mpmath.mpc(state.psi)
        apsi = abs(psi)
        log_fact = [mpmath.mpf(0)]
        for value in ladder.f[1:]:
            log_fact.append(log_fact[-1] + mpmath.log(mpmath.mpf(value)))
        log_apsi = mpmath.log(apsi)
        phase = mpmath.arg(psi)
        terms = [2 * i * log_apsi - log_fact[i] for i in range(state.xi + 1)]
        top = max(terms)
        norm = top + mpmath.log(mpmath.fsum(mpmath.exp(t - top) for t in terms))
        coeff = [
            mpmath.exp(i * log_apsi - log_fact[i] / 2 - norm / 2) * mpmath.exp(1j * i * phase)
            for i in range(state.xi + 1)
        ]
        # lowering action: (A- c)[i] = sqrt(f(i+1)) c[i+1], zero at the top rung
        lowered = [
            mpmath.sqrt(mpmath.mpf(ladder.f[i + 1])) * coeff[i + 1] if i < state.xi else mpmath.mpc(0)
            for i in range(state.xi + 1)
        ]
        residual = mpmath.sqrt(
            mpmath.fsum(abs(lowered[i] - psi * coeff[i]) ** 2 for i in range(state.xi + 1))
        )
        return float(residual)


def gram_matrix_loop(basis, states):
    """<s_i | s_j> as one vdot of C_i against S C_j S^T per state pair."""
    dim = basis.k + 1
    s = basis.overlap_table()
    mats = [state.coefficient_matrix(dim) for state in states]
    transformed = [s @ c @ s.T for c in mats]
    g = np.empty((len(mats), len(mats)), dtype=complex)
    for i, ci in enumerate(mats):
        for j, tj in enumerate(transformed):
            g[i, j] = np.vdot(ci, tj)
    return g


def coherent_coefficient_matrix_sum(state, dim):
    """sum_n c_n C(mu_n) as one dense (dim x dim) term per level."""
    c = np.zeros((dim, dim), dtype=complex)
    for weight, level_state in zip(state.coefficients, state.basis.states):
        c += weight * level_state.coefficient_matrix(dim)
    return c


def crossing_report_pairs(k, epsilon, tol):
    """crossing_report over every one of the L(L-1)/2 key pairs at once."""
    keys = sorted({level_key(k, n, m) for n in range(k + 1) for m in range(k + 1)})
    a = np.array([key.a for key in keys], dtype=float)
    b = np.array([key.b for key in keys], dtype=float)
    ii, jj = np.triu_indices(len(keys), 1)
    da = a[ii] - a[jj]
    db = b[ii] - b[jj]
    hit = np.abs(da + 2.0 * epsilon * db) < 2.0 * tol * np.abs(db)
    out = []
    for idx in np.nonzero(hit)[0]:
        key_i, key_j = sorted((keys[ii[idx]], keys[jj[idx]]))
        exact = Fraction(int(-da[idx]), int(2.0 * db[idx]))
        out.append(Crossing(key_i, key_j, float(-da[idx] / (2.0 * db[idx])), exact))
    out.sort(key=lambda c: (c.epsilon_cross, c.key_i, c.key_j))
    return out


def _within_ulps(x, y, count):
    return abs(x - y) <= count * math.ulp(max(abs(x), abs(y)))


def _resolve_float_ties(param, records):
    """Re-sort runs of float-indistinguishable energies with exact Decimal arithmetic.

    ``records`` arrive sorted by float shifted energy.  Any consecutive run
    whose neighbours differ by at most _ULP_WINDOW ulps is re-keyed as
    a + 2 eps b with eps taken from the decimal text at full precision.  If
    two distinct keys produce exactly equal Decimal values the declared
    irrationality is contradicted and OrderingAmbiguityError is raised.
    """
    eps = param.epsilon_exact
    out = []
    i = 0
    while i < len(records):
        j = i + 1
        while j < len(records) and _within_ulps(
            records[j - 1].shifted_energy, records[j].shifted_energy, _ULP_WINDOW
        ):
            j += 1
        run = records[i:j]
        if len(run) > 1:
            with localcontext() as ctx:
                ctx.prec = max(60, len(param.p_text) + 25)
                exact = {rec.key: Decimal(rec.key.a) + 2 * eps * rec.key.b for rec in run}
            run.sort(key=lambda rec: exact[rec.key], reverse=True)
            for u, v in zip(run, run[1:]):
                if exact[u.key] == exact[v.key]:
                    raise OrderingAmbiguityError(
                        f"levels {u.key} and {v.key} are exactly degenerate at "
                        f"p = {param.p_text}; the declared mode {param.mode!r} does not "
                        "admit a strict order here",
                        keys=(u.key, v.key), p_text=param.p_text, mode=param.mode,
                    )
        out.extend(run)
        i = j
    return out


def order_spectrum_float(param):
    """order_spectrum by float energy, with near-ties settled in Decimal.

    The levels are sorted by (float shifted energy, a, b).  Integer and
    rational modes then re-sort by the exact grouping key a q + 2 r b
    (q = 1, r = 0 for integers).  Irrational mode re-compares every run of
    neighbours within _ULP_WINDOW ulps exactly and raises on an exact tie.
    """
    records = sorted(
        enumerate_levels(param), key=lambda rec: (rec.shifted_energy, rec.key.a, rec.key.b)
    )
    if param.mode == IRRATIONAL:
        records = _resolve_float_ties(param, records)
    else:
        r, q = (param.ratio.numerator, param.ratio.denominator) if param.mode == RATIONAL else (0, 1)
        records.sort(key=lambda rec: -(rec.key.a * q + 2 * r * rec.key.b))
    return OrderedSpectrum(param, tuple(records), len(records) - 1)
