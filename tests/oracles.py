"""Reference implementations that the vectorized library code is tested against.

These are the straightforward loops and complex-arithmetic forms the library
used before it was vectorized or simplified; they are slow but their
arithmetic is easy to audit.
"""

import itertools
import json
import math
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np

from morsekit import (
    ACCIDENTAL,
    DOUBLET,
    IRRATIONAL,
    RATIONAL,
    SINGLET,
    CountSummary,
    Crossing,
    LevelKey,
    LevelRecord,
    MixingCoefficients,
    ModeTables,
    MomentReport,
    MuState,
    QuadratureAccuracyError,
    QuadratureConfig,
    OrderedSpectrum,
    OrderingAmbiguityError,
    eigenfunction,
    enumerate_levels,
    gram_matrix,
    level_key,
    log_bg_residual,
)
from morsekit.coherent import _axis_expectations
from morsekit.specfun import laguerre_signed_log, log_gamma
from morsekit.states import _expand, _log_norm

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


def laguerre_signed_log_single(n, alpha, x):
    """laguerre_signed_log for one (n, alpha), with fresh arrays at every step.

    Both running values are rescaled by 2^-512 wherever either exceeds 1e250.
    """
    if n < 0:
        raise ValueError("polynomial degree must be non-negative")
    if alpha <= -1.0:
        raise ValueError("alpha must exceed -1 for an orthogonal family")
    arr = np.asarray(x, dtype=float)
    prev = np.zeros_like(arr)
    cur = np.ones_like(arr)
    shift = np.zeros_like(arr)
    for j in range(1, n + 1):
        prev, cur = cur, ((2.0 * j - 1.0 + alpha - arr) * cur - (j - 1.0 + alpha) * prev) / j
        big = np.maximum(np.abs(cur), np.abs(prev)) > 1.0e250
        if np.any(big):
            cur = np.where(big, cur * 2.0**-512, cur)
            prev = np.where(big, prev * 2.0**-512, prev)
            shift = np.where(big, shift + 512.0 * np.log(2.0), shift)
    sign = np.sign(cur)
    with np.errstate(divide="ignore"):
        log_abs = np.log(np.abs(cur)) + shift
    if arr.ndim == 0:
        return float(sign), float(log_abs)
    return sign, log_abs


# The mode loops below evaluate one 1D Morse mode at a time, each with its own
# Laguerre recurrence from L_0: phi_n = N_n z^(p-n) e^(-z/2) L_n^(2(p-n))(z)
# with z = nu e^(-beta x).  ln z is clipped at 130, where e^(-z/2) is already
# zero and z times a running value of up to 1e250 is still finite; log-space
# values are clipped at 705 before exp().
_LOG_Z_CAP, _LOG_EXP_CAP = 130.0, 705.0


def log_norm_1d(basis, n):
    """ln N_n with N_n = sqrt(beta (nu - 2n - 1) n! / Gamma(nu - n)), from the basis's cached logs."""
    basis._check_mode(n)
    return 0.5 * math.log(basis.beta) + float(basis._log_norms[n])


def _mode_envelope(basis, n, log_z):
    log_z = np.minimum(log_z, _LOG_Z_CAP)
    z = np.exp(log_z)
    with np.errstate(over="ignore"):
        return z, log_norm_1d(basis, n) + (basis.p - n) * log_z - 0.5 * z


def mode_values_loop(basis, n, x):
    """phi_n on the positions x."""
    z, log_pre = _mode_envelope(basis, n, math.log(basis.nu) - basis.beta * x)
    sign, log_lag = laguerre_signed_log_single(n, 2.0 * (basis.p - n), z)
    return sign * np.exp(np.minimum(log_pre + log_lag, _LOG_EXP_CAP))


def mode_derivative_loop(basis, n, x):
    """phi_n' = -beta N_n z^(p-n) e^(-z/2) [(p - n - z/2) L_n^a(z) - z L_{n-1}^{a+1}(z)], a = 2(p-n)."""
    z, log_pre = _mode_envelope(basis, n, math.log(basis.nu) - basis.beta * x)
    alpha = 2.0 * (basis.p - n)
    sign_l, log_l = laguerre_signed_log_single(n, alpha, z)
    bracket = (basis.p - n - 0.5 * z) * sign_l * np.exp(np.minimum(log_pre + log_l, _LOG_EXP_CAP))
    if n > 0:
        sign_d, log_d = laguerre_signed_log_single(n - 1, alpha + 1.0, z)
        bracket = bracket - z * sign_d * np.exp(np.minimum(log_pre + log_d, _LOG_EXP_CAP))
    return -basis.beta * bracket


def mode_derivative_values(basis, n, x):
    """d phi_n / dx on the given positions (scalar or array), from the derivative rows of ``MorseBasis._rows``."""
    basis._check_mode(n)
    arr = np.asarray(x, dtype=float)
    vals = basis._rows([n], arr.reshape(-1), derivative=True)[1][0].reshape(arr.shape)
    return float(vals) if arr.ndim == 0 else vals


def mode_box_scan(basis, n):
    """Box of one mode: widen a 4097-point window in u = ln z until both ends fall below the cut."""
    lo_u, hi_u = -8.0, math.log(4.0 * basis.nu + 50.0)
    log_cut = math.log(1.0e-14)
    for _ in range(200):
        us = np.linspace(lo_u, hi_u, 4097)
        z, log_pre = _mode_envelope(basis, n, us)
        _, log_lag = laguerre_signed_log_single(n, 2.0 * (basis.p - n), z)
        g = 2.0 * (log_pre + log_lag)
        threshold = g.max() + log_cut
        grow_lo = g[0] > threshold
        grow_hi = g[-1] > threshold
        if not grow_lo and not grow_hi:
            break
        span = hi_u - lo_u
        if grow_lo:
            lo_u -= 0.5 * span
        if grow_hi:
            hi_u += 0.25 * span
    else:
        raise RuntimeError(f"support scan for mode {n} failed to localize the density")
    above = np.nonzero(g > threshold)[0]
    du = us[1] - us[0]
    u_lo = us[above[0]] - du
    u_hi = us[above[-1]] + du
    return (math.log(basis.nu) - u_hi) / basis.beta, (math.log(basis.nu) - u_lo) / basis.beta


def support_box_loop(basis):
    boxes = [mode_box_scan(basis, n) for n in basis.bound_modes()]
    return min(b[0] for b in boxes), max(b[1] for b in boxes)


def mode_tables_loop(basis, quad):
    """MorseBasis.mode_tables with every mode and derivative row built by the loops above."""
    lo, hi = support_box_loop(basis)
    x, w = quad.nodes(lo, hi, split=(math.log(basis.nu) + 3.0) / basis.beta)
    f = np.zeros((basis.k + 1, x.size))
    df = np.zeros((basis.k + 1, x.size))
    for n in basis.bound_modes():
        f[n] = mode_values_loop(basis, n, x)
        df[n] = mode_derivative_loop(basis, n, x)
    fw = f * w
    dfw = df * w
    hbar = basis.physical.hbar
    return ModeTables(
        x=x,
        w=w,
        overlap_1d=fw @ f.T,
        position=(fw * x) @ f.T,
        position_sq=(fw * x * x) @ f.T,
        momentum=hbar * (fw @ df.T),
        momentum_sq=hbar * hbar * (dfw @ df.T),
    )


def density_grid_loop(basis, state, grid):
    """density_grid values with the mode rows of each axis built one mode at a time."""
    c = state.coefficient_matrix(basis.k + 1)
    used = np.nonzero(np.any(c != 0.0, axis=1) | np.any(c != 0.0, axis=0))[0].tolist()
    xs, ys = grid.x_centers(), grid.y_centers()
    fx = np.zeros((basis.k + 1, xs.size))
    fy = np.zeros((basis.k + 1, ys.size))
    for n in used:
        fx[n] = mode_values_loop(basis, n, xs)
        fy[n] = mode_values_loop(basis, n, ys)
    return np.abs(fx.T @ c @ fy) ** 2


def gauss_laguerre_rule(nodes, alpha):
    """Nodes and log weights of one Gauss-Laguerre rule, polished on its own (three Newton steps, one call each)."""
    j = np.arange(1, nodes)
    off = np.sqrt(j * (j + alpha))
    z = np.linalg.eigvalsh(np.diag(2.0 * np.arange(nodes) + alpha + 1.0) + np.diag(off, -1))
    for _ in range(3):
        (slope_sign, sign), (log_slope, log_value) = laguerre_signed_log([nodes - 1, nodes], [alpha + 1.0, alpha], z)
        live = sign * slope_sign != 0.0
        z = z + sign * slope_sign * np.exp(np.where(live, log_value - log_slope, -np.inf))
    _, log_next = laguerre_signed_log(nodes + 1, alpha, z)
    log_w = log_gamma(nodes + alpha + 1.0) - log_gamma(nodes + 1.0) - 2.0 * math.log(nodes + 1.0)
    return z, log_w + np.log(z) - 2.0 * log_next


def overlap_table_loop(basis):
    """Overlap table S = H H^T on K + 1 nodes, one row h_n(z_i) of H per mode (see MorseBasis._overlap_rows)."""
    modes = basis.bound_modes()
    top = modes[-1]
    z, log_w = gauss_laguerre_rule(top + 1, basis.nu - 2.0 * top - 2.0)
    log_z = np.log(z)
    rows = np.zeros((basis.k + 1, z.size))
    for n in modes:
        sign, log_lag = laguerre_signed_log_single(n, 2.0 * (basis.p - n), z)
        rows[n] = sign * np.exp(0.5 * log_w + _log_norm(basis.nu, n) + (top - n) * log_z + log_lag)
    return rows @ rows.T


def pi_multiple_text_mpmath(multiple=1.0):
    """pi_multiple_text through mpmath: the product at 50 digits, printed to 40."""
    with mpmath.workdps(50):
        return mpmath.nstr(mpmath.mpf(multiple) * mpmath.pi, 40, strip_zeros=False)


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


def decimal_root(value):
    """Square root of ``value`` (float, Fraction or Decimal) correctly rounded to the decimal context precision.

    With value = m/e exactly, s = isqrt(m 10^(2q) // e) is the root's floor at
    q places; q leaves s at least one digit beyond the precision, and an
    appended sticky digit (1 when s^2 e != m 10^(2q)) marks a nonzero rest.
    """
    m, e = value.as_integer_ratio()
    q = getcontext().prec + 2 + max(0, e.bit_length() - m.bit_length()) // 3
    scaled = m * 10 ** (2 * q)
    s = math.isqrt(scaled // e)
    return (+Decimal(10 * s + (s * s * e != scaled))).scaleb(-(q + 1))


def bg_residual_direct_decimal(state, ladder):
    """bg_residual_direct in ``decimal`` arithmetic, as the library computed it before its integer form.

    The same running power and running product of roots, at d = 40 digits
    plus the places ``log_bg_residual`` puts below 1 (at most 380), with
    every root, the final one included, correctly rounded to d digits by
    ``decimal_root`` and the result rounded to a double by ``float``.
    """
    estimate = log_bg_residual(state, ladder) / math.log(10.0)
    if state.psi == 0.0:
        return 0.0
    with localcontext() as ctx:
        ctx.prec = 40 + min(340, max(0, -int(math.floor(estimate))))
        apsi = decimal_root(Fraction(state.psi.real) ** 2 + Fraction(state.psi.imag) ** 2)
        roots = [decimal_root(f) for f in ladder.f[1:].tolist()]
        power = root_fact = Decimal(1)
        e = [power]
        for r in roots:
            power *= apsi
            root_fact *= r
            e.append(power / root_fact)
        # (A- c)_n = sqrt(f(n+1)) c_{n+1}, zero at the top rung
        gaps = [r * hi - apsi * lo for r, lo, hi in zip(roots, e, e[1:])]
        gaps.append(apsi * e[-1])
        return float(decimal_root(sum(g * g for g in gaps) / sum(x * x for x in e)))


def bg_residual_direct_complex(state, ladder, dps=None):
    """bg_residual_direct on the complex coefficients, phases and all."""
    if state.psi == 0.0:
        return 0.0
    return float(residual_complex_mpf(state, ladder, dps))


def residual_complex_mpf(state, ladder, dps=None):
    """bg_residual_direct_complex before it is rounded to a double: an mpf at dps digits."""
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
        return mpmath.sqrt(
            mpmath.fsum(abs(lowered[i] - psi * coeff[i]) ** 2 for i in range(state.xi + 1))
        )


def mu_wavefunction(basis, state, x, y):
    """Complex amplitude of a level state at the given points: gamma psi_{n,m} + delta psi_{m,n}, or psi_{n,n}."""
    (n, m, gamma, delta), = state.pairs
    if n == m:
        return gamma * eigenfunction(basis, n, n, x, y)
    return gamma * eigenfunction(basis, n, m, x, y) + delta * eigenfunction(basis, m, n, x, y)


def overlap(basis, state_a, state_b):
    """<state_a | state_b>, the off-diagonal entry of ``gram_matrix`` on the two states."""
    return complex(gram_matrix(basis, [state_a, state_b])[0, 1])


def localization_fraction(state, count=1):
    """Probability weight a coherent state carries on its lowest ``count`` levels."""
    return float((np.abs(state.coefficients) ** 2)[:count].sum())


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


def gram_matrix_pairs(basis, states):
    """gram_matrix over pairs of nonzero coefficient-matrix entries: four complex outer products, then np.add.at."""
    s = basis.overlap_table()
    rows, cols, vals, owner = [], [], [], []
    for i, state in enumerate(states):
        c, _ = _expand(basis, state)
        a, b = np.nonzero(c)
        pad = [0] * (a.size % 2)
        rows += a.tolist() + pad
        cols += b.tolist() + pad
        vals += c[a, b].tolist() + pad
        owner += [i] * ((a.size + 1) // 2)
    rows, cols = (np.array(x, dtype=np.intp).reshape(-1, 2) for x in (rows, cols))
    vals = np.array(vals, dtype=complex).reshape(-1, 2)
    pair_gram = np.zeros((len(vals), len(vals)), dtype=complex)
    for p, q in itertools.product(range(2), repeat=2):
        term = np.multiply.outer(np.conj(vals[:, p]), vals[:, q])
        term *= s[np.ix_(rows[:, p], rows[:, q])]
        term *= s[np.ix_(cols[:, p], cols[:, q])]
        pair_gram += term
    g = np.zeros((len(states), len(states)), dtype=complex)
    np.add.at(g, np.ix_(owner, owner), pair_gram)
    return g


def _swap_pairs(basis, state):
    """A state as lists n, m, gamma, delta of swap pairs gamma |n, m> + delta |m, n>; at least one pair.

    The state goes through its coefficient matrix C (``_expand``), one pair
    per unordered {a, b} with a nonzero entry: gamma = C[a, b],
    delta = C[b, a], or 0 if a == b.  A level state is thus its one pair
    (n, m, gamma, delta), or (n, n, 1, 0) if diagonal.  A state with no term
    is one zero pair.
    """
    c, _ = _expand(basis, state)
    n, m = np.nonzero(np.tril((c != 0.0) | (c.T != 0.0)))
    gamma, delta = c[n, m], np.where(n == m, 0.0j, c[m, n])
    if not n.size:
        return [0], [0], [0.0j], [0.0j]
    return n.tolist(), m.tolist(), gamma.tolist(), delta.tolist()


def pair_columns_fields(states):
    """The swap-pair columns n, m, gamma, delta of a list of level states, read from the states' fields."""
    fields = [(x.n, x.m, 1.0, 0.0) if x.coeffs is None else (x.n, x.m, x.coeffs.gamma, x.coeffs.delta)
              for x in states]
    n, m, gamma, delta = (np.array(column) for column in zip(*fields))
    return n, m, gamma.astype(complex), delta.astype(complex)


def gram_matrix_swap_pairs(basis, states):
    """gram_matrix in complex swap-pair form: (L x 2) @ (2 x L) coefficient products times full L x L gathers of S."""
    s = basis.overlap_table()
    n, m, gamma, delta, starts = [], [], [], [], []
    for state in states:
        starts.append(len(n))
        for column, values in zip((n, m, gamma, delta), _swap_pairs(basis, state)):
            column += values
    n, m = (np.array(x, dtype=np.intp) for x in (n, m))
    gamma, delta = (np.array(x, dtype=complex) for x in (gamma, delta))
    left = np.conj(np.column_stack([gamma, delta]))
    g = (left @ np.stack([gamma, delta])) * (s[n][:, n] * s[m][:, m])
    g += (left @ np.stack([delta, gamma])) * (s[n][:, m] * s[m][:, n])
    if len(n) == len(states):
        return g
    return np.add.reduceat(np.add.reduceat(g, starts, axis=0), starts, axis=1)


def ladder_strengths_increase(spectrum):
    """Whether ladder_f accepts the spectrum: e_i - e_0 must increase as doubles, which distinct energies alone do not give."""
    energies = spectrum.shifted_energies()
    return bool(np.all(np.diff(energies - energies[0]) > 0.0))


def mu_states_eager(records, coeffs=None, overrides=None):
    """build_mu_basis's states by one loop over level records: |n, n>, or the doublet's pair or its override."""
    coeffs = coeffs or MixingCoefficients.equal_mix()
    overrides = overrides or {}
    states = []
    for i, rec in enumerate(records):
        if rec.classification == ACCIDENTAL:
            raise ValueError(
                f"level {i} with key {rec.key} holds {rec.multiplicity} states; "
                "a one-state-per-level basis needs a spectrum free of accidental degeneracy"
            )
        n, m = rec.members[0]
        states.append(MuState(i, n, m) if n == m else MuState(i, n, m, overrides.get(i, coeffs)))
    return tuple(states)


def coefficient_matrix_from_states(coefficients, states, dim):
    """CoherentState.coefficient_matrix read from MuState objects: every level's terms in one np.add.at."""
    n = np.array([state.n for state in states])
    m = np.array([state.m for state in states])
    pairs = [(1.0 + 0.0j, 0.0j) if state.coeffs is None else (state.coeffs.gamma, state.coeffs.delta)
             for state in states]
    keep = np.column_stack([np.ones(n.size, dtype=bool), n != m]).ravel()
    rows = np.column_stack([n, m]).ravel()[keep]
    cols = np.column_stack([m, n]).ravel()[keep]
    values = np.array(pairs, dtype=complex).ravel()[keep]
    c = np.zeros((dim, dim), dtype=complex)
    np.add.at(c, (rows, cols), np.repeat(coefficients, 2)[keep] * values)
    return c


def coherent_coefficient_matrix_sum(state, dim):
    """sum_n c_n C(mu_n) as one dense (dim x dim) term per level."""
    c = np.zeros((dim, dim), dtype=complex)
    for weight, level_state in zip(state.coefficients, state.basis.states):
        c += weight * level_state.coefficient_matrix(dim)
    return c


def axis_expectations_einsum(c, tables, axis):
    """Moments along one axis as four-operand einsums, the path left to the planner."""
    s = tables.overlap_1d
    pairs = {
        "q": tables.position,
        "q2": tables.position_sq,
        "p": tables.momentum,
        "p2": tables.momentum_sq,
    }
    if axis == "x":
        braket = lambda a: np.einsum("ab,cd,ac,bd->", np.conj(c), c, a, s, optimize=True)
    else:
        braket = lambda a: np.einsum("ab,cd,ac,bd->", np.conj(c), c, s, a, optimize=True)
    norm = complex(braket(s)).real
    mean = {name: complex(braket(op)) / norm for name, op in pairs.items()}
    return MomentReport(
        mode=axis,
        mean_q=mean["q"].real,
        mean_q2=mean["q2"].real,
        mean_p=(-1j * mean["p"]).real,
        mean_p2=mean["p2"].real,
    )


def shifted_energy_expr(k, epsilon, n, m):
    """shifted_energy as one expression of the quanta, not through level_key."""
    return -((k - n) ** 2 + (k - m) ** 2 + 2.0 * epsilon * (2 * k - n - m))


def scaled_energy_expr(k, epsilon, n, m):
    """scaled_energy as one expression of the quanta, not through shifted_energy."""
    return -((k - n) ** 2 + (k - m) ** 2 + 2.0 * epsilon * (2 * k - n - m) + 2.0 * epsilon * epsilon)


def enumerate_levels_loop(param):
    """enumerate_levels by one pass over all (k+1)^2 states, grouped in a dict.

    Integer and rational modes group by the exact level value a D + 2 N b
    (epsilon = N / D), irrational mode by the key (a, b).  Each group is
    sorted canonically, members[0] gives the key and energy, computed here
    from the quanta, and the levels are sorted by (-value, a, b).
    """
    k = param.k
    frac = param.ratio if param.mode == RATIONAL else param.epsilon_exact
    num, den = frac.numerator, frac.denominator
    groups = {}
    for n in range(k + 1):
        u = k - n
        for m in range(k + 1):
            v = k - m
            a, b = u * u + v * v, u + v
            groups.setdefault((a, b) if param.mode == IRRATIONAL else a * den + 2 * num * b, []).append((n, m))
    records = []
    for members in groups.values():
        members.sort(key=lambda nm: (-(nm[0] - nm[1]), nm[0]))
        if len(members) == 1:
            label = SINGLET
        elif len(members) == 2 and members[0] == members[1][::-1]:
            label = DOUBLET
        else:
            label = ACCIDENTAL
        n, m = members[0]
        records.append(
            LevelRecord(
                key=LevelKey((k - n) ** 2 + (k - m) ** 2, 2 * k - n - m),
                members=tuple(members),
                multiplicity=len(members),
                shifted_energy=shifted_energy_expr(k, param.epsilon, n, m),
                classification=label,
            )
        )
    records.sort(key=lambda rec: (-(rec.key.a * den + 2 * num * rec.key.b), rec.key))
    return records


def census_of_records(levels):
    """count_summary of any list of LevelRecords, counted member by member.

    A level's swap-reduced count is its diagonal members plus half of the
    rest; the accidental count is the excess over the number of levels.
    """
    levels = list(levels)
    total = sum(rec.multiplicity for rec in levels)
    swap_reduced = 0
    for rec in levels:
        diagonal = sum(1 for n, m in rec.members if n == m)
        swap_reduced += diagonal + (rec.multiplicity - diagonal) // 2
    return CountSummary(total, swap_reduced, len(levels), swap_reduced - len(levels))


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


def crossing_report_slopes(k, epsilon, tol):
    """crossing_report with every key range-searched against every group of a higher slope, no gap filter."""
    n, m = np.tril_indices(k + 1)
    a_int, b_int = (k - n) ** 2 + (k - m) ** 2, 2 * k - n - m
    order = np.lexsort((a_int, b_int))
    a_int, b_int = a_int[order], b_int[order]
    a, b = a_int.astype(float), b_int.astype(float)
    bounds = np.searchsorted(b_int, np.arange(2 * k + 2))
    pick_i, pick_j = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    for slope in range(1, 2 * k + 1):
        lo, hi = bounds[slope], bounds[slope + 1]
        db = b[:lo] - slope
        centre = a[:lo] + 2.0 * epsilon * db
        half = 2.0 * tol * np.abs(db)
        first = lo + np.searchsorted(a[lo:hi], np.floor(centre - half) - 1.0, "left")
        count = lo + np.searchsorted(a[lo:hi], np.ceil(centre + half) + 1.0, "right") - first
        p = np.repeat(np.arange(lo), count)
        q = np.arange(p.size) + np.repeat(first - (np.cumsum(count) - count), count)
        da, db = a[p] - a[q], b[p] - b[q]
        hit = np.abs(da + 2.0 * epsilon * db) < 2.0 * tol * np.abs(db)
        pick_i.append(p[hit])
        pick_j.append(q[hit])
    p, q = np.concatenate(pick_i), np.concatenate(pick_j)
    cross = -(a[p] - a[q]) / (2.0 * (b[p] - b[q]))
    out = []
    for ap, bp, aq, bq, at in zip(
        a_int[p].tolist(), b_int[p].tolist(), a_int[q].tolist(), b_int[q].tolist(), cross.tolist()
    ):
        key_i, key_j = sorted((LevelKey(ap, bp), LevelKey(aq, bq)))
        out.append(Crossing(key_i, key_j, at, Fraction(aq - ap, 2 * (bp - bq))))
    out.sort(key=lambda c: (c.epsilon_cross, c.key_i, c.key_j))
    return out


def moments_full_tables(basis, state, axis="x", quad=None):
    """moments on the public mode_tables of both rules, which hold the rows of every bound mode."""
    quad = quad or QuadratureConfig()
    c, _ = _expand(basis, state)
    coarse = _axis_expectations(c, basis.mode_tables(quad), axis)
    fine = _axis_expectations(c, basis.mode_tables(quad.refined()), axis)
    for name in ("mean_q", "mean_q2", "mean_p", "mean_p2"):
        a, b = getattr(coarse, name), getattr(fine, name)
        delta, limit = abs(a - b), 1.0e-7 * max(1.0, abs(b))
        if delta > limit:
            raise QuadratureAccuracyError(
                f"{name} along {axis} moved by {delta:.3e} under refinement",
                quantity=f"{name} along {axis}", delta=delta, tol=limit, rule=quad,
            )
    return fine


def _within_ulps(x, y, count):
    return abs(x - y) <= count * math.ulp(max(abs(x), abs(y)))


def _resolve_float_ties(param, records):
    """Re-sort runs of float-indistinguishable energies with exact Decimal arithmetic.

    ``records`` arrive sorted by float shifted energy.  Any consecutive run
    whose neighbours differ by at most _ULP_WINDOW ulps is re-keyed as
    a + 2 eps b with eps read here from the decimal text as a Decimal of
    max(50, len + 10) digits, which holds it exactly.  If
    two distinct keys produce exactly equal Decimal values the declared
    irrationality is contradicted and OrderingAmbiguityError is raised.
    """
    with localcontext() as ctx:
        ctx.prec = max(50, len(param.p_text) + 10)
        eps = +(Decimal(param.p_text) - param.k)
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
    return spectrum_from_records(param, records)


def spectrum_from_records(param, records):
    """The OrderedSpectrum whose levels are ``records``, in that order.

    Each level contributes its states with n >= m as keys, its canonical
    first member first, so the columns hold what ``order_spectrum`` would
    put there for this level order.
    """
    n, m, bounds = [], [], [0]
    for rec in records:
        keys = [nm for nm in rec.members if nm[0] >= nm[1]]
        n += [nm[0] for nm in keys]
        m += [nm[1] for nm in keys]
        bounds.append(len(n))
    n, m = np.array(n, dtype=np.int64), np.array(m, dtype=np.int64)
    u, v = param.k - n, param.k - m
    return OrderedSpectrum(param, n, m, u * u + v * v, u + v, np.array(bounds, dtype=np.int64))


def density_pgm_loop(field):
    """Text of write_density_pgm, each 68-column line grown one token at a time."""
    values = field.values
    peak = float(values.max())
    if peak > 0.0:
        pixels = np.rint(values / peak * 65535).astype(int)
    else:
        pixels = np.zeros(values.shape, dtype=int)
    lines = ["P2", f"{field.spec.nx} {field.spec.ny}", "65535"]
    for row in pixels[:, ::-1].T.tolist():
        line = ""
        for token in map(str, row):
            if not line:
                line = token
            elif len(line) + 1 + len(token) <= 68:
                line += " " + token
            else:
                lines.append(line)
                line = token
        lines.append(line)
    return "\n".join(lines) + "\n"


def mode_value_mpmath(nu, p, n, x, dps=80):
    """phi_n(x) = N_n z^(p-n) e^(-z/2) L_n^(2(p-n))(z) with z = nu e^(-x) (beta = 1), at ``dps`` digits.

    N_n = sqrt((nu - 2n - 1) n! / Gamma(nu - n)); ``nu`` and ``p`` are the
    basis's own doubles, so both sides evaluate the formula on one input.
    """
    with mpmath.workdps(dps):
        nu, p = mpmath.mpf(nu), mpmath.mpf(p)
        z = nu * mpmath.exp(-mpmath.mpf(x))
        norm = mpmath.sqrt((nu - 2 * n - 1) * mpmath.factorial(n) / mpmath.gamma(nu - n))
        return norm * z ** (p - n) * mpmath.exp(-z / 2) * mpmath.laguerre(n, 2 * (p - n), z)


def diagonal_mean_x(nu, n, dps=40):
    """<x> of mode n: ln nu - psi(nu - 2n - 1) + sum_(j<n) 1 / (nu - n - 1 - j) (Vasan & Cross 1983; beta = 1)."""
    with mpmath.workdps(dps):
        nu = mpmath.mpf(nu)
        return mpmath.log(nu) - mpmath.digamma(nu - 2 * n - 1) + mpmath.fsum(1 / (nu - n - 1 - j) for j in range(n))


def ground_uncertainty_product(p, dps=40):
    """var_q var_p of the ground mode, p psi'(2p) / 2: var x = psi'(2p) and <P^2> = p / 2 (hbar = beta = 1)."""
    with mpmath.workdps(dps):
        p = mpmath.mpf(p)
        return p * mpmath.psi(1, 2 * p) / 2


def write_density_csv_repr(path, field):
    """write_density_csv as one f-string per cell, every float through ``repr``, one grid row at a time."""
    xs = [repr(x) for x in field.spec.x_centers().tolist()]
    ys = [repr(y) for y in field.spec.y_centers().tolist()]
    with open(path, "w", newline="\n") as out:
        out.write("x,y,value\n")
        for x, row in zip(xs, field.values):
            out.write("".join(f"{x},{y},{v!r}\n" for y, v in zip(ys, row.tolist())))


def _spectrum_rows(param, only_classification):
    """The rows of the level tables, read from enumerate_levels_loop, not from the library's level rows."""
    fields = ("index", "n_list", "m_list", "multiplicity", "classification", "a", "b",
              "shifted_energy", "scaled_energy")
    for i, rec in enumerate(enumerate_levels_loop(param)):
        if only_classification is not None and rec.classification != only_classification:
            continue
        row = (i, [n for n, _ in rec.members], [m for _, m in rec.members], rec.multiplicity, rec.classification,
               rec.key.a, rec.key.b, rec.shifted_energy, scaled_energy_expr(param.k, param.epsilon, *rec.members[0]))
        yield dict(zip(fields, row))


def write_spectrum_json_dumps(path, spectrum, only_classification=None):
    """write_spectrum_json as one json.dumps(indent=1) of the whole document."""
    param = spectrum.parameter
    doc = {
        "epsilon": param.epsilon,
        "k": param.k,
        "levels": list(_spectrum_rows(param, only_classification)),
        "mode": param.mode,
        "p_text": param.p_text,
        "xi": spectrum.xi,
    }
    if param.ratio is not None:
        doc["epsilon_ratio"] = [param.ratio.numerator, param.ratio.denominator]
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _csv_cell(value):
    if isinstance(value, list):
        return ";".join(map(str, value))
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_spectrum_csv_cells(path, spectrum, only_classification=None):
    """write_spectrum_csv with every cell of the rows sent through an isinstance dispatch."""
    lines = ["index,n_list,m_list,multiplicity,classification,a,b,shifted_energy,scaled_energy"]
    for row in _spectrum_rows(spectrum.parameter, only_classification):
        lines.append(",".join(map(_csv_cell, row.values())))
    Path(path).write_text("\n".join(lines) + "\n")


def write_coherent_json_dumps(path, state, bg_residual_value):
    """write_coherent_json with one scalar abs and one np.angle call per coefficient."""
    basis = state.basis
    doc = {
        "bg_residual": bg_residual_value,
        "coefficient_magnitudes": [float(abs(c)) for c in state.coefficients],
        "coefficient_phases": [float(np.angle(c)) for c in state.coefficients],
        "delta": {"im": basis.coeffs.delta.imag, "re": basis.coeffs.delta.real},
        "gamma": {"im": basis.coeffs.gamma.imag, "re": basis.coeffs.gamma.real},
        "log_normalization": state.log_normalization,
        "p_text": basis.parameter.p_text,
        "psi": {"im": complex(state.psi).imag, "re": complex(state.psi).real},
        "xi": state.xi,
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
