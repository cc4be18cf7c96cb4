"""Generalized coherent states over the ordered level basis.

The ladder strengths f(i) are energy gaps above the deepest level, so the
factorials [f(n)]! underflow and overflow doubles quickly; every quantity
here is accumulated in log space and exponentiated only at the end.  The
truncation residual of the lowering-operator identity has a closed form; a
high-precision direct evaluation of the ladder action is provided as an
independent cross-check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import QuadratureAccuracyError
from .spectrum import OrderedSpectrum
from .states import _REFINE_TOL, ModeTables, MorseBasis, MuBasis, QuadratureConfig, _columns, _expand, _matrix

__all__ = [
    "LadderSpectrum",
    "ladder_f",
    "CoherentState",
    "coherent_coefficients",
    "bg_residual",
    "log_bg_residual",
    "bg_residual_direct",
    "MomentReport",
    "moments",
    "SweepPoint",
    "uncertainty_sweep",
    "first_separation",
]


@dataclass(frozen=True, eq=False)
class LadderSpectrum:
    """Ladder strengths f(0..xi) and the running log factorials computed from them.

    ``f[i]`` is the energy of level mu_i above mu_0, so f[0] = 0 and f is
    strictly increasing; any other f raises ValueError before a log is
    taken.  ``log_factorials[i]`` is ln([f(i)]!) with the convention
    [f(0)]! = 1; the factorial of the would-be rung xi + 1 does not exist
    because f(xi + 1) = 0 closes the ladder.
    """

    f: np.ndarray
    log_factorials: np.ndarray = field(init=False)

    def __post_init__(self):
        # a private read-only copy, so that no caller can change f under its log factorials
        f = np.array(self.f, dtype=float)
        if f.ndim != 1 or f.size < 1 or f[0] != 0.0:
            raise ValueError("f must be a 1D array starting at exactly 0")
        if not np.all(np.diff(f) > 0.0):
            raise ValueError("ladder strengths must be strictly increasing")
        log_factorials = np.zeros_like(f)
        log_factorials[1:] = np.cumsum(np.log(f[1:]))
        f.flags.writeable = log_factorials.flags.writeable = False
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "log_factorials", log_factorials)

    @property
    def xi(self) -> int:
        return self.f.size - 1


def ladder_f(spectrum: OrderedSpectrum) -> LadderSpectrum:
    """Gap ladder of an ordered spectrum: f(i) = e_i - e_0 on the shifted energies.

    Two levels in a strict exact order can still get strengths that do not
    increase as doubles when epsilon lies within double rounding of their
    crossing point.  The first such pair raises ValueError naming both
    levels, their keys and the crossing point.
    """
    energies = spectrum.shifted_energies()
    f = energies - energies[0]
    stuck = np.flatnonzero(~(np.diff(f) > 0.0))
    if stuck.size:
        i = int(stuck[0])
        (a, b), (a2, b2) = ((int(spectrum.a[j]), int(spectrum.b[j])) for j in spectrum.bounds[[i, i + 1]])
        low, high = f[i : i + 2].tolist()
        raise ValueError(
            f"levels mu_{i} and mu_{i + 1}, keys (a, b) = ({a}, {b}) and ({a2}, {b2}), have ladder "
            f"strengths {low!r} and {high!r}, not increasing in double precision: the keys cross "
            f"at epsilon = {Fraction(a2 - a, 2 * (b - b2))}, within double rounding of p = {spectrum.parameter.p_text}"
        )
    return LadderSpectrum(f)


@dataclass(frozen=True, eq=False)
class CoherentState:
    """Expansion sum_n c_n |mu_n> with c_n = Psi^n / sqrt(N(Psi) [f(n)]!).

    ``log_normalization`` is ln N(Psi), N(Psi) = sum |Psi|^(2n) / [f(n)]!,
    which itself overflows doubles for large |Psi|.
    """

    psi: complex
    coefficients: np.ndarray
    log_normalization: float
    basis: MuBasis
    ladder: LadderSpectrum

    @property
    def xi(self) -> int:
        return self.coefficients.size - 1

    @property
    def pairs(self) -> tuple[tuple[int, int, complex, complex], ...]:
        """One swap pair (n_i, m_i, c_i gamma_i, c_i delta_i) per level whose c_i is not an exact 0, in level order."""
        live = np.flatnonzero(self.coefficients)
        c, basis = self.coefficients[live], self.basis
        return tuple(zip(basis.spectrum.n[live].tolist(), basis.spectrum.m[live].tolist(),
                         (c * basis.gamma[live]).tolist(), (c * basis.delta[live]).tolist()))

    def coefficient_matrix(self, dim: int) -> np.ndarray:
        """sum_n c_n C(mu_n) as a (dim x dim) matrix, from ``pairs``."""
        return _matrix(_columns(self.pairs), dim)


def coherent_coefficients(psi, ladder: LadderSpectrum, basis: MuBasis) -> CoherentState:
    """Coherent-state coefficients over the level basis, stable for any |Psi|.

    All powers and factorials are combined in log space with one logsumexp
    for the normalization, so coefficients come out correct even when
    individual terms span thousands of orders of magnitude.  The logsumexp
    separates out every term tied at the maximum and adds
    log1p(rest / count) + log(count) + top in that order, which is the
    evaluation order of ``scipy.special.logsumexp``.
    """
    if ladder.xi != basis.xi:
        raise ValueError(f"ladder has {ladder.xi + 1} rungs but the basis has {basis.xi + 1} levels")
    psi = complex(psi)
    if not cmath.isfinite(psi):
        raise ValueError(f"coherent amplitude must be finite, got {psi!r}")
    n = np.arange(ladder.xi + 1)
    if psi == 0.0:
        coeffs = np.zeros(ladder.xi + 1, dtype=complex)
        coeffs[0] = 1.0
        return CoherentState(psi, coeffs, 0.0, basis, ladder)
    log_abs_psi = math.log(abs(psi))
    terms = 2.0 * n * log_abs_psi - ladder.log_factorials
    top = terms.max()
    at_top = terms == top
    count = float(np.count_nonzero(at_top))
    rest = np.exp(np.where(at_top, -np.inf, terms - top)).sum() / count
    log_norm = float(np.log1p(rest) + np.log(count) + top)
    log_coeffs = n * log_abs_psi - 0.5 * ladder.log_factorials - 0.5 * log_norm
    coeffs = np.exp(log_coeffs) * np.exp(1j * n * np.angle(psi))
    return CoherentState(psi, coeffs, log_norm, basis, ladder)


def log_bg_residual(state: CoherentState, ladder: LadderSpectrum) -> float:
    """Natural log of the truncation term left by the lowering operator.

    Acting with the lowering operator reproduces Psi times the state except
    for one boundary term of magnitude |Psi|^(xi+1) / sqrt([f(xi)]! N(Psi)).
    Its log stays finite where the magnitude itself underflows (k = 30,
    Psi = 2 gives about -1395); it is -inf for Psi = 0.  Any ladder but the
    state's own (another object with other f) raises ValueError.
    """
    if ladder.xi != state.xi:
        raise ValueError(f"ladder has {ladder.xi + 1} rungs but the state has {state.xi + 1} levels")
    if ladder is not state.ladder and not np.array_equal(ladder.f, state.ladder.f):
        i = int(np.argmax(ladder.f != state.ladder.f))
        raise ValueError(f"not the state's ladder: rung {i} has f = {ladder.f[i]}, not {state.ladder.f[i]}")
    if state.psi == 0.0:
        return -math.inf
    return float(
        (state.xi + 1) * math.log(abs(state.psi))
        - 0.5 * ladder.log_factorials[-1]
        - 0.5 * state.log_normalization
    )


def bg_residual(state: CoherentState, ladder: LadderSpectrum) -> float:
    """Magnitude of the truncation term, exp of ``log_bg_residual``.

    Underflows to 0.0 once the log drops below about -745; use
    ``log_bg_residual`` there.  Exactly 0 for Psi = 0.
    """
    return math.exp(log_bg_residual(state, ladder))


def _root(value, bits: int) -> int:
    """Nearest integer to sqrt(value) 2^bits, for a float or Fraction ``value``; a tie rounds up.

    With value = m/e exactly, s = isqrt(m 4^(bits + 1) // e) is the floor of
    2 sqrt(value) 2^bits (the floor of a root is the floor of the root of the
    floor), so (s + 1) // 2 is the nearest integer to half of it.
    """
    m, e = value.as_integer_ratio()
    return (math.isqrt((m << 2 * bits + 2) // e) + 1) >> 1


def _float_root(num: int, den: int) -> float:
    """sqrt(num / den) correctly rounded to a double, subnormals included.

    s = isqrt(num 4^t // den) is the root's floor at t = 1074 + 64 bits, 64
    bits below the smallest subnormal.  A sticky bit for any rest puts an
    inexact root strictly between s and s + 1, so ``float`` rounds it once.
    """
    shift = 1074 + 64
    scaled = num << 2 * shift
    s = math.isqrt(scaled // den)
    return float(Fraction(2 * s + (s * s * den != scaled), 1 << shift + 1))


def bg_residual_direct(state: CoherentState, ladder: LadderSpectrum) -> float:
    """Truncation residual from the ladder action itself, in exact integers scaled by 2^P.

    Recomputes the coefficients, applies the lowering operator term by term
    and measures || A- |Psi> - Psi |Psi> ||.  Rung n of both vectors carries
    the phase e^(i (n+1) arg Psi), so only the magnitudes
    e_n = |Psi|^n / (r_1 ... r_n), r_j = sqrt(f(j)), enter.  Every input is a
    dyadic rational (the f(j) are doubles, |Psi|^2 the sum of the squares of
    Psi's parts), so each value is held as an integer X standing for X / 2^P.
    |Psi| and every r_j are the nearest such integers to the exact roots.
    Each e_n is built from its definition with a running power and a running
    product of roots, both shifted back by P bits, and one integer division
    per rung, never from e_(n-1) through the ratio |Psi| / r_n that the check
    tests.  The gaps and both sums of squares are exact, and the result is
    the correctly rounded root of their ratio (``_float_root``).
    P = ceil(d log2 10) + 8 bits for d = 40 digits plus the number of decimal
    places the closed-form estimate ``log_bg_residual`` puts below 1, so the
    subtraction keeps significant digits; doubles alone lose the residual
    entirely in cancellation noise.  The places are capped at 340 (d at most
    380, P at most 1271): a residual below 1e-340 is below the smallest
    subnormal double, so the result is 0.0 however precisely it was computed.
    """
    estimate = log_bg_residual(state, ladder) / math.log(10.0)  # also checks the ladder
    if state.psi == 0.0:
        return 0.0
    bits = math.ceil((40 + min(340, max(0, -int(math.floor(estimate))))) * math.log2(10.0)) + 8
    apsi = _root(Fraction(state.psi.real) ** 2 + Fraction(state.psi.imag) ** 2, bits)
    roots = [_root(f, bits) for f in ladder.f[1:].tolist()]
    power = root_fact = 1 << bits
    e = [power]
    for r in roots:
        power = power * apsi >> bits
        root_fact = root_fact * r >> bits
        e.append((power << bits) // root_fact)
    # (A- c)_n = sqrt(f(n+1)) c_{n+1}, zero at the top rung; gaps carry 2^(2P)
    gaps = [r * hi - apsi * lo for r, lo, hi in zip(roots, e, e[1:])]
    gaps.append(apsi * e[-1])
    return _float_root(sum(g * g for g in gaps), sum(x * x for x in e) << 2 * bits)


@dataclass(frozen=True)
class MomentReport:
    """First and second moments of position and momentum along one axis."""

    mode: str
    mean_q: float
    mean_q2: float
    mean_p: float
    mean_p2: float

    @property
    def var_q(self) -> float:
        return self.mean_q2 - self.mean_q**2

    @property
    def var_p(self) -> float:
        return self.mean_p2 - self.mean_p**2

    @property
    def dq(self) -> float:
        return math.sqrt(self.var_q)

    @property
    def dp(self) -> float:
        return math.sqrt(self.var_p)

    @property
    def product(self) -> float:
        """Variance product (dq dp)^2; bounded below by 1/4 in hbar = 1 units."""
        return self.var_q * self.var_p


def _axis_expectations(c: np.ndarray, tables: ModeTables, axis: str) -> MomentReport:
    """<A (x) S> along x or <S (x) A> along y, on the contraction path einsum picks.

    sum_abcd conj(c_ab) c_cd L_ac R_bd = sum_bc [(L^T conj(c))^T]_bc [R c^T]_bc,
    where the operator A sits in L for x and in R for y; the factor holding
    the overlap S is formed once.  The final sum is einsum's own dot product,
    so every value is the one einsum returns.
    """
    s = tables.overlap_1d
    pairs = {
        "q": tables.position,
        "q2": tables.position_sq,
        "p": tables.momentum,
        "p2": tables.momentum_sq,
    }
    if axis == "x":
        right = (s @ c.T).reshape(1, -1)
        braket = lambda a: (right @ (a.T @ np.conj(c)).T.reshape(-1, 1)).item()
    else:
        left = (s.T @ np.conj(c)).T.reshape(-1, 1)
        braket = lambda a: ((a @ c.T).reshape(1, -1) @ left).item()
    norm = braket(s).real
    mean = {name: braket(op) / norm for name, op in pairs.items()}
    return MomentReport(
        mode=axis,
        mean_q=mean["q"].real,
        mean_q2=mean["q2"].real,
        mean_p=(-1j * mean["p"]).real,
        mean_p2=mean["p2"].real,
    )


def moments(basis: MorseBasis, state, axis: str = "x", quad: QuadratureConfig | None = None) -> MomentReport:
    """Position/momentum moments of a state along one axis, refinement-checked.

    The report is computed on the base rule and on a doubled rule; any moment
    moving by more than 1e-7 (relative to scale) raises
    QuadratureAccuracyError.  The refined report is returned.  All
    expectations are normalized by the quadrature norm of the state, so tiny
    normalization drift cancels.

    The tables are built only up to the state's top mode (see
    ``MorseBasis._mode_tables``): the zero rows above it meet the exact
    zeros of the state's coefficients, so the report is the one the full
    tables give, bit for bit.
    """
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    quad = quad or QuadratureConfig()
    c, used = _expand(basis, state)
    top = max(used, default=0)
    coarse = _axis_expectations(c, basis._mode_tables(quad, top), axis)
    fine = _axis_expectations(c, basis._mode_tables(quad.refined(), top), axis)
    for name in ("mean_q", "mean_q2", "mean_p", "mean_p2"):
        a, b = getattr(coarse, name), getattr(fine, name)
        delta, limit = abs(a - b), _REFINE_TOL * max(1.0, abs(b))
        if delta > limit:
            raise QuadratureAccuracyError(
                f"{name} along {axis} moved by {delta:.3e} under refinement",
                quantity=f"{name} along {axis}", delta=delta, tol=limit, rule=quad,
            )
    return fine


@dataclass(frozen=True)
class SweepPoint:
    """Uncertainty data of one coherent state in a sweep."""

    psi: complex
    x: MomentReport
    y: MomentReport


def uncertainty_sweep(basis: MorseBasis, mu_basis: MuBasis, psi_values=None) -> list[SweepPoint]:
    """Moment reports, on the default rule of ``moments``, for a range of coherent-state amplitudes.

    The default sweep covers |Psi| = 0.1 .. 5.0 in steps of 0.1.  ``moments``
    builds each rule's tables at most twice (to the first state's top mode,
    then in full) and caches them on the basis, so a point costs a handful
    of small matrix contractions.
    """
    if psi_values is None:
        psi_values = np.round(np.arange(1, 51) * 0.1, 10)
    ladder = ladder_f(mu_basis.spectrum)
    points = []
    for psi in psi_values:
        state = coherent_coefficients(psi, ladder, mu_basis)
        points.append(SweepPoint(complex(psi), moments(basis, state, "x"), moments(basis, state, "y")))
    return points


def first_separation(points) -> complex | None:
    """First sweep amplitude where the x and y uncertainty products split.

    Returns the psi of the first point whose products differ relatively by
    more than 1%, or None if they never do.
    """
    for point in points:
        scale = max(abs(point.x.product), abs(point.y.product))
        if scale > 0.0 and abs(point.x.product - point.y.product) > 0.01 * scale:
            return point.psi
    return None
