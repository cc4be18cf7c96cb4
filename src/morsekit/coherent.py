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
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureAccuracyError
from .spectrum import OrderedSpectrum
from .states import ModeTables, MorseBasis, MuBasis, QuadratureConfig, _expand

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

# Momentum-moment refinement must be stable to this relative level.
_MOMENT_TOL = 1.0e-7


@dataclass(frozen=True)
class LadderSpectrum:
    """Ladder strengths f(0..xi) and running log factorials.

    ``f[i]`` is the energy of level mu_i above mu_0, so f[0] = 0 and f is
    strictly increasing.  ``log_factorials[i]`` is ln([f(i)]!) with the
    convention [f(0)]! = 1; the factorial of the would-be rung xi + 1 does
    not exist because f(xi + 1) = 0 closes the ladder.
    """

    f: np.ndarray
    log_factorials: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "log_factorials", np.asarray(self.log_factorials, dtype=float))
        if f.ndim != 1 or f.size < 1 or f[0] != 0.0:
            raise ValueError("f must be a 1D array starting at exactly 0")
        if f.size > 1 and not np.all(np.diff(f) > 0.0):
            raise ValueError("ladder strengths must be strictly increasing")
        if self.log_factorials.shape != f.shape or self.log_factorials[0] != 0.0:
            raise ValueError("log_factorials must match f and start at 0")

    @property
    def xi(self) -> int:
        return self.f.size - 1

    @classmethod
    def from_strengths(cls, f) -> "LadderSpectrum":
        f = np.asarray(f, dtype=float)
        if f.size < 1:
            raise ValueError("empty ladder")
        log_fact = np.zeros_like(f)
        if f.size > 1:
            with np.errstate(divide="raise"):
                log_fact[1:] = np.cumsum(np.log(f[1:]))
        return cls(f, log_fact)


def ladder_f(spectrum: OrderedSpectrum) -> LadderSpectrum:
    """Gap ladder of an ordered spectrum: f(i) = e_i - e_0 on the shifted energies."""
    energies = spectrum.shifted_energies()
    return LadderSpectrum.from_strengths(energies - energies[0])


@dataclass(frozen=True)
class CoherentState:
    """Expansion sum_n c_n |mu_n> with c_n = Psi^n / sqrt(N(Psi) [f(n)]!).

    ``normalization`` is N(Psi) = sum |Psi|^(2n) / [f(n)]!, also carried as
    ``log_normalization`` because N alone overflows for large |Psi|.
    """

    psi: complex
    coefficients: np.ndarray
    log_normalization: float
    basis: MuBasis

    @property
    def xi(self) -> int:
        return self.coefficients.size - 1

    @property
    def normalization(self) -> float:
        return math.exp(self.log_normalization)

    def coefficient_matrix(self, dim: int) -> np.ndarray:
        rows, cols, values, owner = zip(
            *((n, m, value, i) for i, state in enumerate(self.basis.states) for n, m, value in state.entries)
        )
        if max(rows) >= dim:
            raise ValueError(f"level states up to n = {max(rows)} do not fit in dimension {dim}")
        c = np.zeros((dim, dim), dtype=complex)
        np.add.at(c, (rows, cols), self.coefficients[list(owner)] * np.array(values))
        return c

    def localization_fraction(self, count: int = 1) -> float:
        """Probability weight carried by the lowest ``count`` levels."""
        probs = np.abs(self.coefficients) ** 2
        return float(probs[:count].sum())


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
        return CoherentState(psi, coeffs, 0.0, basis)
    log_abs_psi = math.log(abs(psi))
    terms = 2.0 * n * log_abs_psi - ladder.log_factorials
    top = terms.max()
    at_top = terms == top
    count = float(np.count_nonzero(at_top))
    rest = np.exp(np.where(at_top, -np.inf, terms - top)).sum() / count
    log_norm = float(np.log1p(rest) + np.log(count) + top)
    log_coeffs = n * log_abs_psi - 0.5 * ladder.log_factorials - 0.5 * log_norm
    coeffs = np.exp(log_coeffs) * np.exp(1j * n * np.angle(psi))
    return CoherentState(psi, coeffs, log_norm, basis)


def log_bg_residual(state: CoherentState, ladder: LadderSpectrum) -> float:
    """Natural log of the truncation term left by the lowering operator.

    Acting with the lowering operator reproduces Psi times the state except
    for one boundary term of magnitude |Psi|^(xi+1) / sqrt([f(xi)]! N(Psi)).
    Its log stays finite where the magnitude itself underflows (k = 30,
    Psi = 2 gives about -1395); it is -inf for Psi = 0.  A ladder whose rung
    count differs from the state's raises ValueError.
    """
    if ladder.xi != state.xi:
        raise ValueError(f"ladder has {ladder.xi + 1} rungs but the state has {state.xi + 1} levels")
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


def bg_residual_direct(state: CoherentState, ladder: LadderSpectrum) -> float:
    """Truncation residual from the ladder action itself, in high precision.

    Recomputes the coefficients, applies the lowering operator term by term
    and measures || A- |Psi> - Psi |Psi> || with mpmath.  Rung n of both
    vectors carries the phase e^(i (n+1) arg Psi), so only the magnitudes
    e_n = |Psi|^n / (r_1 ... r_n), r_j = sqrt(f(j)), enter.  Each e_n is built
    from its definition with a running power and a running product of roots,
    never from e_(n-1) through the ratio |Psi| / r_n that the check tests.
    The working precision is 40 digits plus the number of decimal places the
    closed-form estimate ``log_bg_residual`` puts below 1, so the
    subtraction keeps significant digits; doubles alone lose the residual
    entirely in cancellation noise.
    """
    estimate = log_bg_residual(state, ladder) / math.log(10.0)  # also checks the ladder
    if state.psi == 0.0:
        return 0.0
    import mpmath

    with mpmath.workdps(40 + max(0, -int(math.floor(estimate)))):
        apsi = abs(mpmath.mpc(state.psi))
        roots = [mpmath.sqrt(f) for f in ladder.f[1:].tolist()]
        power = root_fact = mpmath.mpf(1)
        e = [power]
        for r in roots:
            power *= apsi
            root_fact *= r
            e.append(power / root_fact)
        # (A- c)_n = sqrt(f(n+1)) c_{n+1}, zero at the top rung
        gaps = [r * hi - apsi * lo for r, lo, hi in zip(roots, e, e[1:])]
        gaps.append(apsi * e[-1])
        return float(mpmath.sqrt(mpmath.fdot(gaps, gaps) / mpmath.fdot(e, e)))


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
    s = tables.overlap_1d
    pairs = {
        "q": tables.position,
        "q2": tables.position_sq,
        "p": tables.momentum,
        "p2": tables.momentum_sq,
    }
    if axis == "x":
        braket = lambda a: np.einsum("ab,cd,ac,bd->", np.conj(c), c, a, s, optimize=True)
    elif axis == "y":
        braket = lambda a: np.einsum("ab,cd,ac,bd->", np.conj(c), c, s, a, optimize=True)
    else:
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    norm = complex(braket(s)).real
    mean = {name: complex(braket(op)) / norm for name, op in pairs.items()}
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
    """
    quad = quad or QuadratureConfig()
    c, _ = _expand(basis, state)
    coarse = _axis_expectations(c, basis.mode_tables(quad), axis)
    fine = _axis_expectations(c, basis.mode_tables(quad.refined()), axis)
    for name in ("mean_q", "mean_q2", "mean_p", "mean_p2"):
        a, b = getattr(coarse, name), getattr(fine, name)
        delta, limit = abs(a - b), _MOMENT_TOL * max(1.0, abs(b))
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


def uncertainty_sweep(
    basis: MorseBasis,
    mu_basis: MuBasis,
    psi_values=None,
    quad: QuadratureConfig | None = None,
) -> list[SweepPoint]:
    """Moment reports for a range of coherent-state amplitudes.

    The default sweep covers |Psi| = 0.1 .. 5.0 in steps of 0.1.  Mode
    tables are cached on the basis, so the cost per point is a handful of
    small matrix contractions.
    """
    if psi_values is None:
        psi_values = np.round(np.arange(1, 51) * 0.1, 10)
    ladder = ladder_f(mu_basis.spectrum)
    points = []
    for psi in psi_values:
        state = coherent_coefficients(psi, ladder, mu_basis)
        points.append(
            SweepPoint(
                psi=complex(psi),
                x=moments(basis, state, "x", quad),
                y=moments(basis, state, "y", quad),
            )
        )
    return points


def first_separation(points, threshold: float = 0.01) -> complex | None:
    """First sweep amplitude where the x and y uncertainty products split.

    Returns the psi of the first point whose products differ relatively by
    more than ``threshold``, or None if they never do.
    """
    for point in points:
        scale = max(abs(point.x.product), abs(point.y.product))
        if scale > 0.0 and abs(point.x.product - point.y.product) > threshold * scale:
            return point.psi
    return None
