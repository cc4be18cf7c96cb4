"""Position-space bound states, mixed doublet states and grid/quadrature tools.

The 2D eigenfunctions factorize into 1D Morse modes in x and y.  Every mode
is evaluated through its logarithm: the normalization contains Gamma(nu - n)
and the profile contains z^(p-n) with z = nu exp(-beta x), both of which
overflow doubles for wells a few hundred levels deep.  Signs are carried
separately so the final values are exact IEEE doubles wherever they are
representable at all.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import QuadratureAccuracyError
from .spectrum import (
    OrderedSpectrum,
    PhysicalParams,
    PrincipalParameter,
    derive_parameters,
    depth_for_principal,
)
from .specfun import laguerre_signed_log, log_gamma

__all__ = [
    "MixingCoefficients",
    "MuState",
    "MuBasis",
    "build_mu_basis",
    "GridSpec",
    "ScalarField2D",
    "QuadratureConfig",
    "ModeTables",
    "MorseBasis",
    "normalization",
    "eigenfunction",
    "mu_wavefunction",
    "density_grid",
    "overlap",
    "gram_matrix",
]

# The overlap table may move by at most _TABLE_TOL when _CHECK_NODES nodes are added.
_TABLE_TOL, _CHECK_NODES = 1.0e-7, 8

# 1D density below this fraction of its peak counts as outside the support.
_SUPPORT_CUT = 1.0e-14

# exp() argument cap: beyond this the Gaussian-type factor exp(-z/2) has
# already driven the mode to an exact zero, so clipping z is lossless.
_LOG_Z_CAP = 705.0


@dataclass(frozen=True)
class MixingCoefficients:
    """Complex pair (gamma, delta) with |gamma|^2 + |delta|^2 = 1 within 1e-12."""

    gamma: complex
    delta: complex

    def __post_init__(self):
        object.__setattr__(self, "gamma", complex(self.gamma))
        object.__setattr__(self, "delta", complex(self.delta))
        norm = abs(self.gamma) ** 2 + abs(self.delta) ** 2
        if abs(norm - 1.0) > 1.0e-12:
            raise ValueError(f"|gamma|^2 + |delta|^2 = {norm!r}, expected 1 within 1e-12")

    @classmethod
    def normalized(cls, gamma, delta) -> "MixingCoefficients":
        """Scale an arbitrary non-zero pair onto the unit sphere."""
        scale = math.hypot(abs(complex(gamma)), abs(complex(delta)))
        if scale == 0.0:
            raise ValueError("gamma and delta cannot both vanish")
        return cls(complex(gamma) / scale, complex(delta) / scale)

    @classmethod
    def equal_mix(cls) -> "MixingCoefficients":
        return cls(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))

    def swapped(self) -> "MixingCoefficients":
        return MixingCoefficients(self.delta, self.gamma)


@dataclass(frozen=True)
class MuState:
    """Single level state |mu_i>: diagonal |n, n> or mixed gamma |n, m> + delta |m, n>.

    ``coeffs`` must be None exactly when the state is diagonal (n == m);
    mixed states store n > m and their mixing pair.
    """

    index: int
    n: int
    m: int
    coeffs: MixingCoefficients | None = None

    def __post_init__(self):
        if self.index < 0 or self.m < 0 or self.n < self.m:
            raise ValueError(f"need index >= 0 and n >= m >= 0, got {self!r}")
        if (self.n == self.m) != (self.coeffs is None):
            raise ValueError("mixing coefficients are required iff n != m")

    @property
    def is_diagonal(self) -> bool:
        return self.n == self.m

    @property
    def entries(self) -> tuple[tuple[int, int, complex], ...]:
        """Nonzero product-basis terms (n, m, C[n, m]): (n, n, 1) or (n, m, gamma), (m, n, delta)."""
        if self.is_diagonal:
            return ((self.n, self.n, 1.0 + 0.0j),)
        return ((self.n, self.m, self.coeffs.gamma), (self.m, self.n, self.coeffs.delta))

    def coefficient_matrix(self, dim: int) -> np.ndarray:
        """(dim x dim) complex matrix C with the state written as sum C[n, m] |n, m>."""
        if self.n >= dim:
            raise ValueError(f"state {self!r} does not fit in dimension {dim}")
        c = np.zeros((dim, dim), dtype=complex)
        for n, m, value in self.entries:
            c[n, m] = value
        return c


@dataclass(frozen=True)
class MuBasis:
    """All xi + 1 level states of one ordered spectrum, indexed mu_0 .. mu_xi."""

    spectrum: OrderedSpectrum
    states: tuple[MuState, ...]
    coeffs: MixingCoefficients

    @property
    def parameter(self) -> PrincipalParameter:
        return self.spectrum.parameter

    @property
    def xi(self) -> int:
        return self.spectrum.xi

    @property
    def dim(self) -> int:
        return self.parameter.k + 1


def build_mu_basis(
    spectrum: OrderedSpectrum,
    coeffs: MixingCoefficients | None = None,
    overrides: dict[int, MixingCoefficients] | None = None,
) -> MuBasis:
    """Attach one state to every level: |n, n> for singlets, a mixed pair for doublets.

    ``coeffs`` is the common mixing pair for all doublets (equal mix by
    default); ``overrides`` may replace it at individual level indices.  Any
    accidental level makes the single-state-per-level construction
    ill-defined and raises ValueError.
    """
    if coeffs is None:
        coeffs = MixingCoefficients.equal_mix()
    overrides = overrides or {}
    states = []
    for i, rec in enumerate(spectrum.levels):
        if rec.classification == "accidental":
            raise ValueError(
                f"level {i} with key {rec.key} holds {rec.multiplicity} states; "
                "a one-state-per-level basis needs a spectrum free of accidental degeneracy"
            )
        n, m = rec.members[0]
        if n == m:
            states.append(MuState(i, n, m))
        else:
            states.append(MuState(i, n, m, overrides.get(i, coeffs)))
    return MuBasis(spectrum, tuple(states), coeffs)


@dataclass(frozen=True)
class GridSpec:
    """Uniform cell-centered rectangular grid."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int

    def __post_init__(self):
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("grid ranges must be non-empty")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid needs at least two cells per axis")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.nx

    @property
    def dy(self) -> float:
        return (self.y_max - self.y_min) / self.ny

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    def x_centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.nx) + 0.5) * self.dx

    def y_centers(self) -> np.ndarray:
        return self.y_min + (np.arange(self.ny) + 0.5) * self.dy


@dataclass(frozen=True)
class ScalarField2D:
    """Real field sampled at the cell centers of a GridSpec; values[i, j] = f(x_i, y_j)."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        expected = (self.spec.nx, self.spec.ny)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != grid shape {expected}")

    def riemann_sum(self) -> float:
        """Cell-area-weighted sum; approximates the integral of the field."""
        return float(self.values.sum() * self.spec.cell_area)


@functools.lru_cache(maxsize=32)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _gauss_laguerre(nodes: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes z_i and log weights ln w_i of the rule for z^alpha e^(-z) on (0, inf).

    The rule is exact for polynomials of degree below 2 * nodes.  Nodes are
    the eigenvalues of the Jacobi matrix (Golub & Welsch, Math. Comp. 23,
    1969), polished by three Newton steps on L_N^alpha.  The weights
    w_i = Gamma(N+alpha+1) z_i / (N! (N+1)^2 L_{N+1}^alpha(z_i)^2) are kept as
    logs because they underflow far out in the tail.
    """
    j = np.arange(1, nodes)
    off = np.sqrt(j * (j + alpha))
    # eigvalsh reads only the lower triangle of the symmetric tridiagonal matrix
    z = np.linalg.eigvalsh(np.diag(2.0 * np.arange(nodes) + alpha + 1.0) + np.diag(off, -1))
    for _ in range(3):
        # z - L_N / L_N' with L_N' = -L_{N-1}^(alpha+1); exact roots stay put
        sign, log_value = laguerre_signed_log(nodes, alpha, z)
        slope_sign, log_slope = laguerre_signed_log(nodes - 1, alpha + 1.0, z)
        live = sign * slope_sign != 0.0
        z = z + sign * slope_sign * np.exp(np.where(live, log_value - log_slope, -np.inf))
    _, log_next = laguerre_signed_log(nodes + 1, alpha, z)
    log_w = log_gamma(nodes + alpha + 1.0) - log_gamma(nodes + 1.0) - 2.0 * math.log(nodes + 1.0)
    return z, log_w + np.log(z) - 2.0 * log_next


@dataclass(frozen=True)
class QuadratureConfig:
    """Composite Gauss-Legendre rule: points_per_axis nodes split into equal panels."""

    points_per_axis: int = 200
    panels: int = 10
    box: tuple[float, float] | None = None
    support_cut: float = _SUPPORT_CUT

    def __post_init__(self):
        if self.panels < 1:
            raise ValueError("need at least one panel")
        if self.points_per_axis % self.panels != 0:
            raise ValueError("points_per_axis must be divisible by panels")
        if self.points_per_axis // self.panels < 2:
            raise ValueError("need at least two nodes per panel")

    def refined(self) -> "QuadratureConfig":
        """Double both the node count and the panel count (same order per panel)."""
        return replace(self, points_per_axis=2 * self.points_per_axis, panels=2 * self.panels)

    def nodes(self, lo: float, hi: float, split: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights of the composite rule on [lo, hi].

        The support box is usually lopsided: all Laguerre oscillation sits in
        a short core near the wall while a featureless exponential tail can
        run tens of units to the right.  When ``split`` falls inside the box,
        three quarters of the panels tile [lo, split] and the rest tile the
        tail, so the oscillatory core is never undersampled.
        """
        if not hi > lo:
            raise ValueError("empty quadrature interval")
        order = self.points_per_axis // self.panels
        base_x, base_w = _leggauss(order)
        if split is not None and lo < split < hi and self.panels > 1:
            n_core = min(self.panels - 1, max(1, round(0.75 * self.panels)))
            edges = np.concatenate(
                [
                    np.linspace(lo, split, n_core + 1),
                    np.linspace(split, hi, self.panels - n_core + 1)[1:],
                ]
            )
        else:
            edges = np.linspace(lo, hi, self.panels + 1)
        half = np.diff(edges) / 2.0
        mid = (edges[:-1] + edges[1:]) / 2.0
        x = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
        w = (half[:, None] * base_w[None, :]).ravel()
        return x, w


@dataclass(frozen=True)
class ModeTables:
    """1D mode matrices on a fixed quadrature rule.

    ``overlap_1d[i, j] = <phi_i | phi_j>``, ``position`` and ``position_sq``
    are <phi_i| x |phi_j> and <phi_i| x^2 |phi_j>, ``momentum`` is the
    anti-symmetric real part of -i hbar <phi_i | d/dx phi_j> stored without
    the -i (so momentum itself is real and the operator is -1j * momentum),
    and ``momentum_sq`` is hbar^2 <phi_i' | phi_j'>.
    """

    x: np.ndarray
    w: np.ndarray
    overlap_1d: np.ndarray
    position: np.ndarray
    position_sq: np.ndarray
    momentum: np.ndarray
    momentum_sq: np.ndarray


class MorseBasis:
    """Evaluation engine for the 1D modes and 2D bound states of one well.

    Binds a PrincipalParameter to concrete PhysicalParams.  When no physical
    constants are supplied, unit mass, range and hbar are synthesized with
    the depth chosen so that the principal parameter is reproduced exactly.
    """

    def __init__(self, principal: PrincipalParameter, physical: PhysicalParams | None = None):
        if physical is None:
            physical = PhysicalParams(
                mass=1.0, depth=depth_for_principal(principal.p_value), beta=1.0, hbar=1.0
            )
            nu = 2.0 * principal.p_value + 1.0
            p = principal.p_value
        else:
            nu, p = derive_parameters(physical)
            if abs(p - principal.p_value) > 1.0e-9 * max(1.0, abs(p)):
                raise ValueError(
                    f"physical parameters give p = {p!r}, but the principal "
                    f"parameter declares {principal.p_value!r}"
                )
        self.principal = principal
        self.physical = physical
        self.nu = nu
        self.p = p
        self.beta = physical.beta
        self.k = principal.k
        self._boxes: dict = {}
        self._tables: dict = {}
        self._overlap: np.ndarray | None = None

    # -- mode bookkeeping ---------------------------------------------------

    def mode_is_bound(self, n: int) -> bool:
        """A 1D mode is normalizable iff nu > 2n + 1 strictly."""
        return 0 <= n <= self.k and self.nu - (2.0 * n + 1.0) > 0.0

    def bound_modes(self) -> list[int]:
        return [n for n in range(self.k + 1) if self.mode_is_bound(n)]

    def _check_mode(self, n: int) -> None:
        if not isinstance(n, (int, np.integer)) or not 0 <= n <= self.k:
            raise ValueError(f"mode index must lie in 0..{self.k}, got {n!r}")
        if not self.mode_is_bound(n):
            raise ValueError(
                f"mode n = {n} has nu - (2n+1) = {self.nu - (2 * n + 1)!r} <= 0 "
                "and is not normalizable"
            )

    def _check_matrix_modes(self, c: np.ndarray) -> None:
        # quadrature tables only hold bound modes, so reject states that
        # reference an unbound one rather than returning silent zeros.
        used = np.nonzero(np.any(c != 0.0, axis=1) | np.any(c != 0.0, axis=0))[0]
        for n in used:
            self._check_mode(int(n))

    def log_norm_1d(self, n: int) -> float:
        """ln N_n with N_n = sqrt(beta (nu - 2n - 1) n! / Gamma(nu - n))."""
        self._check_mode(n)
        return 0.5 * (
            math.log(self.beta)
            + math.log(self.nu - 2.0 * n - 1.0)
            + log_gamma(n + 1.0)
            - log_gamma(self.nu - n)
        )

    # -- pointwise evaluation -----------------------------------------------

    def _log_z(self, x: np.ndarray) -> np.ndarray:
        # z = nu exp(-beta x) evaluated in log space; never overflows.
        return math.log(self.nu) - self.beta * x

    def mode_values(self, n: int, x) -> np.ndarray:
        """phi_n on the given positions (scalar or array), as exact doubles.

        phi_n(x) = N_n z^(p-n) exp(-z/2) L_n^(2(p-n))(z).  The prefactor is
        assembled in log space; z itself is clipped at exp(705) where the
        exp(-z/2) factor already guarantees an exact underflow to zero.
        """
        self._check_mode(n)
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        log_z = self._log_z(arr)
        z = np.exp(np.minimum(log_z, _LOG_Z_CAP))
        sign, log_lag = laguerre_signed_log(n, 2.0 * (self.p - n), z)
        with np.errstate(over="ignore"):
            total = self.log_norm_1d(n) + (self.p - n) * log_z - 0.5 * z + log_lag
        vals = sign * np.exp(np.minimum(total, _LOG_Z_CAP))
        if scalar:
            return float(vals)
        return vals

    def mode_derivative_values(self, n: int, x) -> np.ndarray:
        """d phi_n / dx, using d/dx = -beta z d/dz on the z-space profile.

        With d/dz L_n^a = -L_{n-1}^{a+1} the chain rule gives
        phi_n'(x) = -beta N_n z^(p-n) exp(-z/2)
                    [ (p - n - z/2) L_n^a(z) - z L_{n-1}^{a+1}(z) ],  a = 2(p-n),
        with the second bracket term absent for n = 0.
        """
        self._check_mode(n)
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        log_z = self._log_z(arr)
        z = np.exp(np.minimum(log_z, _LOG_Z_CAP))
        alpha = 2.0 * (self.p - n)
        log_pre = self.log_norm_1d(n) + (self.p - n) * log_z - 0.5 * z
        sign_l, log_l = laguerre_signed_log(n, alpha, z)
        bracket = (self.p - n - 0.5 * z) * sign_l * np.exp(np.minimum(log_pre + log_l, _LOG_Z_CAP))
        if n > 0:
            sign_d, log_d = laguerre_signed_log(n - 1, alpha + 1.0, z)
            bracket = bracket - z * sign_d * np.exp(np.minimum(log_pre + log_d, _LOG_Z_CAP))
        vals = -self.beta * bracket
        if scalar:
            return float(vals)
        return vals

    def _log_density_from_log_z(self, n: int, log_z: np.ndarray) -> np.ndarray:
        """ln |phi_n|^2 sampled directly in the log z variable (support scans)."""
        z = np.exp(np.minimum(log_z, _LOG_Z_CAP))
        _, log_lag = laguerre_signed_log(n, 2.0 * (self.p - n), z)
        return 2.0 * (self.log_norm_1d(n) + (self.p - n) * log_z - 0.5 * z + log_lag)

    # -- support scans --------------------------------------------------------

    def mode_box(self, n: int, cut: float = _SUPPORT_CUT) -> tuple[float, float]:
        """x-interval outside which |phi_n|^2 stays below cut * peak."""
        self._check_mode(n)
        key = (n, float(cut))
        if key in self._boxes:
            return self._boxes[key]
        # scan in u = ln z; u decreasing <-> x increasing.  Start around the
        # classically allowed region and push both edges out until the log
        # density drops below the threshold.
        lo_u, hi_u = -8.0, math.log(4.0 * self.nu + 50.0)
        log_cut = math.log(cut)
        for _ in range(200):
            us = np.linspace(lo_u, hi_u, 4097)
            g = self._log_density_from_log_z(n, us)
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
        box = (
            (math.log(self.nu) - u_hi) / self.beta,
            (math.log(self.nu) - u_lo) / self.beta,
        )
        self._boxes[key] = box
        return box

    def support_box(self, modes=None, cut: float = _SUPPORT_CUT) -> tuple[float, float]:
        """Union of the per-mode boxes; default covers every bound mode."""
        if modes is None:
            modes = self.bound_modes()
        modes = list(modes)
        if not modes:
            raise ValueError("support box of an empty mode set")
        boxes = [self.mode_box(n, cut) for n in modes]
        return min(b[0] for b in boxes), max(b[1] for b in boxes)

    # -- quadrature tables ----------------------------------------------------

    def overlap_table(self) -> np.ndarray:
        """Exact 1D overlaps S[n, m] = <phi_n | phi_m>, cached; rows of unbound modes are zero.

        In z = nu exp(-beta x), phi_n phi_m dx is z^alpha e^(-z) / beta times a
        polynomial of degree <= 2K (K the top bound mode, alpha = nu - 2K - 2),
        so the Gauss-Laguerre rule with K + 1 nodes is exact.  The table is
        checked once, when it is built, against 8 more nodes and raises
        QuadratureAccuracyError if an entry moves by more than 1e-7.
        """
        if self._overlap is None:
            top = self.bound_modes()[-1]
            nodes, alpha = top + 1, self.nu - 2.0 * top - 2.0
            rows = self._overlap_rows(nodes, alpha)
            check = self._overlap_rows(nodes + _CHECK_NODES, alpha)
            s = rows @ rows.T
            delta = float(np.abs(s - check @ check.T).max())
            if delta > _TABLE_TOL:
                raise QuadratureAccuracyError(
                    f"overlap table moved by {delta:.3e} from {nodes} to "
                    f"{nodes + _CHECK_NODES} Gauss-Laguerre nodes (alpha = {alpha!r})",
                    quantity="overlap table", delta=delta, tol=_TABLE_TOL, rule=(nodes, alpha),
                )
            self._overlap = s
        return self._overlap

    def _overlap_rows(self, nodes: int, alpha: float) -> np.ndarray:
        # h_n(z_i) = sqrt(w_i) N_n / sqrt(beta) z_i^(K-n) L_n^(2(p-n))(z_i), so that
        # S = H H^T.  Each |h_n(z_i)| <= 1 because sum_i h_n(z_i)^2 = S[n, n].
        modes = self.bound_modes()
        z, log_w = _gauss_laguerre(nodes, alpha)
        log_z = np.log(z)
        rows = np.zeros((self.k + 1, z.size))
        for n in modes:
            sign, log_lag = laguerre_signed_log(n, 2.0 * (self.p - n), z)
            log_scale = self.log_norm_1d(n) - 0.5 * math.log(self.beta)
            rows[n] = sign * np.exp(0.5 * log_w + log_scale + (modes[-1] - n) * log_z + log_lag)
        return rows

    def mode_tables(self, quad: QuadratureConfig, box: tuple[float, float] | None = None) -> ModeTables:
        """All 1D matrices needed for overlaps and moments, cached per rule and box."""
        if box is None:
            box = quad.box if quad.box is not None else self.support_box(cut=quad.support_cut)
        key = (quad.points_per_axis, quad.panels, float(box[0]), float(box[1]))
        if key in self._tables:
            return self._tables[key]
        # polynomial oscillation lives at z > e^-3; beyond that the density
        # is a bare exponential tail that a couple of wide panels capture.
        split = (math.log(self.nu) + 3.0) / self.beta
        x, w = quad.nodes(box[0], box[1], split=split)
        modes = self.bound_modes()
        dim = self.k + 1
        f = np.zeros((dim, x.size))
        df = np.zeros((dim, x.size))
        for n in modes:
            f[n] = self.mode_values(n, x)
            df[n] = self.mode_derivative_values(n, x)
        fw = f * w
        dfw = df * w
        hbar = self.physical.hbar
        tables = ModeTables(
            x=x,
            w=w,
            overlap_1d=fw @ f.T,
            position=(fw * x) @ f.T,
            position_sq=(fw * x * x) @ f.T,
            momentum=hbar * (fw @ df.T),
            momentum_sq=hbar * hbar * (dfw @ df.T),
        )
        self._tables[key] = tables
        return tables


def normalization(nu: float, n: int, m: int, beta: float = 1.0) -> float:
    """2D normalization constant N_{n,m} for a well with the given nu.

    N_{n,m} = beta sqrt((nu-2n-1)(nu-2m-1) n! m! / (Gamma(nu-n) Gamma(nu-m))),
    assembled in log space.  Requires both modes bound: nu > 2n+1 and
    nu > 2m+1 strictly.
    """
    total = 0.0
    for q in (n, m):
        if q < 0:
            raise ValueError(f"quantum number must be non-negative, got {q}")
        if not nu - (2.0 * q + 1.0) > 0.0:
            raise ValueError(f"mode {q} is unbound: nu - (2n+1) = {nu - (2 * q + 1)!r} <= 0")
        total += 0.5 * (
            math.log(nu - 2.0 * q - 1.0) + log_gamma(q + 1.0) - log_gamma(nu - q)
        )
    return beta * math.exp(total)


def eigenfunction(basis: MorseBasis, n: int, m: int, x, y) -> np.ndarray:
    """psi_{n,m}(x, y) = phi_n(x) phi_m(y), broadcasting x against y."""
    return basis.mode_values(n, x) * basis.mode_values(m, y)


def mu_wavefunction(basis: MorseBasis, state: MuState, x, y) -> np.ndarray:
    """Complex amplitude of a level state at the given points.

    Diagonal states return psi_{n,n}; mixed states return
    gamma psi_{n,m} + delta psi_{m,n}.
    """
    return sum(value * eigenfunction(basis, n, m, x, y) for n, m, value in state.entries)


def _coefficient_matrix(state, dim: int) -> np.ndarray:
    matrix = getattr(state, "coefficient_matrix", None)
    if matrix is None:
        raise TypeError(f"{type(state).__name__} cannot be expanded over the product basis")
    return matrix(dim)


def density_grid(basis: MorseBasis, state, grid: GridSpec | None = None, default_n: int = 400) -> ScalarField2D:
    """|amplitude|^2 of a state sampled on a cell-centered grid.

    ``state`` is anything exposing coefficient_matrix(dim): a MuState or a
    coherent state.  Without an explicit grid, a square default_n x default_n
    grid over the scanned support box is used.  The amplitude on the grid is
    assembled from the 1D mode values, which is exact for product expansions.
    """
    if grid is None:
        lo, hi = basis.support_box()
        grid = GridSpec(lo, hi, lo, hi, default_n, default_n)
    c = _coefficient_matrix(state, basis.k + 1)
    xs = grid.x_centers()
    ys = grid.y_centers()
    used = [n for n in range(basis.k + 1) if np.any(c[n, :] != 0.0) or np.any(c[:, n] != 0.0)]
    fx = np.zeros((basis.k + 1, xs.size))
    fy = np.zeros((basis.k + 1, ys.size))
    for n in used:
        fx[n] = basis.mode_values(n, xs)
        fy[n] = basis.mode_values(n, ys)
    amplitude = fx.T @ c @ fy
    return ScalarField2D(grid, np.abs(amplitude) ** 2)


def overlap(basis: MorseBasis, state_a, state_b, quad: QuadratureConfig | None = None) -> complex:
    """<state_a | state_b> = sum conj(C_a) * (S C_b S^T) on ``MorseBasis.overlap_table``.

    ``quad`` is unused and kept so that existing calls keep working.
    """
    dim = basis.k + 1
    c1 = _coefficient_matrix(state_a, dim)
    c2 = _coefficient_matrix(state_b, dim)
    basis._check_matrix_modes(c1)
    basis._check_matrix_modes(c2)
    s = basis.overlap_table()
    return complex(np.vdot(c1, s @ c2 @ s.T))


def gram_matrix(basis: MorseBasis, states, quad: QuadratureConfig | None = None) -> np.ndarray:
    """Matrix of pairwise overlaps <s_i | s_j> on the exact overlap table.

    Each state's nonzero terms sum_p v_p |a_p, b_p> are cut into pairs (a
    zero-weight term pads an odd count).  The overlaps of all pairs, sum of
    conj(v_p) v_q S[a_p, a_q] S[b_p, b_q], take four array operations, and
    each state's rows and columns are then summed.  A level state is one
    pair, so L level states need O(L^2) memory and no per-pair Python loop.

    S is ``MorseBasis.overlap_table``; level states give max|G - I| below
    1e-10 at k = 45 and 60, eps down to 0.01.  ``quad`` is unused and kept
    so that existing calls keep working.
    """
    s = basis.overlap_table()
    states = list(states)
    rows, cols, vals, owner = [], [], [], []
    for i, state in enumerate(states):
        c = _coefficient_matrix(state, basis.k + 1)
        basis._check_matrix_modes(c)
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
