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
import math
from dataclasses import dataclass

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
    "density_grid",
    "gram_matrix",
]

# One tolerance for both refinement checks: absolute on the overlap table (|S| <= 1), relative for moments.
_REFINE_TOL, _CHECK_NODES = 1.0e-7, 8

# Elements per row block of the Gram product: each block's gathers and
# coefficient products hold at most this many doubles, so the product needs
# little memory beyond its complex result.
_GRAM_BLOCK = 2**16

# 1D density below this fraction of its peak counts as outside the support.
_SUPPORT_CUT = 1.0e-14

# Samples of a support scan window, and the modes a scan evaluates at once:
# 16 rows of 4097 samples keep each of the scan's arrays at 0.5 MB however
# deep the well.
_SCAN_SAMPLES, _SCAN_ROWS = 4097, 16

# Cap on ln z.  The Laguerre recurrence multiplies z by running values of up
# to 1e250, which stays finite while ln z < ln(DBL_MAX / 1e250) = 134.1.  Past
# ln z = 130 the factor exp(-z/2) < exp(-1.4e56) makes every mode n <= K_MAX an
# exact zero, so clipping ln z there is lossless.
_LOG_Z_CAP = 130.0

# exp() argument cap, so that no log-space value overflows to inf.
_LOG_EXP_CAP = 705.0


@dataclass(frozen=True)
class MixingCoefficients:
    """Complex pair (gamma, delta) with |gamma|^2 + |delta|^2 = 1 within 1e-12."""

    gamma: complex
    delta: complex

    def __post_init__(self):
        object.__setattr__(self, "gamma", complex(self.gamma))
        object.__setattr__(self, "delta", complex(self.delta))
        norm = abs(self.gamma) ** 2 + abs(self.delta) ** 2
        if not abs(norm - 1.0) <= 1.0e-12:
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
    def pairs(self) -> tuple[tuple[int, int, complex, complex], ...]:
        """The state as swap pairs (n, m, gamma, delta): ((n, m, gamma, delta),), or ((n, n, 1, 0),) if diagonal."""
        if self.coeffs is None:
            return ((self.n, self.n, 1.0 + 0.0j, 0.0j),)
        return ((self.n, self.m, self.coeffs.gamma, self.coeffs.delta),)

    def coefficient_matrix(self, dim: int) -> np.ndarray:
        """(dim x dim) complex matrix C with the state written as sum C[n, m] |n, m>."""
        return _matrix(_columns(self.pairs), dim)


@dataclass(frozen=True, eq=False)
class MuBasis:
    """All xi + 1 level states of one ordered spectrum, indexed mu_0 .. mu_xi, held as columns.

    Level i is |n_i, n_i> or gamma[i] |n_i, m_i> + delta[i] |m_i, n_i>,
    with n_i >= m_i the spectrum's key columns.  ``gamma`` and ``delta``
    hold each doublet's mixing pair (``coeffs`` or its override) and
    (1, 0) at singlets.  ``states`` builds the MuState objects on first
    access.
    """

    spectrum: OrderedSpectrum
    coeffs: MixingCoefficients
    gamma: np.ndarray
    delta: np.ndarray

    @property
    def parameter(self) -> PrincipalParameter:
        return self.spectrum.parameter

    @property
    def xi(self) -> int:
        return self.spectrum.xi

    @property
    def dim(self) -> int:
        return self.parameter.k + 1

    @functools.cached_property
    def states(self) -> tuple[MuState, ...]:
        common = (self.coeffs.gamma, self.coeffs.delta)
        levels = zip(self.spectrum.n.tolist(), self.spectrum.m.tolist(), self.gamma.tolist(), self.delta.tolist())
        return tuple(
            MuState(i, n, m) if n == m
            else MuState(i, n, m, self.coeffs if (g, d) == common else MixingCoefficients(g, d))
            for i, (n, m, g, d) in enumerate(levels)
        )


def build_mu_basis(
    spectrum: OrderedSpectrum,
    coeffs: MixingCoefficients | None = None,
    overrides: dict[int, MixingCoefficients] | None = None,
) -> MuBasis:
    """Attach one state to every level: |n, n> for singlets, a mixed pair for doublets.

    ``coeffs`` is the common mixing pair for all doublets (equal mix by
    default); ``overrides`` may replace it at individual doublet level
    indices.  An override at a singlet or at an index outside 0..xi raises
    ValueError naming the index.  Any accidental level makes the
    single-state-per-level construction ill-defined and raises ValueError.
    """
    if coeffs is None:
        coeffs = MixingCoefficients.equal_mix()
    merged = np.flatnonzero(np.diff(spectrum.bounds) > 1)
    if merged.size:
        i = int(merged[0])
        rec = spectrum.levels[i]
        raise ValueError(
            f"level {i} with key {rec.key} holds {rec.multiplicity} states; "
            "a one-state-per-level basis needs a spectrum free of accidental degeneracy"
        )
    diagonal = spectrum.n == spectrum.m
    gamma = np.where(diagonal, 1.0 + 0.0j, coeffs.gamma)
    delta = np.where(diagonal, 0.0j, coeffs.delta)
    for i, pair in (overrides or {}).items():
        if not (isinstance(i, (int, np.integer)) and 0 <= i <= spectrum.xi):
            raise ValueError(f"override at level {i!r}: the level indices are 0..{spectrum.xi}")
        if diagonal[i]:
            n = spectrum.n[i]
            raise ValueError(f"override at level {i}: the singlet |{n}, {n}> has no mixing pair")
        gamma[i], delta[i] = pair.gamma, pair.delta
    return MuBasis(spectrum, coeffs, gamma, delta)


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
        if not all(map(math.isfinite, (self.x_min, self.x_max, self.y_min, self.y_max))):
            raise ValueError("grid ranges must be finite")
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


@dataclass(frozen=True, eq=False)
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


def _gauss_laguerre_rules(counts, alpha: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Nodes z_i and log weights ln w_i of the rules for z^alpha e^(-z) on (0, inf), one per node count.

    ``counts`` is strictly ascending.  A rule with N nodes is exact for
    polynomials of degree below 2N.  Each rule's nodes start as the
    eigenvalues of its Jacobi matrix (Golub & Welsch, Math. Comp. 23, 1969).
    All rules are then polished in one pass: each of three Newton steps on
    L_N^alpha, and the weights
    w_i = Gamma(N+alpha+1) z_i / (N! (N+1)^2 L_{N+1}^alpha(z_i)^2), take one
    row-form Laguerre call over every rule's nodes, and a node reads its own
    rule's rows, so each value is the one a call per rule gives, bit for bit.
    The weights are kept as logs because they underflow far out in the tail.
    """
    start = []
    for nodes in counts:
        j = np.arange(1, nodes)
        # eigvalsh reads only the lower triangle of the symmetric tridiagonal matrix
        jacobi = np.diag(2.0 * np.arange(nodes) + alpha + 1.0) + np.diag(np.sqrt(j * (j + alpha)), -1)
        start.append(np.linalg.eigvalsh(jacobi))
    z = np.concatenate(start)
    rule = np.repeat(np.arange(len(counts)), counts)
    node = np.arange(z.size)
    # rows 2r and 2r + 1 hold rule r's L_(N-1)^(alpha+1) = -L_N' and L_N; own picks them for rule r's nodes
    degrees = [d for nodes in counts for d in (nodes - 1, nodes)]
    own = (np.stack([2 * rule, 2 * rule + 1]), node)
    for _ in range(3):
        # z - L_N / L_N'; exact roots stay put
        sign, log_abs = laguerre_signed_log(degrees, [alpha + 1.0, alpha] * len(counts), z)
        (slope_sign, sign), (log_slope, log_value) = sign[own], log_abs[own]
        live = sign * slope_sign != 0.0
        z = z + sign * slope_sign * np.exp(np.where(live, log_value - log_slope, -np.inf))
    _, log_next = laguerre_signed_log([nodes + 1 for nodes in counts], [alpha] * len(counts), z)
    log_w = [log_gamma(nodes + alpha + 1.0) - log_gamma(nodes + 1.0) - 2.0 * math.log(nodes + 1.0) for nodes in counts]
    log_w = np.repeat(log_w, counts) + np.log(z) - 2.0 * log_next[rule, node]
    ends = np.cumsum(counts)[:-1]
    return list(zip(np.split(z, ends), np.split(log_w, ends)))


@dataclass(frozen=True)
class QuadratureConfig:
    """Composite Gauss-Legendre rule: points_per_axis nodes split into equal panels."""

    points_per_axis: int = 200
    panels: int = 10

    def __post_init__(self):
        if self.panels < 1:
            raise ValueError("need at least one panel")
        if self.points_per_axis % self.panels != 0:
            raise ValueError("points_per_axis must be divisible by panels")
        if self.points_per_axis // self.panels < 2:
            raise ValueError("need at least two nodes per panel")

    def refined(self) -> "QuadratureConfig":
        """Double both the node count and the panel count (same order per panel)."""
        return QuadratureConfig(2 * self.points_per_axis, 2 * self.panels)

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


@dataclass(frozen=True, eq=False)
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
        # nu - (2n + 1) falls as n grows, so the bound modes are 0..top_mode (-1 if none is bound)
        self.top_mode = next((n for n in range(self.k, -1, -1) if self.nu - (2.0 * n + 1.0) > 0.0), -1)
        self._boxes: dict = {}
        self._support: tuple[float, float] | None = None
        self._tables: dict = {}
        self._overlap: np.ndarray | None = None

    # -- mode bookkeeping ---------------------------------------------------

    def mode_is_bound(self, n: int) -> bool:
        """A 1D mode is normalizable iff nu > 2n + 1 strictly, that is iff 0 <= n <= top_mode."""
        return 0 <= n <= self.top_mode

    def bound_modes(self) -> list[int]:
        return list(range(self.top_mode + 1))

    def _check_mode(self, n: int, level: int | None = None) -> None:
        """Raise ValueError unless n is a bound mode; ``level`` names the level state that uses it."""
        if not isinstance(n, (int, np.integer)) or not 0 <= n <= self.k:
            raise ValueError(f"mode index must lie in 0..{self.k}, got {n!r}")
        if not self.mode_is_bound(n):
            gap = self.nu - (2 * n + 1)
            text = f"mode n = {n} has nu - (2n+1) = {gap!r} <= 0 and is not normalizable"
            if self.principal.epsilon_exact == 0:
                users = ("the states that use them are counted in the spectrum but have" if level is None
                         else f"level mu_{level}, which uses one, is counted in the spectrum but has")
                text += (": at integer p the modes n = k sit at the dissociation threshold (E = 0), "
                         f"so {users} no normalizable wavefunction")
            raise ValueError(text)

    @functools.cached_property
    def _log_norms(self) -> np.ndarray:
        """ln(N_n / sqrt(beta)) of every bound mode n, at index n (the bound modes are 0..K)."""
        return np.array([_log_norm(self.nu, n) for n in range(self.top_mode + 1)])

    # -- pointwise evaluation -----------------------------------------------

    def _envelope(self, modes: np.ndarray, log_z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """z, and ln N_n + (p - n) ln z - z/2 of the mode profile, one row per bound mode; ln z is clipped at 130."""
        log_z = np.minimum(log_z, _LOG_Z_CAP)
        z = np.exp(log_z)
        log_norm = 0.5 * math.log(self.beta) + self._log_norms[modes]
        with np.errstate(over="ignore"):
            return z, log_norm[:, None] + (self.p - modes)[:, None] * log_z - 0.5 * z

    def _log_density(self, modes: np.ndarray, log_z: np.ndarray) -> np.ndarray:
        """g = ln |phi_n|^2 at each ln z, one row per mode: the one sampler of the support scans."""
        z, log_pre = self._envelope(modes, log_z)
        _, log_lag = laguerre_signed_log(modes, 2.0 * (self.p - modes), z)
        return 2.0 * (log_pre + log_lag)

    def _rows(self, modes, x: np.ndarray, derivative: bool = False):
        """phi_n on the 1D positions x, one row per mode (ascending); with ``derivative``, also phi_n'.

        phi_n(x) = N_n z^(p-n) exp(-z/2) L_n^a(z), a = 2(p-n).  The prefactor
        is assembled in log space; ln z is clipped at 130, where the
        exp(-z/2) factor already guarantees an exact underflow to zero.  With
        d/dx = -beta z d/dz and d/dz L_n^a = -L_{n-1}^{a+1} the chain rule gives
        phi_n'(x) = -beta N_n z^(p-n) exp(-z/2)
                    [ (p - n - z/2) L_n^a(z) - z L_{n-1}^{a+1}(z) ],
        with the second bracket term absent for n = 0.  All modes share one
        Laguerre pass per family.
        """
        modes = np.asarray(modes)
        alpha = 2.0 * (self.p - modes)
        # ln z = ln nu - beta x never overflows
        z, log_pre = self._envelope(modes, math.log(self.nu) - self.beta * x)
        phi, log_lag = laguerre_signed_log(modes, alpha, z)  # phi holds the signs until scaled
        log_lag += log_pre
        phi *= np.exp(np.minimum(log_lag, _LOG_EXP_CAP, out=log_lag), out=log_lag)
        if not derivative:
            return phi
        # each table is modes x samples: free it before the next one is made
        del log_lag
        first = int(np.searchsorted(modes, 1))
        term, log_d = laguerre_signed_log(modes[first:] - 1, alpha[first:] + 1.0, z)  # signs, as above
        log_d += log_pre[first:]
        term *= z
        term *= np.exp(np.minimum(log_d, _LOG_EXP_CAP, out=log_d), out=log_d)
        del log_d, log_pre
        bracket = (self.p - modes)[:, None] - 0.5 * z
        bracket *= phi
        bracket[first:] -= term
        bracket *= -self.beta
        return phi, bracket

    def mode_values(self, n: int, x) -> np.ndarray:
        """phi_n on the given positions (scalar or array), as exact doubles; see ``_rows``."""
        self._check_mode(n)
        arr = np.asarray(x, dtype=float)
        vals = self._rows([n], arr.reshape(-1))[0].reshape(arr.shape)
        return float(vals) if arr.ndim == 0 else vals

    # -- support scans --------------------------------------------------------

    def mode_box(self, n: int) -> tuple[float, float]:
        """x-interval outside which |phi_n|^2 stays below 1e-14 of its peak."""
        self._check_mode(n)
        self._scan([n])
        return self._boxes[n]

    def support_box(self) -> tuple[float, float]:
        """Union of the boxes of every bound mode, cached; bit for bit the union of every ``mode_box``.

        Only the union's two ends matter.  The top two modes, which in
        practice set them, are scanned in full and give (lo, hi).  Every other
        mode not cached yet is evaluated on part of its scan's first window:
        every 16th sample, and each sample whose box edge would fall outside
        (lo, hi).  Let thr be the largest of these values of g = ln |phi_n|^2,
        plus ln 1e-14.  A mode whose two end samples and outside-edge samples
        all have g <= thr lies inside the union and gets no cached box
        (``mode_box`` scans it on demand); any other mode is scanned in full
        and widens (lo, hi).  The check runs _SCAN_ROWS modes at a time.

        This is exact.  The envelope and the recurrence act on each sample
        alone, so every value is the scan's own, bit for bit, and a partial
        maximum is at most the scan's, so thr is at most the scan's
        threshold.  A skipped mode's window would therefore not grow, and none
        of its samples above the threshold has an edge outside (lo, hi).  A
        NaN fails "<=", so its mode goes to the full scan, as before.
        """
        if self._support is not None:
            return self._support
        modes = range(self.top_mode + 1)
        self._scan(modes[-2:])
        boxes = [self._boxes[n] for n in modes if n in self._boxes]
        lo, hi = min(b[0] for b in boxes), max(b[1] for b in boxes)
        rest = [n for n in reversed(modes) if n not in self._boxes]
        log_nu, log_cut = math.log(self.nu), math.log(_SUPPORT_CUT)
        us = np.linspace(*self._start_window(), _SCAN_SAMPLES)
        du = us[1] - us[0]
        # the box edges _scan would give each sample, in its operation order
        lo_edge, hi_edge = (log_nu - (us + du)) / self.beta, (log_nu - (us - du)) / self.beta
        for i in range(0, len(rest), _SCAN_ROWS):
            outside = (lo_edge < lo) | (hi_edge > hi)
            outside[[0, -1]] = True
            sampled = outside.copy()
            sampled[::16] = True
            chunk = np.array(sorted(rest[i : i + _SCAN_ROWS]))
            g = self._log_density(chunk, us[sampled])
            inside = np.all(g[:, outside[sampled]] <= g.max(axis=1, keepdims=True) + log_cut, axis=1)
            unproved = chunk[~inside].tolist()
            self._scan(unproved)
            for n in unproved:
                lo, hi = min(lo, self._boxes[n][0]), max(hi, self._boxes[n][1])
        self._support = (lo, hi)
        return self._support

    def _start_window(self) -> tuple[float, float]:
        """The u = ln z window every support scan starts on, around the classically allowed region."""
        return -8.0, math.log(4.0 * self.nu + 50.0)

    def _scan(self, modes) -> None:
        """Find and cache the box of every mode in ``modes`` not cached yet.

        The scan runs in u = ln z (u decreasing <-> x increasing).  Every mode
        starts on ``_start_window``, sampled at 4097 points; while the log
        density at an end of its window is still above the cut, that edge
        moves out and the mode is scanned again.  Modes on the same window
        are scanned together, _SCAN_ROWS at a time.
        """
        log_cut = math.log(_SUPPORT_CUT)
        windows = {self._start_window(): [n for n in modes if n not in self._boxes]}
        for _ in range(200):
            grown: dict = {}
            for (lo_u, hi_u), group in windows.items():
                us = np.linspace(lo_u, hi_u, _SCAN_SAMPLES)
                du = us[1] - us[0]
                for i in range(0, len(group), _SCAN_ROWS):
                    chunk = np.array(sorted(group[i : i + _SCAN_ROWS]))
                    g = self._log_density(chunk, us)
                    thresholds = g.max(axis=1) + log_cut
                    for n, row, threshold in zip(chunk.tolist(), g, thresholds.tolist()):
                        grow_lo = row[0] > threshold
                        grow_hi = row[-1] > threshold
                        if grow_lo or grow_hi:
                            span = hi_u - lo_u
                            lo = lo_u - 0.5 * span if grow_lo else lo_u
                            hi = hi_u + 0.25 * span if grow_hi else hi_u
                            grown.setdefault((lo, hi), []).append(n)
                            continue
                        above = np.nonzero(row > threshold)[0]
                        u_lo = us[above[0]] - du
                        u_hi = us[above[-1]] + du
                        self._boxes[n] = (
                            (math.log(self.nu) - u_hi) / self.beta,
                            (math.log(self.nu) - u_lo) / self.beta,
                        )
            windows = grown
            if not windows:
                return
        failed = min(n for group in windows.values() for n in group)
        raise RuntimeError(f"support scan for mode {failed} failed to localize the density")

    # -- quadrature tables ----------------------------------------------------

    def overlap_table(self) -> np.ndarray:
        """Exact 1D overlaps S[n, m] = <phi_n | phi_m>, cached; rows of unbound modes are zero.

        In z = nu exp(-beta x), phi_n phi_m dx is z^alpha e^(-z) / beta times a
        polynomial of degree <= 2K (K the top bound mode, alpha = nu - 2K - 2),
        so the Gauss-Laguerre rule with K + 1 nodes is exact.  The table is
        checked once, when it is built, against 8 more nodes and raises
        QuadratureAccuracyError if an entry moves by more than 1e-7.  Both
        rules are polished in one pass (``_gauss_laguerre_rules``), and both
        tables come from one Laguerre pass over all their nodes.
        """
        if self._overlap is None:
            top = self.top_mode
            nodes, alpha = top + 1, self.nu - 2.0 * top - 2.0
            rows, check = self._overlap_rows(alpha, nodes, nodes + _CHECK_NODES)
            s = rows @ rows.T
            delta = float(np.abs(s - check @ check.T).max())
            if delta > _REFINE_TOL:
                raise QuadratureAccuracyError(
                    f"overlap table moved by {delta:.3e} from {nodes} to "
                    f"{nodes + _CHECK_NODES} Gauss-Laguerre nodes (alpha = {alpha!r})",
                    quantity="overlap table", delta=delta, tol=_REFINE_TOL, rule=(nodes, alpha),
                )
            self._overlap = s
        return self._overlap

    def _overlap_rows(self, alpha: float, *rules: int) -> list[np.ndarray]:
        """The table H of each Gauss-Laguerre rule (node count), from one Laguerre pass over all their nodes."""
        # h_n(z_i) = sqrt(w_i) N_n / sqrt(beta) z_i^(K-n) L_n^(2(p-n))(z_i), so that
        # S = H H^T.  Each |h_n(z_i)| <= 1 because sum_i h_n(z_i)^2 = S[n, n].
        modes = np.arange(self.top_mode + 1)
        parts = _gauss_laguerre_rules(rules, alpha)
        z, log_w = (np.concatenate(column) for column in zip(*parts))
        log_z = np.log(z)
        sign, log_lag = laguerre_signed_log(modes, 2.0 * (self.p - modes), z)
        rows = sign * np.exp(0.5 * log_w + self._log_norms[:, None] + (modes[-1] - modes)[:, None] * log_z + log_lag)
        ends = np.cumsum([part[0].size for part in parts])[:-1]
        return [_padded(block, self.k + 1) for block in np.split(rows, ends, axis=1)]

    def mode_tables(self, quad: QuadratureConfig) -> ModeTables:
        """All 1D matrices needed for moments on the support box, cached per rule."""
        return self._mode_tables(quad, self.top_mode)

    def _mode_tables(self, quad: QuadratureConfig, top: int) -> ModeTables:
        """``mode_tables`` with the rows of the modes above ``top`` left zero.

        The tables keep their (k+1) x (k+1) shape, and each mode row is the
        full build's bit for bit (a row of the recurrence's row form equals
        its single-row call), so every entry between modes 0..top is the
        full table's.  The cache of a rule remembers the top it was built
        to; a call that needs a higher one rebuilds it in full.
        """
        if quad in self._tables:
            built, tables = self._tables[quad]
            if built >= top:
                return tables
            top = self.top_mode
        box = self.support_box()
        # polynomial oscillation lives at z > e^-3; beyond that the density
        # is a bare exponential tail that a couple of wide panels capture.
        split = (math.log(self.nu) + 3.0) / self.beta
        x, w = quad.nodes(box[0], box[1], split=split)
        modes = np.arange(top + 1)
        f, df = (_padded(rows, self.k + 1) for rows in self._rows(modes, x, derivative=True))
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
        self._tables[quad] = (top, tables)
        return tables


def _padded(rows: np.ndarray, dim: int) -> np.ndarray:
    """The rows of modes 0, 1, ... followed by zero rows, as a (dim x samples) table."""
    return np.concatenate([rows, np.zeros((dim - rows.shape[0], rows.shape[1]))])


def _log_norm(nu: float, n: int) -> float:
    """ln(N_n / sqrt(beta)) = ln sqrt((nu - 2n - 1) n! / Gamma(nu - n)) for a bound mode n."""
    return 0.5 * (math.log(nu - 2.0 * n - 1.0) + log_gamma(n + 1.0) - log_gamma(nu - n))


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
        total += _log_norm(nu, q)
    return beta * math.exp(total)


def eigenfunction(basis: MorseBasis, n: int, m: int, x, y) -> np.ndarray:
    """psi_{n,m}(x, y) = phi_n(x) phi_m(y), broadcasting x against y."""
    return basis.mode_values(n, x) * basis.mode_values(m, y)


def _columns(pairs) -> tuple:
    """Swap pairs (n, m, gamma, delta) as arrays n, m (intp) and gamma, delta (complex)."""
    n, m, gamma, delta = zip(*pairs) if pairs else [()] * 4
    return np.array(n, np.intp), np.array(m, np.intp), np.array(gamma, complex), np.array(delta, complex)


def _matrix(columns, dim: int) -> np.ndarray:
    """(dim x dim) matrix C of swap pairs (n, m, gamma, delta): gamma at C[n, m], delta at C[m, n] off the diagonal.

    One np.add.at in pair order; a pair with a mode at or above ``dim`` raises ValueError.
    """
    n, m, gamma, delta = columns
    top = max(n.max(initial=0), m.max(initial=0))
    if top >= dim:
        raise ValueError(f"swap pairs up to mode {top} do not fit in dimension {dim}")
    keep = np.column_stack([np.ones(n.size, dtype=bool), n != m]).ravel()
    at = (np.column_stack([n, m]).ravel()[keep], np.column_stack([m, n]).ravel()[keep])
    c = np.zeros((dim, dim), dtype=complex)
    np.add.at(c, at, np.column_stack([gamma, delta]).ravel()[keep])
    return c


def _expand(basis: MorseBasis, state) -> tuple[np.ndarray, list[int]]:
    """Coefficient matrix C of a state over the product basis, and the modes C uses (intp); see ``_pair_columns``."""
    columns, _, used = _pair_columns(basis, [state])
    return _matrix(columns, basis.k + 1), np.array(used, np.intp)


def density_grid(basis: MorseBasis, state, grid: GridSpec | None = None) -> ScalarField2D:
    """|amplitude|^2 of a state sampled on a cell-centered grid.

    ``state`` is a MuState or a coherent state (see ``_pair_columns``).
    Without an explicit grid, a square 400 x 400 grid over the scanned
    support box is used.  The amplitude is the used-mode block of C between
    the 1D rows of the used modes, which is exact for product expansions.
    """
    if grid is None:
        lo, hi = basis.support_box()
        grid = GridSpec(lo, hi, lo, hi, 400, 400)
    c, used = _expand(basis, state)
    amplitude = basis._rows(used, grid.x_centers()).T @ c[np.ix_(used, used)] @ basis._rows(used, grid.y_centers())
    return ScalarField2D(grid, np.abs(amplitude) ** 2)


def gram_matrix(basis: MorseBasis, states, quad: QuadratureConfig | None = None) -> np.ndarray:
    """Matrix of pairwise overlaps <s_i | s_j> on the exact overlap table.

    Every state is a sum of swap pairs gamma |n, m> + delta |m, n>, its
    ``pairs``, read in one pass by ``_pair_columns``.  With
    <n, m | n', m'> = S[n, n'] S[m, m'], two pairs overlap by A P + B Q, where

        A = conj(gamma) gamma' + conj(delta) delta',   P = S[n, n'] S[m, m'],
        B = conj(gamma) delta' + conj(delta) gamma',   Q = S[n, m'] S[m, n'].

    The product runs in real halves by row blocks of at most _GRAM_BLOCK
    elements: for each block, P and Q are row gathers of S[:, n] and S[:, m],
    the real and imaginary parts of A and B are (rows x 4) @ (4 x L) real
    products of the coefficients' parts.  The imaginary half is skipped when
    every gamma and delta is real.  A level state is one pair, so for a list
    of them each half is written straight into the complex result.
    Otherwise each block's columns are summed by state and its rows added
    into the states x states result, so peak memory is about the result
    plus one block's arrays either way, never pairs x pairs.  A state with
    no term is one zero pair, so its row and column are zero.

    S is ``MorseBasis.overlap_table``; level states give max|G - I| below
    1e-10 at k = 45 and 60, eps down to 0.01.  ``quad`` is unused and kept
    so that existing calls keep working.
    """
    s = basis.overlap_table()
    states = list(states)
    (n, m, gamma, delta), starts, _ = _pair_columns(basis, states)
    if starts is None:
        g = np.zeros((n.size, n.size), dtype=complex)
    else:
        g = np.zeros((len(states), len(states)), dtype=complex)
        owner = np.repeat(np.arange(len(states)), np.diff([*starts, n.size]))
    # the real parts of A and B are u @ u.T and u @ u[:, [2, 3, 0, 1]].T, the
    # imaginary parts flip @ u[:, [1, 0, 3, 2]].T and flip @ u[:, [3, 2, 1, 0]].T
    u = np.column_stack([gamma.real, gamma.imag, delta.real, delta.imag])
    halves = [(u, u.T, u[:, [2, 3, 0, 1]].T)]
    if u[:, 1::2].any():
        flip = u * [1.0, -1.0, 1.0, -1.0]
        halves.append((flip, u[:, [1, 0, 3, 2]].T, u[:, [3, 2, 1, 0]].T))
    s_n, s_m = s[:, n], s[:, m]
    rows = max(1, _GRAM_BLOCK // max(1, n.size))
    # one block of pair rows; an imaginary half never written stays zero
    buffer = None if starts is None else np.zeros((min(rows, n.size), n.size), dtype=complex)
    for lo in range(0, n.size, rows):
        block = slice(lo, lo + rows)
        p = s_n[n[block]]
        p *= s_m[m[block]]
        q = s_m[n[block]]
        q *= s_n[m[block]]
        out = g[block] if buffer is None else buffer[: p.shape[0]]
        for half, (left, a, b) in zip((out.real, out.imag), halves):
            np.multiply(left[block] @ a, p, out=half)
            term = left[block] @ b
            term *= q
            half += term
        if buffer is not None:
            np.add.at(g, owner[block], np.add.reduceat(out, starts, axis=1))
    return g


def _pair_columns(basis: MorseBasis, states: list) -> tuple:
    """The swap pairs of ``states`` as columns (n, m, gamma, delta), each state's first pair, and the used modes.

    One pass reads every state's ``pairs``: an object without them raises
    TypeError, and a coherent state whose levels were ordered in another
    well than the basis's raises ValueError naming both.  A state with no
    pair counts as one zero pair; the first pairs are None when every state
    is one pair.  The used modes, ascending, are those of pairs with a
    nonzero gamma or delta.  The mode tables hold only bound modes, so the
    first state that uses an unbound one raises ValueError, as it would alone.
    """
    rows, starts = [], []
    for state in states:
        pairs = getattr(state, "pairs", None)
        if pairs is None:
            raise TypeError(f"{type(state).__name__} cannot be expanded over the product basis")
        own = getattr(getattr(state, "basis", None), "parameter", basis.principal)
        if own is not basis.principal and own != basis.principal:
            raise ValueError(f"state was built for p = {own.p_text!r} ({own.mode}), "
                             f"but the basis is p = {basis.principal.p_text!r} ({basis.principal.mode})")
        starts.append(len(rows))
        rows += pairs or ((0, 0, 0.0j, 0.0j),)
    n, m, gamma, delta = columns = _columns(rows)
    live = (gamma != 0.0) | (delta != 0.0)
    # not np.union1d: its first call imports numpy.ma, about 15 ms of each CLI process
    used = np.flatnonzero(np.bincount(np.concatenate([n[live], m[live]]))).tolist()
    top = basis.top_mode
    if used and used[-1] > top:
        # the first pair with an unbound mode belongs to the first state that uses one
        owner = np.repeat(np.arange(len(states)), np.diff([*starts, n.size]))
        i = owner[np.argmax(live & (np.maximum(n, m) > top))]
        mine = live & (owner == i)
        for q in sorted({*n[mine].tolist(), *m[mine].tolist()}):
            basis._check_mode(q, states[i].index if isinstance(states[i], MuState) else None)
    return columns, None if len(rows) == len(states) else starts, used
