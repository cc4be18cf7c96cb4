"""Bound-state spectrum of the 2D Morse well and its exact degeneracy structure.

The quadratic energy formula makes two states (n, m) and (n', m') degenerate
exactly when an integer relation holds between their level keys, and whether
such relations can occur depends on the arithmetic type of the principal
parameter p.  That type cannot be inferred from a float, so it is always
declared by the caller: ``integer``, ``rational`` (with an exact fraction for
the fractional part), or ``irrational``.  All grouping and ordering decisions
are made on one exact integer per level; floats only carry the final energy
values.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation, localcontext
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import NoBoundStatesError, OrderingAmbiguityError

__all__ = [
    "INTEGER",
    "RATIONAL",
    "IRRATIONAL",
    "SINGLET",
    "DOUBLET",
    "ACCIDENTAL",
    "PhysicalParams",
    "PrincipalParameter",
    "LevelKey",
    "LevelRecord",
    "OrderedSpectrum",
    "CountSummary",
    "Crossing",
    "derive_parameters",
    "depth_for_principal",
    "decompose",
    "pi_multiple_text",
    "scaled_energy",
    "shifted_energy",
    "level_key",
    "enumerate_levels",
    "count_summary",
    "order_spectrum",
    "crossing_report",
]

INTEGER = "integer"
RATIONAL = "rational"
IRRATIONAL = "irrational"

SINGLET = "singlet"
DOUBLET = "doublet"
ACCIDENTAL = "accidental"

_MODES = (INTEGER, RATIONAL, IRRATIONAL)


@dataclass(frozen=True)
class PhysicalParams:
    """Physical constants of the isotropic two-dimensional Morse well.

    ``beta`` is the inverse range of the exponential walls; ``depth`` is the
    well depth at the minimum of each 1D factor.  All must be positive.
    """

    mass: float
    depth: float
    beta: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("mass", "depth", "beta", "hbar"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")


def derive_parameters(params: PhysicalParams) -> tuple[float, float]:
    """Return (nu, p) with nu = sqrt(8 m V0 / (beta^2 hbar^2)) and p = (nu - 1) / 2.

    Raises NoBoundStatesError when nu <= 1, i.e. when p would not be positive
    and the well holds no bound state at all.
    """
    nu = math.sqrt(8.0 * params.mass * params.depth / (params.beta * params.hbar) ** 2)
    if nu <= 1.0:
        raise NoBoundStatesError(
            f"nu = {nu!r} <= 1: the well is too shallow to bind a state"
        )
    return nu, (nu - 1.0) / 2.0


def depth_for_principal(p: float, mass: float = 1.0, beta: float = 1.0, hbar: float = 1.0) -> float:
    """Well depth that realizes a given principal parameter p > 0 (inverse of derive_parameters)."""
    if not p > 0.0:
        raise ValueError("principal parameter must be positive")
    nu = 2.0 * p + 1.0
    return nu * nu * (beta * hbar) ** 2 / (8.0 * mass)


@dataclass(frozen=True)
class PrincipalParameter:
    """Declared-arithmetic view of the principal parameter p = k + epsilon.

    ``p_text`` is the exact decimal text the value was built from and is the
    source of truth for all exact comparisons.  ``ratio`` is the reduced
    fraction epsilon = r/q in rational mode and None otherwise.
    """

    p_text: str
    p_value: float
    k: int
    epsilon: float
    mode: str
    ratio: Fraction | None = None

    @property
    def epsilon_exact(self) -> Decimal:
        """Fractional part of p as an exact Decimal read from p_text."""
        with localcontext() as ctx:
            ctx.prec = max(50, len(self.p_text) + 10)
            return +(Decimal(self.p_text) - self.k)

    def state_count(self) -> int:
        """Number of bound states (k + 1)^2."""
        return (self.k + 1) ** 2


def _parse_decimal(p_text: str) -> Decimal:
    try:
        value = Decimal(p_text)
    except InvalidOperation as exc:
        raise ValueError(f"cannot parse {p_text!r} as a decimal number") from exc
    if not value.is_finite() or value <= 0:
        raise ValueError(f"principal parameter must be a positive finite number, got {p_text!r}")
    return value


def decompose(p, mode: str, ratio=None) -> PrincipalParameter:
    """Split p into k = floor(p) and epsilon = p - k under a declared arithmetic type.

    ``p`` may be a string (preferred: it is kept verbatim as the exact text),
    an int, or a float.  ``mode`` is one of "integer", "rational",
    "irrational".  In rational mode ``ratio`` may supply the exact fraction
    for epsilon as a Fraction or (num, den) pair; if omitted it is derived
    from the decimal text.  A supplied ratio that disagrees with the text by
    more than 1e-12 is rejected as inconsistent.
    """
    mode = str(mode).lower()
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if isinstance(p, str):
        p_text = p.strip()
    elif isinstance(p, int):
        p_text = str(p)
    elif isinstance(p, float):
        p_text = repr(p)
    else:
        raise TypeError(f"p must be str, int or float, got {type(p).__name__}")

    p_dec = _parse_decimal(p_text)
    k = int(p_dec)  # floor: p_dec > 0
    with localcontext() as ctx:
        ctx.prec = max(50, len(p_text) + 10)
        eps_dec = +(p_dec - k)
    p_value = float(p_dec)
    epsilon = float(eps_dec)
    if epsilon >= 1.0:
        raise ValueError(
            f"p = {p_text} sits within double rounding of the integer {k + 1}; "
            "declare it integer or supply more digits"
        )

    if mode == INTEGER:
        if eps_dec != 0:
            raise ValueError(f"p = {p_text} declared integer but has fractional part {eps_dec}")
        return PrincipalParameter(p_text, p_value, k, 0.0, INTEGER, None)

    if mode == RATIONAL:
        eps_frac = Fraction(p_text) - k
        if ratio is None:
            frac = eps_frac
        else:
            frac = Fraction(*ratio) if isinstance(ratio, tuple) else Fraction(ratio)
            if not (0 <= frac < 1):
                raise ValueError(f"epsilon ratio must lie in [0, 1), got {frac}")
            if abs(frac - eps_frac) > Fraction(1, 10**12):
                raise ValueError(
                    f"declared ratio {frac} disagrees with the text value {eps_frac} "
                    "beyond working precision"
                )
        return PrincipalParameter(p_text, p_value, k, float(frac), RATIONAL, frac)

    # irrational: the text is necessarily a truncation; it must not be an
    # exact integer, which would contradict the declaration outright.
    if eps_dec == 0:
        raise ValueError(f"p = {p_text} declared irrational but is an exact integer")
    return PrincipalParameter(p_text, p_value, k, epsilon, IRRATIONAL, None)


def pi_multiple_text(multiple: float = 1.0, digits: int = 40) -> str:
    """Decimal text of multiple * pi to the given number of significant digits.

    Convenience for driving irrational-mode examples with a transcendental p.
    """
    if digits < 17:
        raise ValueError("fewer than 17 digits cannot round-trip a double")
    import mpmath

    with mpmath.workdps(digits + 10):
        value = mpmath.mpf(multiple) * mpmath.pi
        return mpmath.nstr(value, digits, strip_zeros=False)


def _check_quanta(k: int, n: int, m: int) -> None:
    if not (0 <= n <= k and 0 <= m <= k):
        raise ValueError(f"quantum numbers (n, m) = ({n}, {m}) out of range 0..{k}")


def scaled_energy(k: int, epsilon: float, n: int, m: int) -> float:
    """Dimensionless bound-state energy -[(k-n)^2 + (k-m)^2 + 2 eps (2k-n-m) + 2 eps^2]."""
    _check_quanta(k, n, m)
    return -((k - n) ** 2 + (k - m) ** 2 + 2.0 * epsilon * (2 * k - n - m) + 2.0 * epsilon * epsilon)


def shifted_energy(k: int, epsilon: float, n: int, m: int) -> float:
    """Scaled energy with the common -2 eps^2 offset removed: -(a + 2 eps b).

    The shift is state independent, so level ordering and degeneracy are
    unchanged; the top of the spectrum (n = m = k) sits exactly at zero.
    """
    _check_quanta(k, n, m)
    return -((k - n) ** 2 + (k - m) ** 2 + 2.0 * epsilon * (2 * k - n - m))


@dataclass(frozen=True, order=True)
class LevelKey:
    """Integer invariants of a level: a = (k-n)^2 + (k-m)^2, b = 2k - n - m."""

    a: int
    b: int


def level_key(k: int, n: int, m: int) -> LevelKey:
    """Integer key (a, b) of the state (n, m); swap-symmetric by construction."""
    _check_quanta(k, n, m)
    return LevelKey((k - n) ** 2 + (k - m) ** 2, 2 * k - n - m)


@dataclass(frozen=True)
class LevelRecord:
    """One degenerate energy level.

    ``members`` lists the states sharing the level, ordered with n >= m
    first (descending n - m, then ascending n), so members[0] is the
    canonical representative.  ``classification`` is "singlet" for a lone
    diagonal state, "doublet" for a swap pair, and "accidental" for any
    larger coincidence.
    """

    key: LevelKey
    members: tuple[tuple[int, int], ...]
    multiplicity: int
    shifted_energy: float
    classification: str

    def unordered_pairs(self) -> int:
        """Number of members counted up to the n <-> m swap."""
        diagonal = sum(1 for n, m in self.members if n == m)
        return diagonal + (self.multiplicity - diagonal) // 2


def _classify(members: Sequence[tuple[int, int]]) -> str:
    if len(members) == 1:
        return SINGLET
    if len(members) == 2:
        (n1, m1), (n2, m2) = members
        if n1 == m2 and m1 == n2:
            return DOUBLET
    return ACCIDENTAL


def _exact_epsilon(param: PrincipalParameter) -> tuple[int, int]:
    """epsilon as integers (N, D) with epsilon = N / D exactly.

    Integer mode has epsilon = 0, rational mode the declared ratio, and
    irrational mode the exact value of the decimal text.  A key (a, b) then
    has the exact level value a D + 2 N b, which is -D times its shifted
    energy: a larger value is a deeper level.
    """
    if param.mode == INTEGER:
        return 0, 1
    frac = param.ratio if param.mode == RATIONAL else Fraction(param.epsilon_exact)
    return frac.numerator, frac.denominator


def enumerate_levels(param: PrincipalParameter) -> list[LevelRecord]:
    """Group all (k+1)^2 bound states into exact degenerate levels.

    Integer and rational modes merge the states whose exact level value
    a D + 2 N b (epsilon = N / D) matches; irrational mode merges only the
    states with the same key (a, b), since no other coincidence is possible.
    Returns the levels deepest first, sorted by (-value, a, b).
    """
    k = param.k
    num, den = _exact_epsilon(param)
    by_key = param.mode == IRRATIONAL
    groups: dict[object, list[tuple[int, int]]] = {}
    for n in range(k + 1):
        u = k - n
        for m in range(k + 1):
            v = k - m
            a, b = u * u + v * v, u + v
            groups.setdefault((a, b) if by_key else a * den + 2 * num * b, []).append((n, m))

    records = []
    for members in groups.values():
        members.sort(key=lambda nm: (-(nm[0] - nm[1]), nm[0]))
        rep = members[0]
        records.append(
            LevelRecord(
                key=level_key(k, *rep),
                members=tuple(members),
                multiplicity=len(members),
                shifted_energy=shifted_energy(k, param.epsilon, *rep),
                classification=_classify(members),
            )
        )
    records.sort(key=lambda rec: (-(rec.key.a * den + 2 * num * rec.key.b), rec.key))
    return records


@dataclass(frozen=True)
class CountSummary:
    """Census of a level list.

    ``total_states`` counts all (n, m); ``swap_reduced`` counts states up to
    the n <-> m swap; ``distinct`` counts levels; ``accidental`` is the
    excess swap_reduced - distinct, the number of unordered pairs absorbed
    into some other level by an accidental coincidence.
    """

    total_states: int
    swap_reduced: int
    distinct: int
    accidental: int


def count_summary(levels: Iterable[LevelRecord]) -> CountSummary:
    levels = list(levels)
    total = sum(rec.multiplicity for rec in levels)
    swap_reduced = sum(rec.unordered_pairs() for rec in levels)
    distinct = len(levels)
    return CountSummary(total, swap_reduced, distinct, swap_reduced - distinct)


@dataclass(frozen=True)
class OrderedSpectrum:
    """Levels of one spectrum indexed mu_0 (deepest) .. mu_xi (top, always (k,k))."""

    parameter: PrincipalParameter
    levels: tuple[LevelRecord, ...]
    xi: int

    @functools.cached_property
    def _member_index(self) -> dict[tuple[int, int], int]:
        return {nm: i for i, rec in enumerate(self.levels) for nm in rec.members}

    def index_of(self, n: int, m: int) -> int:
        """Level index mu that contains the state (n, m)."""
        try:
            return self._member_index[(n, m)]
        except KeyError:
            raise ValueError(f"state ({n}, {m}) not in a spectrum with k = {self.parameter.k}")

    def shifted_energies(self) -> np.ndarray:
        return np.array([rec.shifted_energy for rec in self.levels])


def order_spectrum(param: PrincipalParameter) -> OrderedSpectrum:
    """Totally ordered spectrum, deepest level first.

    The order is the one ``enumerate_levels`` gives, by the exact level
    value a D + 2 N b with epsilon = N / D.  Integer and rational modes group
    by that value, so it is strict there.  In irrational mode two adjacent
    levels with the same value contradict the declared irrationality and
    raise OrderingAmbiguityError.
    """
    records = enumerate_levels(param)
    if param.mode == IRRATIONAL:
        num, den = _exact_epsilon(param)
        for upper, lower in zip(records, records[1:]):
            u, v = upper.key, lower.key
            if u.a * den + 2 * num * u.b == v.a * den + 2 * num * v.b:
                raise OrderingAmbiguityError(
                    f"levels {u} and {v} are exactly degenerate at "
                    f"p = {param.p_text}; the declared mode {param.mode!r} does not "
                    "admit a strict order here",
                    keys=(u, v), p_text=param.p_text, mode=param.mode,
                )
    return OrderedSpectrum(param, tuple(records), len(records) - 1)


@dataclass(frozen=True)
class Crossing:
    """Two level keys whose energies cross within the scanned tolerance window.

    ``epsilon_exact`` is the crossing point -(a_i - a_j) / (2 (b_i - b_j)) as
    a Fraction; ``epsilon_cross`` is that value correctly rounded to a double.
    """

    key_i: LevelKey
    key_j: LevelKey
    epsilon_cross: float
    epsilon_exact: Fraction


def crossing_report(k: int, epsilon: float, tol: float) -> list[Crossing]:
    """Key pairs whose order is not settled at distance tol around epsilon.

    A pair with slopes b_i != b_j crosses at eps* = -(a_i - a_j)/(2 (b_i - b_j));
    it is reported when |delta_a + 2 eps delta_b| < 2 tol |delta_b|, i.e. when
    eps* falls inside (epsilon - tol, epsilon + tol).  Pairs with equal b
    never cross and are skipped.

    The L = (k+1)(k+2)/2 keys are grouped by slope b with a sorted inside
    each group.  For each slope, every key of a smaller slope looks up the
    integer a-window of that group that can hold its partners, widened by
    one on each side, and only those candidates are tested with the float
    predicate above.  The window never decides a hit, so the result is the
    one an all-pairs scan gives.  Time O(k L log L); memory O(L + reported
    crossings), never the O(L^2) pair product.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 0:
        raise ValueError(f"k must be a non-negative integer, got {k!r}")
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie strictly inside (0, 1)")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if not math.isfinite(tol):
        raise ValueError("tol must be finite")
    k = int(k)
    # n >= m gives every key exactly once: (a, b) fixes the pair {k-n, k-m}
    n, m = np.tril_indices(k + 1)
    u, v = k - n, k - m
    a_int, b_int = u * u + v * v, u + v
    order = np.lexsort((a_int, b_int))
    a_int, b_int = a_int[order], b_int[order]
    a, b = a_int.astype(float), b_int.astype(float)
    bounds = np.searchsorted(b_int, np.arange(2 * k + 2))
    pick_i, pick_j = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    for slope in range(1, 2 * k + 1):
        lo, hi = bounds[slope], bounds[slope + 1]
        # partners of key p in this group have a within 2 tol |db| of the centre
        db = b[:lo] - slope
        centre = a[:lo] + 2.0 * epsilon * db
        half = 2.0 * tol * np.abs(db)
        first = lo + np.searchsorted(a[lo:hi], np.floor(centre - half) - 1.0, "left")
        count = lo + np.searchsorted(a[lo:hi], np.ceil(centre + half) + 1.0, "right") - first
        p = np.repeat(np.arange(lo), count)
        q = np.arange(p.size) + np.repeat(first - (np.cumsum(count) - count), count)
        # the predicate and -da/(2 db) are exact under swapping p and q
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
