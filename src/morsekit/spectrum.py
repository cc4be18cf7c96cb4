"""Bound-state spectrum of the 2D Morse well and its exact degeneracy structure.

The quadratic energy formula makes two states (n, m) and (n', m') degenerate
exactly when an integer relation holds between their level keys, and whether
such relations can occur depends on the arithmetic type of the principal
parameter p.  That type cannot be inferred from a float, so it is always
declared by the caller: ``integer``, ``rational`` (with an exact fraction for
the fractional part), or ``irrational``.  All grouping and ordering decisions
are made on one exact integer per key; floats only carry the final energy
values.  The levels come from the L = (k+1)(k+2)/2 keys (a, b), one per
unordered pair of quanta {n, m}, held as numpy arrays and ordered by one
sort of their exact values, not from a pass over the (k+1)^2 states.  An
ordered spectrum keeps those sorted columns; a LevelRecord is built only
when a caller reads one.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation, localcontext
from fractions import Fraction

import numpy as np

from .errors import NoBoundStatesError, OrderingAmbiguityError

__all__ = [
    "INTEGER",
    "RATIONAL",
    "IRRATIONAL",
    "K_MAX",
    "SINGLET",
    "DOUBLET",
    "ACCIDENTAL",
    "PhysicalParams",
    "PrincipalParameter",
    "LevelKey",
    "LevelRecord",
    "LevelSequence",
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

# Deepest supported well, k = floor(p).  Measured at k = 400 on a 2-vCPU guest:
# `spectrum --p 400 --mode integer` takes 1.4 s and 98 MB, `density --p
# 400.3717 --mode irrational --psi 2` 1.2 s and 66 MB, and the exact overlap
# table holds max|S - I| = 1.2e-10.  The state count grows as (k + 1)^2.
K_MAX = 400


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
    def epsilon_exact(self) -> Fraction:
        """Fractional part of p as an exact Fraction read from p_text."""
        return Fraction(_parse_decimal(self.p_text)) - self.k

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

    ``p`` is read through ``str(p)``: decimal text (preferred: it is kept
    verbatim as the exact text), an int or a float.  ``mode`` is one of
    "integer", "rational", "irrational".  Only rational mode takes ``ratio``,
    the exact fraction for epsilon as anything ``Fraction`` accepts; if
    omitted it is derived from the decimal text.  A supplied ratio that
    disagrees with the text by more than 1e-12 is rejected as inconsistent.
    A p with k above K_MAX is rejected with ValueError.
    """
    mode = str(mode).lower()
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if ratio is not None and mode != RATIONAL:
        raise ValueError(f"a ratio applies only in rational mode, not in {mode} mode")
    p_text = str(p).strip()
    p_dec = _parse_decimal(p_text)
    p_value = float(p_dec)
    if not 0.0 < p_value < math.inf:
        raise ValueError(f"principal parameter must be a positive finite number, got {p_text!r}")
    k = int(p_dec)  # floor: p_dec > 0
    if k > K_MAX:
        raise ValueError(f"p = {p_text} gives k = {k}, above the supported depth k <= {K_MAX}")
    eps = Fraction(p_dec) - k
    epsilon = float(eps)
    if epsilon >= 1.0:
        raise ValueError(
            f"p = {p_text} sits within double rounding of the integer {k + 1}; "
            "declare it integer or supply more digits"
        )

    if mode == INTEGER:
        if eps:
            _, digits, exponent = p_dec.as_tuple()
            eps_text = Decimal((0, digits[exponent:], exponent))  # exact: the digits after the point
            raise ValueError(f"p = {p_text} declared integer but has fractional part {eps_text}")
        return PrincipalParameter(p_text, p_value, k, 0.0, INTEGER, None)

    if mode == RATIONAL:
        if ratio is None:
            frac = eps
        else:
            frac = Fraction(ratio)
            if not (0 <= frac < 1):
                raise ValueError(f"epsilon ratio must lie in [0, 1), got {frac}")
            if abs(frac - eps) > Fraction(1, 10**12):
                raise ValueError(
                    f"declared ratio {frac} disagrees with the text value {eps} "
                    "beyond working precision"
                )
        return PrincipalParameter(p_text, p_value, k, float(frac), RATIONAL, frac)

    # irrational: the text is necessarily a truncation; it must not be an
    # exact integer, which would contradict the declaration outright.
    if not eps:
        raise ValueError(f"p = {p_text} declared irrational but is an exact integer")
    return PrincipalParameter(p_text, p_value, k, epsilon, IRRATIONAL, None)


# pi to 120 decimal places, 80 beyond the 40 digits pi_multiple_text writes
_PI = Decimal(
    "3.14159265358979323846264338327950288419716939937510"
    "58209749445923078164062862089986280348253421170679"
    "82148086513282306647"
)


def pi_multiple_text(multiple: float = 1.0) -> str:
    """Decimal text of multiple * pi to 40 significant digits.

    Convenience for driving irrational-mode examples with a transcendental p.
    The exact product of the double and ``_PI`` is rounded half-even once;
    zero is written ``'0.0'``.
    """
    if multiple == 0:
        return "0.0"
    with localcontext() as ctx:
        ctx.prec = 40
        return format(Decimal(multiple) * _PI, "f")


def _check_quanta(k: int, n: int, m: int) -> None:
    if not (0 <= n <= k and 0 <= m <= k):
        raise ValueError(f"quantum numbers (n, m) = ({n}, {m}) out of range 0..{k}")


@dataclass(frozen=True, order=True)
class LevelKey:
    """Integer invariants of a level: a = (k-n)^2 + (k-m)^2, b = 2k - n - m."""

    a: int
    b: int


def level_key(k: int, n: int, m: int) -> LevelKey:
    """Integer key (a, b) of the state (n, m); swap-symmetric by construction."""
    _check_quanta(k, n, m)
    return LevelKey((k - n) ** 2 + (k - m) ** 2, 2 * k - n - m)


def shifted_energy(k: int, epsilon: float, n: int, m: int) -> float:
    """Scaled energy with the common -2 eps^2 offset removed: -(a + 2 eps b).

    The shift is state independent, so level ordering and degeneracy are
    unchanged; the top of the spectrum (n = m = k) sits exactly at zero.
    """
    key = level_key(k, n, m)
    return -(key.a + 2.0 * epsilon * key.b)


def scaled_energy(k: int, epsilon: float, n: int, m: int) -> float:
    """Dimensionless bound-state energy -[(k-n)^2 + (k-m)^2 + 2 eps (2k-n-m) + 2 eps^2]."""
    return shifted_energy(k, epsilon, n, m) - 2.0 * epsilon * epsilon


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


def _exact_epsilon(param: PrincipalParameter) -> tuple[int, int]:
    """epsilon as integers (N, D) with epsilon = N / D exactly.

    Rational mode takes the declared ratio, the other modes the exact value
    of the decimal text (0 in integer mode).  A key (a, b) then has the
    exact level value a D + 2 N b, which is -D times its shifted energy: a
    larger value is a deeper level.
    """
    frac = param.ratio if param.mode == RATIONAL else param.epsilon_exact
    return frac.numerator, frac.denominator


def _keys(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """n, m and the level key (a, b) of every state with n >= m, in ``np.tril_indices`` order.

    n >= m gives every key exactly once: (a, b) fixes the pair {k-n, k-m}.
    """
    n, m = np.tril_indices(k + 1)
    u, v = k - n, k - m
    return n, m, u * u + v * v, u + v


def _canonical(nm: tuple[int, int]) -> tuple[int, int]:
    """Sort key of a level's members: descending n - m, then ascending n."""
    return -(nm[0] - nm[1]), nm[0]


def _members(states) -> tuple[tuple[int, int], ...]:
    """A merged level's members: each of its keys' states (n, m) and the swap (m, n), in canonical order."""
    return tuple(sorted({q for nm in states for q in (nm, nm[::-1])}, key=_canonical))


def enumerate_levels(param: PrincipalParameter) -> "LevelSequence":
    """The levels of ``order_spectrum(param)``, deepest first; raises as it does."""
    return order_spectrum(param).levels


@dataclass(frozen=True)
class CountSummary:
    """Census of a spectrum's levels.

    ``total_states`` counts all (n, m); ``swap_reduced`` counts states up to
    the n <-> m swap; ``distinct`` counts levels; ``accidental`` is the
    excess swap_reduced - distinct, the number of unordered pairs absorbed
    into some other level by an accidental coincidence.
    """

    total_states: int
    swap_reduced: int
    distinct: int
    accidental: int


def count_summary(levels: LevelSequence) -> CountSummary:
    """Census of a spectrum's ``LevelSequence``, counted from its key columns.

    Each key is one unordered pair and a state count of 2 (1 on the
    diagonal), so no record is built.  Anything else raises TypeError.
    """
    if not isinstance(levels, LevelSequence):
        raise TypeError(f"count_summary takes a spectrum's LevelSequence, got {type(levels).__name__}")
    n, m, distinct = levels.spectrum.n, levels.spectrum.m, len(levels)
    total = 2 * n.size - int(np.count_nonzero(n == m))
    return CountSummary(total, n.size, distinct, n.size - distinct)


# Records a LevelSequence builds at once while it is iterated.
_RECORD_CHUNK = 1024


class LevelSequence(Sequence):
    """The levels of an ordered spectrum as a read-only sequence of LevelRecords.

    ``len`` reads the spectrum's columns; indexing or iterating builds each
    record on first use and keeps it.  A slice is a tuple.  The sequence
    equals any tuple, list or LevelSequence holding equal records in the
    same order.
    """

    __slots__ = ("spectrum", "_records")

    def __init__(self, spectrum: "OrderedSpectrum"):
        self.spectrum = spectrum
        self._records: list[LevelRecord | None] = [None] * (spectrum.bounds.size - 1)

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"level index {index} out of range 0..{len(self) - 1}")
        if self._records[i] is None:
            self._build(i, i + 1)
        return self._records[i]

    def __iter__(self):
        for start in range(0, len(self), _RECORD_CHUNK):
            stop = min(start + _RECORD_CHUNK, len(self))
            if None in self._records[start:stop]:
                self._build(start, stop)
            yield from self._records[start:stop]

    def __eq__(self, other):
        if not isinstance(other, (tuple, list, LevelSequence)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"LevelSequence({len(self)} levels, p = {self.spectrum.parameter.p_text})"

    def _build(self, start: int, stop: int) -> None:
        """Build the records of levels start .. stop - 1 not built yet."""
        for i, (n_list, m_list, label, a, b, energy) in zip(range(start, stop), self.spectrum._fields(start, stop)):
            if self._records[i] is None:
                members = tuple(zip(n_list, m_list))
                self._records[i] = LevelRecord(LevelKey(a, b), members, len(members), energy, label)


@dataclass(frozen=True, eq=False)
class OrderedSpectrum:
    """Levels of one spectrum indexed mu_0 (deepest) .. mu_xi (top, always (k,k)), held as key columns.

    ``n``, ``m``, ``a`` and ``b`` hold every key (a, b) with its state
    n >= m, deepest level first; level i holds the keys
    ``bounds[i]:bounds[i + 1]``, and its first key carries the level's
    canonical member, key and energy.  ``levels`` builds the LevelRecords
    from these columns on demand.
    """

    parameter: PrincipalParameter
    n: np.ndarray
    m: np.ndarray
    a: np.ndarray
    b: np.ndarray
    bounds: np.ndarray

    @property
    def xi(self) -> int:
        return self.bounds.size - 2

    @functools.cached_property
    def levels(self) -> LevelSequence:
        return LevelSequence(self)

    @functools.cached_property
    def _energies(self) -> np.ndarray:
        """Shifted energy of each level, from its first key in ``shifted_energy``'s operation order (bit-equal)."""
        head = self.bounds[:-1]
        energies = -(self.a[head] + 2.0 * self.parameter.epsilon * self.b[head])
        energies.flags.writeable = False
        return energies

    def _fields(self, start: int, stop: int):
        """(n_list, m_list, classification, a, b, shifted energy) of each level start .. stop - 1.

        The one source of level rows; only a merged level sorts its members.
        """
        bounds = self.bounds[start : stop + 1].tolist()
        first = bounds[0]
        n, m, a, b = (col[first : bounds[-1]].tolist() for col in (self.n, self.m, self.a, self.b))
        for lo, hi, energy in zip(bounds, bounds[1:], self._energies[start:stop].tolist()):
            j = lo - first
            if hi - lo > 1:
                n_list, m_list = map(list, zip(*_members(zip(n[j : hi - first], m[j : hi - first]))))
                yield n_list, m_list, ACCIDENTAL, a[j], b[j], energy
            elif n[j] == m[j]:
                yield [n[j]], [n[j]], SINGLET, a[j], b[j], energy
            else:
                yield [n[j], m[j]], [m[j], n[j]], DOUBLET, a[j], b[j], energy

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
        return self._energies.copy()


def order_spectrum(param: PrincipalParameter) -> OrderedSpectrum:
    """Exact degenerate levels of all (k+1)^2 bound states, totally ordered, deepest first.

    Every key (a, b) comes once, from its state with n >= m, as a singlet
    |n, n> or a swap doublet.  Keys are sorted by descending exact value
    a D + 2 N b (epsilon = N / D); since 2 N b = q_b D + r_b with
    0 <= r_b < D, that is the order of the int64 pairs (a + q_b, rank of
    r_b) for any D.  Integer and rational modes merge the keys of equal
    value into one level, so the order is strict there, and put the key
    holding its canonical first member (largest n - m, then smallest n)
    first.  Irrational mode keeps each key as its own level, since no other
    coincidence is possible; two keys of equal value contradict the declared
    irrationality and raise OrderingAmbiguityError naming the first such
    pair in (-value, a, b) order.
    """
    k = param.k
    num, den = _exact_epsilon(param)
    n, m, a, b = _keys(k)
    q, r = zip(*(divmod(2 * num * slope, den) for slope in range(2 * k + 1)))
    rank = {x: i for i, x in enumerate(sorted(set(r)))}
    high, low = a + np.array(q)[b], np.array([rank[x] for x in r])[b]
    tiebreak = (b, a) if param.mode == IRRATIONAL else (n, m - n)
    order = np.lexsort((*tiebreak, -low, -high))
    n, m, a, b, high, low = (col[order] for col in (n, m, a, b, high, low))
    tied = (high[1:] == high[:-1]) & (low[1:] == low[:-1])
    if param.mode != IRRATIONAL:
        bounds = np.concatenate(([0], np.flatnonzero(~tied) + 1, [order.size]))
    elif tied.any():
        tie = int(np.argmax(tied))
        u, v = (LevelKey(int(a[i]), int(b[i])) for i in (tie, tie + 1))
        raise OrderingAmbiguityError(
            f"levels {u} and {v} are exactly degenerate at "
            f"p = {param.p_text}; the declared mode {param.mode!r} does not "
            "admit a strict order here",
            keys=(u, v), p_text=param.p_text, mode=param.mode,
        )
    else:
        bounds = np.arange(order.size + 1)
    return OrderedSpectrum(param, n, m, a, b, bounds)


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


def _ranges(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The ranges first[i] .. first[i] + count[i] - 1, concatenated."""
    return np.arange(count.sum()) + np.repeat(first - (np.cumsum(count) - count), count)


def crossing_report(k: int, epsilon: float, tol: float) -> list[Crossing]:
    """Key pairs whose order is not settled at distance tol around epsilon.

    A pair with slopes b_i != b_j crosses at eps* = -(a_i - a_j)/(2 (b_i - b_j));
    it is reported when |delta_a + 2 eps delta_b| < 2 tol |delta_b|, i.e. when
    eps* falls inside (epsilon - tol, epsilon + tol).  Pairs with equal b
    never cross and are skipped.  A k above K_MAX raises ValueError before
    any key is built.

    The L = (k+1)(k+2)/2 keys are sorted once by (b, a), as the ascending
    integer code b (2k^2 + 1) + a.  The predicate sees a pair only through
    (delta_a, delta_b), so a slope gap d = -delta_b can hold a crossing only
    if it holds for the integer delta_a nearest 2 eps d: that one minimizes
    the exact |delta_a - 2 eps d|, and rounding, monotone and odd, keeps it
    smallest after rounding too.  The gaps 1 .. 2k are tested that way at
    once, with the predicate as written.  For each live gap d, every key of
    slope b <= 2k - d looks up, by one search over the codes, the integer
    a-window of slope b + d that can hold its partners, widened by one on
    each side and clipped to that slope's codes, and only those candidates
    are tested with the predicate.  Neither the gap test nor the window
    decides a hit, so the result is the one an all-pairs scan gives.  Time
    O(L log L) plus one range search per key at a live gap, which near an
    irrational eps is a handful of gaps and at eps = 1/2 every gap (O(k L
    log L)); memory O(L + reported crossings), never the O(L^2) pair
    product.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 0:
        raise ValueError(f"k must be a non-negative integer, got {k!r}")
    if k > K_MAX:
        raise ValueError(f"k = {k} is above the supported depth k <= {K_MAX}")
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie strictly inside (0, 1)")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if not math.isfinite(tol):
        raise ValueError("tol must be finite")
    k = int(k)
    _, _, a_int, b_int = _keys(k)
    span = 2 * k * k + 1  # above every a: the largest, 2k^2, is at n = m = 0
    code = np.sort(b_int * span + a_int)
    b_int, a_int = np.divmod(code, span)
    a, b = a_int.astype(float), b_int.astype(float)
    # the predicate at each gap's best delta_a; db = -gap as the pairs have it
    db = -np.arange(1.0, 2 * k + 1)
    live = np.abs(np.rint(-2.0 * epsilon * db) + 2.0 * epsilon * db) < 2.0 * tol * np.abs(db)
    pick_i, pick_j = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    for gap in (np.flatnonzero(live) + 1).tolist():
        p = np.arange(np.searchsorted(b_int, 2 * k - gap, "right"))
        # partners of key p at slope b_p + gap have a within 2 tol gap of the centre
        centre = a[p] - 2.0 * epsilon * gap
        half = 2.0 * tol * gap
        group = (b_int[p] + gap) * span
        lo = np.clip(np.floor(centre - half) - 1.0, 0, span - 1).astype(np.int64)
        hi = np.clip(np.ceil(centre + half) + 1.0, 0, span - 1).astype(np.int64)
        first = np.searchsorted(code, group + lo, "left")
        count = np.searchsorted(code, group + hi, "right") - first
        p, q = np.repeat(p, count), _ranges(first, count)
        # the predicate and -da/(2 db) are exact under swapping p and q
        da, db = a[p] - a[q], b[p] - b[q]
        hit = np.abs(da + 2.0 * epsilon * db) < 2.0 * tol * np.abs(db)
        pick_i.append(p[hit])
        pick_j.append(q[hit])
    p, q = np.concatenate(pick_i), np.concatenate(pick_j)
    cross = -(a[p] - a[q]) / (2.0 * (b[p] - b[q]))
    # key_i is the smaller key of a pair by (a, b); the keys of a pair differ
    swap = (a_int[q] < a_int[p]) | ((a_int[q] == a_int[p]) & (b_int[q] < b_int[p]))
    i, j = np.where(swap, q, p), np.where(swap, p, q)
    # sorted by (epsilon_cross, key_i, key_j), which no two pairs share
    order = np.lexsort((b_int[j], a_int[j], b_int[i], a_int[i], cross))
    i, j = i[order], j[order]
    return [
        Crossing(LevelKey(ai, bi), LevelKey(aj, bj), at, Fraction(aj - ai, 2 * (bi - bj)))
        for ai, bi, aj, bj, at in zip(
            a_int[i].tolist(), b_int[i].tolist(), a_int[j].tolist(), b_int[j].tolist(), cross[order].tolist()
        )
    ]
