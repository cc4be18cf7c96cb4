"""Special-function kernels used by the bound-state machinery.

Everything here is written to survive deep wells (principal parameter of a
few hundred), where Gamma factors and Laguerre values overflow double
precision by thousands of orders of magnitude.  The public entry points are
``log_gamma``, ``laguerre``, ``laguerre_derivative`` and
``laguerre_signed_log``.  Only numpy and the standard library are needed.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "log_gamma",
    "laguerre",
    "laguerre_derivative",
    "laguerre_signed_log",
]

# Rescaling guard for the signed-log recurrence.  2**512 is exact in binary
# floating point, so dividing by it never loses mantissa bits.
_RESCALE_THRESHOLD = 1.0e250
_RESCALE_FACTOR = 2.0**-512
_RESCALE_LOG = 512.0 * np.log(2.0)


def _prepare(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


# Coefficients of the cephes ``lgam`` kernel (S. L. Moshier, Cephes Math
# Library): B/C give ln Gamma(2 + x) on [0, 1) as x B(x)/C(x), A is the
# Stirling correction series in 1/x^2.
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LGAM_B = (
    -1.37825152569120859100e3,
    -3.88016315134637840924e4,
    -3.31612992738871184744e5,
    -1.16237097492762307383e6,
    -1.72173700820839662146e6,
    -8.53555664245765465627e5,
)
_LGAM_C = (  # monic: the leading 1.0 is implicit
    -3.51815701436523470549e2,
    -1.70642106651881159223e4,
    -2.20528590553854454839e5,
    -1.13933444367982507207e6,
    -2.53252307177582951285e6,
    -2.01889141433532773231e6,
)
_LS2PI = 0.91893853320467274178  # ln sqrt(2 pi)
_MAXLGM = 2.556348e305


def _polevl(x: float, coeffs, acc: float = 0.0) -> float:
    # Horner's rule; acc = 1.0 gives the monic form (cephes p1evl).
    for c in coeffs:
        acc = acc * x + c
    return acc


def _lgam(x: float) -> float:
    # Operation for operation the cephes kernel, so results match it bit
    # for bit (math.lgamma differs by a few ulp on many arguments).
    if not math.isfinite(x):
        return x
    if x < 13.0:
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x += p - 2.0
        return math.log(z) + x * _polevl(x, _LGAM_B) / _polevl(x, _LGAM_C, 1.0)
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        p = ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p + 0.0833333333333333333333) / x
    else:
        p = _polevl(p, _LGAM_A) / x
    return q + p


def log_gamma(x):
    """ln Gamma(x) for real x > 0, scalar or array.

    A pure-Python port of the cephes ``lgam`` kernel restricted to the
    positive axis, where the result is real and the bound-state formulas
    live.
    """
    arr, scalar = _prepare(x)
    if np.any(~(arr > 0.0)):
        raise ValueError("log_gamma requires strictly positive arguments")
    if scalar:
        return _lgam(float(arr))
    return np.array([_lgam(v) for v in arr.ravel().tolist()]).reshape(arr.shape)


def laguerre(n: int, alpha: float, x):
    """Generalized Laguerre polynomial L_n^alpha(x) by the stable upward recurrence.

    j L_j = (2j - 1 + alpha - x) L_{j-1} - (j - 1 + alpha) L_{j-2},
    seeded with L_0 = 1 and L_1 = 1 + alpha - x.  Values can overflow for
    large n and x; use ``laguerre_signed_log`` when that matters.
    """
    if n < 0:
        raise ValueError("polynomial degree must be non-negative")
    if alpha <= -1.0:
        raise ValueError("alpha must exceed -1 for an orthogonal family")
    arr, scalar = _prepare(x)
    prev = np.zeros_like(arr)
    cur = np.ones_like(arr)
    for j in range(1, n + 1):
        prev, cur = cur, ((2.0 * j - 1.0 + alpha - arr) * cur - (j - 1.0 + alpha) * prev) / j
    return float(cur) if scalar else cur


def laguerre_derivative(n: int, alpha: float, x):
    """d/dx L_n^alpha(x) = -L_{n-1}^{alpha+1}(x), with the n = 0 case zero."""
    arr, scalar = _prepare(x)
    if n == 0:
        out = np.zeros_like(arr)
        return float(out) if scalar else out
    out = -laguerre(n - 1, alpha + 1.0, arr)
    return float(out) if scalar else out


def laguerre_signed_log(n: int, alpha: float, x) -> tuple[np.ndarray, np.ndarray]:
    """Sign and log of |L_n^alpha(x)|, immune to overflow.

    Runs the same three-term recurrence as ``laguerre`` but rescales both
    running values by an exact power of two whenever they threaten the top
    of the double range, accumulating the shed magnitude in log space.

    Returns ``(sign, log_abs)`` as float arrays (scalars in, scalars out);
    ``log_abs`` is ``-inf`` where the polynomial vanishes exactly.
    """
    if n < 0:
        raise ValueError("polynomial degree must be non-negative")
    if alpha <= -1.0:
        raise ValueError("alpha must exceed -1 for an orthogonal family")
    arr, scalar = _prepare(x)
    prev = np.zeros_like(arr)
    cur = np.ones_like(arr)
    shift = np.zeros_like(arr)
    for j in range(1, n + 1):
        prev, cur = cur, ((2.0 * j - 1.0 + alpha - arr) * cur - (j - 1.0 + alpha) * prev) / j
        big = np.maximum(np.abs(cur), np.abs(prev)) > _RESCALE_THRESHOLD
        if np.any(big):
            cur = np.where(big, cur * _RESCALE_FACTOR, cur)
            prev = np.where(big, prev * _RESCALE_FACTOR, prev)
            shift = np.where(big, shift + _RESCALE_LOG, shift)
    sign = np.sign(cur)
    with np.errstate(divide="ignore"):
        log_abs = np.log(np.abs(cur)) + shift
    if scalar:
        return float(sign), float(log_abs)
    return sign, log_abs
