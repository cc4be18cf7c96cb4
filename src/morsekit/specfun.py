"""Special-function kernels used by the bound-state machinery.

Everything here is written to survive deep wells (principal parameter of a
few hundred), where Gamma factors and Laguerre values overflow double
precision by thousands of orders of magnitude.  The public entry points are
``log_gamma`` and ``laguerre_signed_log``.  Only numpy and the standard
library are needed.

``laguerre_signed_log`` evaluates one polynomial, or many rows (n_i, alpha_i)
in a single upward pass: the bound-state code needs every mode of a well on
one node set, and one pass over j = 1 .. max n costs K steps where one call
per mode costs K^2 / 2.  Each element sees the same floating-point operations
in the same order either way, so a row equals the single-row call bit for
bit.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

__all__ = [
    "log_gamma",
    "laguerre_signed_log",
]

# Rescaling guard for the signed-log recurrence.  2**512 is exact in binary
# floating point, so dividing by it never loses mantissa bits.
_RESCALE_THRESHOLD = 1.0e250
_RESCALE_FACTOR = 2.0**-512
_RESCALE_LOG = 512.0 * np.log(2.0)

# Elements per block of rows in the row form: the working arrays of one block
# stay in cache, and the recurrence's scratch memory stays bounded however
# many rows are asked for.
_BLOCK = 2**15


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


def log_gamma(x) -> float:
    """ln Gamma(x) for one real number x > 0.

    A pure-Python port of the cephes ``lgam`` kernel restricted to the
    positive axis, where the result is real and the bound-state formulas
    live.  ``x`` is read as ``float(x)``.
    """
    x = float(x)
    if not x > 0.0:
        raise ValueError("log_gamma requires strictly positive arguments")
    return _lgam(x)


def laguerre_signed_log(n, alpha, x) -> tuple[np.ndarray, np.ndarray]:
    """Sign and log of |L_n^alpha(x)|, immune to overflow.

    Runs the upward recurrence
    j L_j = (2j - 1 + alpha - x) L_{j-1} - (j - 1 + alpha) L_{j-2} from
    L_0 = 1, and rescales both running values by the exact factor 2^-512
    whenever the new one exceeds 1e250, accumulating the shed magnitude in
    log space.  A rescale brings any finite value below 1e250, so after every
    step both running values are at most 1e250; the new previous value is
    the old current one, and testing the new value alone is the same as
    testing both.

    Returns ``(sign, log_abs)`` as float arrays of the shape of ``x`` (scalars
    in, scalars out); ``log_abs`` is ``-inf`` where the polynomial vanishes
    exactly.

    ``n`` and ``alpha`` may also be equal-length 1D arrays with ``n``
    ascending.  The result then holds one row per pair (n_i, alpha_i), of
    shape ``(len(n),) + x.shape``, from one pass over j = 1 .. max n in which
    row i stops advancing after step n_i.  Every element of a row sees the
    same operations in the same order, and the same rescales at the same
    steps, as in the call for (n_i, alpha_i) alone, so the two agree bit for
    bit.
    """
    degrees = np.asarray(n)
    alphas = np.asarray(alpha, dtype=float)
    rowwise = degrees.ndim == 1
    if rowwise and (alphas.shape != degrees.shape or np.any(np.diff(degrees) < 0)):
        raise ValueError("row form needs equal-length 1D degrees and alphas, degrees ascending")
    if (degrees < 0).any():
        raise ValueError("polynomial degree must be non-negative")
    if (alphas <= -1.0).any():
        raise ValueError("alpha must exceed -1 for an orthogonal family")
    arr = np.asarray(x, dtype=float)
    flat = arr.reshape(-1)
    degrees, alphas = degrees.reshape(-1), alphas.reshape(-1)
    sign = np.empty((degrees.size, flat.size))
    log_abs = np.empty_like(sign)
    # a block's working arrays (x.size per row) and step coefficients (max n
    # per row) hold at most _BLOCK elements each
    rows = max(1, _BLOCK // max(1, flat.size, int(degrees.max(initial=0))))
    for lo in range(0, degrees.size, rows):
        block = slice(lo, lo + rows)
        _recur(degrees[block].tolist(), alphas[block, None], flat, sign[block], log_abs[block])
    if rowwise:
        return sign.reshape(degrees.shape + arr.shape), log_abs.reshape(degrees.shape + arr.shape)
    if arr.ndim == 0:
        return float(sign[0, 0]), float(log_abs[0, 0])
    return sign[0].reshape(arr.shape), log_abs[0].reshape(arr.shape)


def _recur(degrees: list, alpha: np.ndarray, x: np.ndarray, sign: np.ndarray, log_abs: np.ndarray) -> None:
    """One block of rows: ascending ``degrees``, ``alpha`` a column, 1D ``x``; fills ``sign`` and ``log_abs``.

    The working arrays hold the unfinished rows only.  Once row i reaches
    degree n_i its value and shed log move to the outputs, and every working
    array drops its leading finished rows, so later steps skip them.
    """
    shape = (len(degrees), x.size)
    cur, prev, new, tmp = np.ones(shape), np.zeros(shape), np.empty(shape), np.empty(shape)
    shift = np.zeros(shape)
    # the step coefficients 2j - 1 + alpha and j - 1 + alpha, one (rows, 1) slab per j
    steps = np.arange(1.0, degrees[-1] + 1.0)[:, None, None]
    grow, keep = 2.0 * steps - 1.0 + alpha, steps - 1.0 + alpha
    done = 0
    for j in range(1, degrees[-1] + 2):
        if degrees[done] < j:  # rows of degree j - 1 are complete
            stop = bisect.bisect_left(degrees, j, done)
            sign[done:stop] = cur[: stop - done]
            log_abs[done:stop] = shift[: stop - done]
            cur, prev, new, tmp, shift = (a[stop - done :] for a in (cur, prev, new, tmp, shift))
            grow, keep = grow[:, stop - done :], keep[:, stop - done :]
            done = stop
            if done == len(degrees):
                break
        np.subtract(grow[j - 1], x, out=tmp)
        np.multiply(tmp, cur, out=tmp)
        np.multiply(keep[j - 1], prev, out=new)
        np.subtract(tmp, new, out=new)
        np.divide(new, j, out=new)
        # Only the new value can cross the threshold (see the docstring).  A
        # NaN max also fails "<=", and the elementwise test then picks out
        # exactly the elements above the threshold, as NaN never is.
        if not np.abs(new, out=tmp).max(initial=0.0) <= _RESCALE_THRESHOLD:
            big = tmp > _RESCALE_THRESHOLD
            np.multiply(new, _RESCALE_FACTOR, out=new, where=big)
            np.multiply(cur, _RESCALE_FACTOR, out=cur, where=big)
            np.add(shift, _RESCALE_LOG, out=shift, where=big)
        cur, prev, new = new, cur, prev
    with np.errstate(divide="ignore"):
        log_abs += np.log(np.abs(sign))
    np.sign(sign, out=sign)
