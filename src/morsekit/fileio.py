"""Deterministic CSV / JSON / PGM writers for the command-line surface.

Floats are written as their repr() text, the shortest round-trip form, so a
given sequence of computed values always produces byte-identical files.  The
density CSV holds that text too, but builds it block by block: the digits of
values repr() writes in exponent form come from exact integer arithmetic
(``_shortest_digits``), and tests/test_fileio.py::TestDensityCsvMatchesRepr
pins the file to repr() byte for byte.  All text outputs use ``\n`` line
endings regardless of platform.
"""

from __future__ import annotations

import functools
import json
import re
from pathlib import Path

import numpy as np

from .coherent import CoherentState, SweepPoint
from .spectrum import ACCIDENTAL, DOUBLET, SINGLET, OrderedSpectrum
from .states import MixingCoefficients, ScalarField2D

__all__ = [
    "write_spectrum_csv",
    "write_spectrum_json",
    "write_density_csv",
    "write_density_pgm",
    "write_density_meta",
    "write_sweep_csv",
    "write_coherent_json",
]

_PGM_MAX = 65535
_PGM_LINE_WIDTH = 68
# Greedy fill of a space-joined raster row: each match is the longest run of
# whole tokens that fits the width (a token has at most 5 digits).
_PGM_LINE = re.compile(rf"(\S.{{0,{_PGM_LINE_WIDTH - 1}}})(?: |$)")


def _complex_fields(value: complex) -> dict:
    value = complex(value)
    return {"im": value.imag, "re": value.real}


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(path, header, lines) -> None:
    """Header line, then one line per row, each already formatted."""
    Path(path).write_text("\n".join([",".join(header), *lines]) + "\n")


_LEVEL_FIELDS = ("index", "n_list", "m_list", "multiplicity", "classification", "a", "b",
                 "shifted_energy", "scaled_energy")


def _level_rows(spectrum: OrderedSpectrum, only_classification: str | None = None):
    """One tuple of cells per level, in the order of ``_LEVEL_FIELDS``, from the spectrum's level rows."""
    eps = spectrum.parameter.epsilon
    for i, (n_list, m_list, label, a, b, shifted) in enumerate(spectrum._fields(0, spectrum.xi + 1)):
        if only_classification is None or label == only_classification:
            # scaled_energy's own arithmetic: the shifted energy minus 2 eps^2
            yield i, n_list, m_list, len(n_list), label, a, b, shifted, shifted - 2.0 * eps * eps


def _level_csv(index, n_list, m_list, multiplicity, classification, a, b, shifted, scaled) -> str:
    """One level as a CSV line: ints with ``str``, floats with ``float.__repr__``, lists joined with ';'."""
    return (
        f"{index},{';'.join(map(str, n_list))},{';'.join(map(str, m_list))},{multiplicity},"
        f"{classification},{a},{b},{shifted!r},{scaled!r}"
    )


def write_spectrum_csv(path, spectrum: OrderedSpectrum, only_classification: str | None = None) -> None:
    """Level table, one row per mu index; optionally filtered by classification."""
    _write_csv(path, _LEVEL_FIELDS, (_level_csv(*row) for row in _level_rows(spectrum, only_classification)))


_JSON_LABELS = {label: json.dumps(label) for label in (SINGLET, DOUBLET, ACCIDENTAL)}


def _level_json(index, n_list, m_list, multiplicity, classification, a, b, shifted, scaled) -> str:
    """One level as ``json.dumps(sort_keys=True, indent=1)`` writes it inside the document's level list.

    A float is written with ``float.__repr__``, json's own text for a finite
    double, and a classification with its ``json.dumps`` text.
    """
    n_text = ",\n    ".join(map(str, n_list))
    m_text = ",\n    ".join(map(str, m_list))
    return (
        f'  {{\n   "a": {a},\n   "b": {b},\n   "classification": {_JSON_LABELS[classification]},\n'
        f'   "index": {index},\n   "m_list": [\n    {m_text}\n   ],\n   "multiplicity": {multiplicity},\n'
        f'   "n_list": [\n    {n_text}\n   ],\n   "scaled_energy": {scaled!r},\n'
        f'   "shifted_energy": {shifted!r}\n  }}'
    )


def write_spectrum_json(path, spectrum: OrderedSpectrum, only_classification: str | None = None) -> None:
    """JSON mirror of the CSV table plus the parameter block.

    The parameter block goes through ``json.dumps`` with a null placeholder
    for ``"levels"``, which the levels' text then replaces.
    """
    param = spectrum.parameter
    doc = {
        "epsilon": param.epsilon,
        "k": param.k,
        "levels": None,
        "mode": param.mode,
        "p_text": param.p_text,
        "xi": spectrum.xi,
    }
    if param.ratio is not None:
        doc["epsilon_ratio"] = [param.ratio.numerator, param.ratio.denominator]
    levels = ",\n".join(_level_json(*row) for row in _level_rows(spectrum, only_classification))
    text = json.dumps(doc, sort_keys=True, indent=1)
    text = text.replace('"levels": null', f'"levels": [\n{levels}\n ]' if levels else '"levels": []', 1)
    Path(path).write_text(text + "\n")


def _dump_json(path, doc) -> None:
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


_BLOCK_CELLS = 4096
# floor(q log10 2) over the binary exponents q = -1074 .. 971 of normal doubles
_K_MIN, _K_MAX = -324, 292
_LOW32, _LOW63 = np.uint64(2**32 - 1), np.uint64(2**63 - 1)
_HIDDEN_BIT = np.uint64(2**52)
_POW10 = np.array([10**j for j in range(18)], dtype=np.uint64)
_EXP_WIDTH = 24  # '-', 17 digits, '.', 'e', sign and three exponent digits


def _text_rows(strings: list) -> np.ndarray:
    """ASCII strings as the rows of a NUL-padded uint8 matrix."""
    text = np.array(strings, dtype=bytes)
    return text.view(np.uint8).reshape(len(strings), text.itemsize)


@functools.cache
def _pow10_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schubfach's g = g1 2^63 + g0 = floor(10^-k 2^-r) + 1 and r + 125 = floor(log2 10^-k), per k.

    r puts g in [2^125, 2^126).  floor(log2 10^e) is the bit length of 10^e
    minus one for e >= 0, and minus the bit length of 10^-e for e < 0, where
    10^-e is no power of two.
    """
    g1, g0, log2 = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        power = 10 ** abs(k)
        if k <= 0:
            top = power.bit_length() - 1
            g = (power >> (top - 125) if top >= 125 else power << (125 - top)) + 1
        else:
            top = -power.bit_length()
            g = (1 << (125 - top)) // power + 1
        g1.append(g >> 63)
        g0.append(g & (2**63 - 1))
        log2.append(top)
    return np.array(g1, dtype=np.uint64), np.array(g0, dtype=np.uint64), np.array(log2, dtype=np.int64)


def _mul_high(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of the 128-bit products a b of uint64 arrays, from 32-bit halves."""
    a1, a0, b1, b0 = a >> 32, a & _LOW32, b >> 32, b & _LOW32
    low, cross1, cross2 = a0 * b0, a0 * b1, a1 * b0
    middle = (low >> 32) + (cross1 & _LOW32) + (cross2 & _LOW32)
    return a1 * b1 + (cross1 >> 32) + (cross2 >> 32) + (middle >> 32)


def _round_odd(g1: np.ndarray, g0: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """floor(g cp / 2^127), with its low bit set when the division is inexact (Schubfach's rop)."""
    z = ((g1 * cp) >> 1) + _mul_high(g0, cp)
    return (_mul_high(g1, cp) + (z >> 63)) | (((z & _LOW63) + _LOW63) >> 63)


def _shortest_digits(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, e) with f 10^e the shortest decimal that rounds back to each normal double, the closest if several.

    This is Schubfach (R. Giulietti, "The Schubfach way to render doubles",
    2020) in uint64 arithmetic, with f < 10^17; the sign bit is ignored.
    Ties go to the even f, as in ``repr``.
    """
    g1_table, g0_table, log2_table = _pow10_table()
    t = bits & (_HIDDEN_BIT - np.uint64(1))
    c = t | _HIDDEN_BIT
    q = (bits >> 52 & np.uint64(0x7FF)).astype(np.int64) - 1075
    # a power of two above 2^-1022 has the closer lower neighbour: its interval is asymmetric
    regular = (t != 0) | (q == -1074)
    k = (q * 661_971_961_083 - np.where(regular, 0, 274_743_187_321)) >> 41
    row = k - _K_MIN
    g1, g0 = g1_table[row], g0_table[row]
    shift = (q + log2_table[row] + 2).astype(np.uint64)
    cb = c << np.uint64(2)
    vb = _round_odd(g1, g0, cb << shift)
    vbl = _round_odd(g1, g0, (cb - np.where(regular, np.uint64(2), np.uint64(1))) << shift)
    vbr = _round_odd(g1, g0, (cb + np.uint64(2)) << shift)
    # an odd c leaves its interval's ends out
    vbl += c & np.uint64(1)
    vbr -= c & np.uint64(1)
    s = vb >> np.uint64(2)
    # one digit fewer: at most one of s' 10 and s' 10 + 10 lies in the interval
    shorter = s // np.uint64(10) * np.uint64(10)
    shorter_low = vbl <= shorter << np.uint64(2)
    shorter_high = (shorter + np.uint64(10)) << np.uint64(2) <= vbr
    # full length: s or s + 1, the one in the interval, else the closer, else the even one
    low, high = vbl <= s << np.uint64(2), (s + np.uint64(1)) << np.uint64(2) <= vbr
    middle = (s << np.uint64(2)) + np.uint64(2)
    take_low = np.where(low != high, low, (vb < middle) | ((vb == middle) & (s & np.uint64(1) == 0)))
    f = np.where(take_low, s, s + np.uint64(1))
    use_shorter = (shorter_low != shorter_high) & (s >= np.uint64(100))
    f[use_shorter] = np.where(shorter_low, shorter, shorter + np.uint64(10))[use_shorter]
    return f, k


def _exponent_text(values: np.ndarray) -> np.ndarray:
    """``repr`` of normal doubles, in its exponent form, as NUL-padded rows of _EXP_WIDTH bytes."""
    f, e = _shortest_digits(values.view(np.uint64))
    length = np.searchsorted(_POW10, f, side="right")
    exponent = e + length - 1
    # built column by column: text[j] is byte j of every value
    text = np.zeros((_EXP_WIDTH, values.size), dtype=np.uint8)
    # f's digits followed by zeros, 17 in all, at bytes 1 and 3..18
    rest = f * _POW10[17 - length]
    for j in [*range(18, 2, -1), 1]:
        tens = rest // np.uint64(10)
        text[j] = rest - tens * np.uint64(10)
        rest = tens
    # the trailing zeros after the first digit become NULs, and so does the point if all are
    last = np.where(text[3:19] != 0, np.arange(3, 19, dtype=np.uint8)[:, None], np.uint8(2)).max(axis=0)
    text[3:19] += ord("0")
    text[3:19] *= np.arange(3, 19, dtype=np.uint8)[:, None] <= last
    text[1] += ord("0")
    text[2] = np.where(last > 2, ord("."), 0)
    text[0] = np.where(np.signbit(values), ord("-"), 0)
    text[19] = ord("e")
    text[20] = np.where(exponent < 0, ord("-"), ord("+"))
    size = np.abs(exponent)
    text[21] = np.where(size >= 100, size // 100 + ord("0"), 0)
    text[22] = size // 10 % 10 + ord("0")
    text[23] = size % 10 + ord("0")
    return text.T


def _float_text(values: np.ndarray) -> np.ndarray:
    """``repr`` of each double, as the rows of a NUL-padded uint8 matrix.

    Normal doubles that ``repr`` writes in exponent form (|v| < 1e-4 or
    |v| >= 1e16) take their digits from ``_shortest_digits``; every other
    value goes through ``repr`` itself.
    """
    size = np.abs(values)
    exact = ((size < 1e-4) | (size >= 1e16)) & (size >= np.finfo(float).tiny) & np.isfinite(size)
    other = _text_rows([repr(v) for v in values[~exact].tolist()])
    text = np.zeros((values.size, max(_EXP_WIDTH, other.shape[1])), dtype=np.uint8)
    text[exact, :_EXP_WIDTH] = _exponent_text(values[exact])
    text[~exact, : other.shape[1]] = other
    return text


def write_density_csv(path, field: ScalarField2D) -> None:
    """x, y, value rows; x is the outer loop, y the inner one.

    Every number is its ``repr`` text, byte for byte.  Each block of
    _BLOCK_CELLS cells is laid out as one NUL-padded byte row per line, whose
    non-NUL bytes are the block's text, so the text in memory is one block.
    """
    xs = _text_rows([repr(x) for x in field.spec.x_centers().tolist()])
    ys = _text_rows([repr(y) for y in field.spec.y_centers().tolist()])
    x_end = xs.shape[1]
    y_end = x_end + 1 + ys.shape[1]
    values = field.values.reshape(-1)
    with open(path, "wb") as out:
        out.write(b"x,y,value\n")
        for start in range(0, values.size, _BLOCK_CELLS):
            cells = np.arange(start, min(start + _BLOCK_CELLS, values.size))
            text = _float_text(values[cells])
            lines = np.zeros((cells.size, y_end + text.shape[1] + 2), dtype=np.uint8)
            lines[:, :x_end] = xs[cells // ys.shape[0]]
            lines[:, x_end + 1 : y_end] = ys[cells % ys.shape[0]]
            lines[:, [x_end, y_end]] = ord(",")
            lines[:, y_end + 1 : -1] = text
            lines[:, -1] = ord("\n")
            out.write(lines.tobytes().translate(None, b"\0"))


def write_density_pgm(path, field: ScalarField2D) -> None:
    """ASCII P2 graymap scaled to 0..65535 by the field maximum.

    Raster rows run top to bottom over descending y (so the image is
    oriented like a plot); columns run over ascending x.
    """
    values = field.values
    peak = float(values.max())
    if peak > 0.0:
        pixels = np.rint(values / peak * _PGM_MAX).astype(int)
    else:
        pixels = np.zeros(values.shape, dtype=int)
    lines = ["P2", f"{field.spec.nx} {field.spec.ny}", str(_PGM_MAX)]
    for row in pixels[:, ::-1].T.tolist():
        lines += _PGM_LINE.findall(" ".join(map(str, row)))
    Path(path).write_text("\n".join(lines) + "\n")


def write_density_meta(
    path,
    field: ScalarField2D,
    p_text: str,
    state_label: str,
    coeffs: MixingCoefficients | None = None,
    psi: complex | None = None,
) -> None:
    """Sidecar describing what the density files contain and how to read them."""
    doc = {
        "grid": {
            "nx": field.spec.nx,
            "ny": field.spec.ny,
            "x_max": field.spec.x_max,
            "x_min": field.spec.x_min,
            "y_max": field.spec.y_max,
            "y_min": field.spec.y_min,
        },
        "p_text": p_text,
        "pgm_orientation": "rows top-to-bottom are descending y; columns are ascending x",
        "riemann_sum": field.riemann_sum(),
        "state": state_label,
        "value_max": float(field.values.max()),
    }
    if coeffs is not None:
        doc["delta"] = _complex_fields(coeffs.delta)
        doc["gamma"] = _complex_fields(coeffs.gamma)
    if psi is not None:
        doc["psi"] = _complex_fields(psi)
    _dump_json(path, doc)


def _fmt_psi(psi: complex) -> str:
    psi = complex(psi)
    if psi.imag == 0.0:
        return repr(psi.real)
    return f"{psi.real!r}{psi.imag:+}j"


def write_sweep_csv(path, points: list[SweepPoint]) -> None:
    """Uncertainty sweep table: one x row and one y row per amplitude."""
    rows = ([_fmt_psi(point.psi), report.mode, report.var_q, report.var_p, report.product]
            for point in points for report in (point.x, point.y))
    _write_csv(path, ("psi", "mode", "var_q", "var_p", "product"), (",".join(map(_cell, row)) for row in rows))


def write_coherent_json(path, state: CoherentState, bg_residual_value: float) -> None:
    """Coefficient dump: magnitudes and phases plus the truncation residual.

    The magnitudes are the scalar ``abs`` of each coefficient: numpy's array
    ``np.abs`` differs from it by one ulp on about 1% of values.
    """
    basis = state.basis
    doc = {
        "bg_residual": bg_residual_value,
        "coefficient_magnitudes": list(map(abs, state.coefficients.tolist())),
        "coefficient_phases": np.angle(state.coefficients).tolist(),
        "delta": _complex_fields(basis.coeffs.delta),
        "gamma": _complex_fields(basis.coeffs.gamma),
        "log_normalization": state.log_normalization,
        "p_text": basis.parameter.p_text,
        "psi": _complex_fields(state.psi),
        "xi": state.xi,
    }
    _dump_json(path, doc)
