"""Deterministic CSV / JSON / PGM writers for the command-line surface.

Floats are serialized with repr(), the shortest round-trip form, so a given
sequence of computed values always produces byte-identical files.  All text
outputs use ``\n`` line endings regardless of platform.
"""

from __future__ import annotations

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
    """One tuple of cells per level, in the order of ``_LEVEL_FIELDS``, read from the spectrum's columns."""
    eps = spectrum.parameter.epsilon
    # scaled_energy rounds -((a + 2 eps b) + 2 eps^2), which is the shifted energy minus 2 eps^2, bit for bit
    scaled = spectrum.shifted_energies() - 2.0 * eps * eps
    levels = spectrum._fields(0, scaled.size)
    for i, ((members, label, a, b, energy), scaled_i) in enumerate(zip(levels, scaled.tolist())):
        if only_classification is not None and label != only_classification:
            continue
        yield (i, [n for n, _ in members], [m for _, m in members], len(members), label, a, b, energy, scaled_i)


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


def write_density_csv(path, field: ScalarField2D) -> None:
    """x, y, value rows; x is the outer loop, y the inner one.

    Written one x value at a time, so the text in memory is one grid row.
    """
    xs = [repr(x) for x in field.spec.x_centers().tolist()]
    ys = [repr(y) for y in field.spec.y_centers().tolist()]
    with open(path, "w", newline="\n") as out:
        out.write("x,y,value\n")
        for x, row in zip(xs, field.values):
            out.write("".join(f"{x},{y},{v!r}\n" for y, v in zip(ys, row.tolist())))


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
