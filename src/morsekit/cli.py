"""Command-line surface: spectrum, degeneracy, density and uncertainty runs.

Exit codes: 0 success, 2 usage or parameter problem, 3 ordering ambiguity,
4 quadrature accuracy.  Library calls go through their modules
(``spectrum.order_spectrum``), so a replaced module attribute is the one called.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import coherent, errors, fileio, spectrum, states

_FORMATS = ("csv", "json", "pgm")

# Largest density grid and sweep the CLI accepts, measured at 3pi on a 2-vCPU
# guest: a 1000x1000 coherent density takes 1.6 s and 288 MB and writes 62 MB;
# a 10^4-point sweep takes 2.4 s and 47 MB.  Memory grows linearly in both.
MAX_GRID_CELLS = 1000 * 1000
MAX_SWEEP_POINTS = 10_000

_PI_PATTERN = re.compile(r"^([0-9]*\.?[0-9]*)\s*pi$", re.IGNORECASE)


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="morsekit",
        description="Bound-state spectra, level states and coherent states of the 2D Morse well.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--p", help="principal parameter as decimal text, or a pi multiple like '3pi'")
        p.add_argument(
            "--mode",
            help="arithmetic declaration: integer | irrational | rational[:R/Q] "
            "(pi-style --p implies irrational)",
        )
        p.add_argument("--out", default=".", help="output directory (default '.')")
        p.add_argument("--format", help="comma-separated subset of csv,json,pgm (default all)")
        p.add_argument("--config", help="JSON file with defaults for any flag; flags win")

    def add_state(p: argparse.ArgumentParser) -> None:
        p.add_argument("--gamma", help="doublet coefficient, 're,im' or 'mag@phase' or a real")
        p.add_argument("--delta", help="doublet coefficient, same forms as --gamma")

    def add_grid(p: argparse.ArgumentParser) -> None:
        p.add_argument("--grid", default="400x400", help="grid size NXxNY (default 400x400)")
        p.add_argument("--xrange", help="x interval LO:HI (default: scanned support box)")
        p.add_argument("--yrange", help="y interval LO:HI (default: scanned support box)")

    p_spec = sub.add_parser("spectrum", help="ordered level table")
    add_common(p_spec)
    p_spec.set_defaults(func=cmd_spectrum)

    p_deg = sub.add_parser("degeneracy", help="degeneracy census and accidental levels")
    add_common(p_deg)
    p_deg.set_defaults(func=cmd_degeneracy)

    p_den = sub.add_parser("density", help="probability density of a level or coherent state")
    add_common(p_den)
    add_state(p_den)
    add_grid(p_den)
    p_den.add_argument("--mu", help="level index of the state to render")
    p_den.add_argument("--psi", help="coherent amplitude, 're,im' or 'mag@phase' or a real")
    p_den.set_defaults(func=cmd_density)

    p_unc = sub.add_parser("uncertainty", help="position/momentum uncertainty sweep")
    add_common(p_unc)
    add_state(p_unc)
    p_unc.add_argument("--psi-start", default=0.1, help="first amplitude (default 0.1)")
    p_unc.add_argument("--psi-stop", default=5.0, help="last amplitude (default 5.0)")
    p_unc.add_argument("--psi-step", default=0.1, help="amplitude step (default 0.1)")
    p_unc.set_defaults(func=cmd_uncertainty)

    return parser, sub.choices


def _load_config(path, commands) -> dict:
    """Config-file values to use as parser defaults; null values fall back to the built-ins.

    The accepted keys are the flag destinations of the subcommand parsers in ``commands``.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config file {path}: {exc}")
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    keys = {dest for command in commands.values() for dest in vars(command.parse_args([]))}
    unknown = sorted(set(doc) - (keys - {"config", "func"}))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return {key: value for key, value in doc.items() if value is not None}


def _parse_principal(p_raw, mode_raw):
    """The PrincipalParameter of --p and --mode; a ratio after the mode goes to ``decompose`` as text."""
    if p_raw is None:
        raise ValueError("--p is required")
    p_text = str(p_raw).strip()
    mode, ratio = None, []
    if mode_raw is not None:
        mode, *ratio = re.split(r"[:\s]+", str(mode_raw).strip().lower())
        if len(ratio) > 1:
            raise ValueError(f"unexpected mode arguments in {mode_raw!r}")

    match = _PI_PATTERN.match(p_text)
    if match:
        multiple = _parsed(float, match.group(1), "--p") if match.group(1) else 1.0
        p_text = spectrum.pi_multiple_text(multiple)
        if mode is None:
            mode = spectrum.IRRATIONAL
        elif mode != spectrum.IRRATIONAL:
            raise ValueError("pi-multiple p is irrational; --mode must agree")
    if mode is None:
        raise ValueError("--mode is required (integer | irrational | rational[:R/Q])")
    return spectrum.decompose(p_text, mode, *ratio)


def _parsed(convert, raw, flag: str):
    """convert(raw), whose ValueError or TypeError becomes one that names the flag and the raw value.

    ``convert`` must return a finished value, not a lazy iterator, so that it fails here.
    """
    try:
        return convert(raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"cannot parse {flag} value {raw!r}: {exc}")


def _complex(text: str) -> complex:
    if "@" in text:
        mag, _, phase = text.partition("@")
        return float(mag) * cmath.exp(1j * float(phase))
    if "," in text:
        re_part, _, im_part = text.partition(",")
        return complex(float(re_part), float(im_part))
    return complex(float(text), 0.0)


def _parse_complex(raw, flag: str) -> complex:
    return _parsed(_complex, str(raw).strip(), flag)


def _parse_mixing(args):
    """The doublet mixing pair of --gamma and --delta, or None for ``build_mu_basis``'s default."""
    if args.gamma is None and args.delta is None:
        return None
    if args.gamma is None or args.delta is None:
        raise ValueError("--gamma and --delta must be supplied together")
    return states.MixingCoefficients.normalized(
        _parse_complex(args.gamma, "--gamma"), _parse_complex(args.delta, "--delta")
    )


def _parse_grid(args, basis):
    grid_text = str(args.grid)
    match = re.match(r"^(\d+)[xX](\d+)$", grid_text.strip())
    if not match:
        raise ValueError(f"--grid must look like 400x400, got {grid_text!r}")
    nx, ny = int(match.group(1)), int(match.group(2))
    if nx * ny > MAX_GRID_CELLS:
        raise ValueError(f"--grid {nx}x{ny} has {nx * ny} cells; at most {MAX_GRID_CELLS} are supported")

    def parse_range(text, flag):
        if text is None:
            return None
        parts = str(text).split(":")
        if len(parts) != 2:
            raise ValueError(f"{flag} must look like LO:HI, got {text!r}")
        lo, hi = _parsed(lambda raw: [float(part) for part in str(raw).split(":")], text, flag)
        if not hi > lo:
            raise ValueError(f"{flag} interval is empty: {text!r}")
        return lo, hi

    x_range = parse_range(args.xrange, "--xrange")
    y_range = parse_range(args.yrange, "--yrange")
    if x_range is None or y_range is None:
        lo, hi = basis.support_box()
        x_range = x_range or (lo, hi)
        y_range = y_range or (lo, hi)
    return states.GridSpec(x_range[0], x_range[1], y_range[0], y_range[1], nx, ny)


def _parse_formats(text) -> set[str]:
    if text is None:
        return set(_FORMATS)
    chosen = {part.strip().lower() for part in str(text).split(",") if part.strip()}
    unknown = chosen - set(_FORMATS)
    if unknown:
        raise ValueError(f"unknown formats: {', '.join(sorted(unknown))}")
    if not chosen:
        raise ValueError("--format selected nothing")
    return chosen


def _setup(args, mixing: bool = False):
    """Principal parameter, mixing pair (or None), output directory and formats, in that order.

    The output directory is only checked here: its nearest existing ancestor
    (itself included) must be a directory.  ``_write`` creates it, so a run
    refused later leaves nothing behind.
    """
    param = _parse_principal(args.p, args.mode)
    coeffs = _parse_mixing(args) if mixing else None
    out = Path(str(args.out))
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        raise ValueError(f"--out {str(args.out)!r}: {str(existing)!r} exists and is not a directory")
    return param, coeffs, out, _parse_formats(args.format)


def _write(out: Path, formats, outputs, summary: str | None = None) -> None:
    """Call writer(out / name, *args) for each (format, name, writer, *args) whose format was chosen.

    The output directory is created before the first writer runs.  ``summary``
    is printed once the files are written, then the names written.
    """
    written = []
    for fmt, name, writer, *writer_args in outputs:
        if fmt in formats:
            out.mkdir(parents=True, exist_ok=True)
            writer(out / name, *writer_args)
            written.append(name)
    if summary is not None:
        print(summary)
    if written:
        print("wrote " + " ".join(written))


def cmd_spectrum(args) -> int:
    param, _, out, formats = _setup(args)
    ordered = spectrum.order_spectrum(param)
    counts = f"levels={len(ordered.levels)} states={param.state_count()}"
    outputs = [
        ("csv", "spectrum.csv", fileio.write_spectrum_csv, ordered),
        ("json", "spectrum.json", fileio.write_spectrum_json, ordered),
    ]
    summary = f"k={param.k} epsilon={param.epsilon!r} mode={param.mode} xi={ordered.xi} {counts}"
    _write(out, formats, outputs, summary)
    return 0


def cmd_degeneracy(args) -> int:
    param, _, out, formats = _setup(args)
    ordered = spectrum.order_spectrum(param)
    census = spectrum.count_summary(ordered.levels)
    print(f"{census.total_states} {census.swap_reduced} {census.distinct} {census.accidental}")
    outputs = [
        ("csv", "accidental_levels.csv", fileio.write_spectrum_csv, ordered, "accidental"),
        ("json", "accidental_levels.json", fileio.write_spectrum_json, ordered, "accidental"),
    ]
    _write(out, formats, outputs)
    return 0


def cmd_density(args) -> int:
    param, coeffs, out, formats = _setup(args, mixing=True)
    if (args.mu is None) == (args.psi is None):
        raise ValueError("pick exactly one of --mu and --psi")
    ordered = spectrum.order_spectrum(param)
    mu_basis = states.build_mu_basis(ordered, coeffs)
    basis = states.MorseBasis(param)
    grid = _parse_grid(args, basis)

    psi = None
    if args.mu is not None:
        index = _parsed(lambda raw: int(str(raw)), args.mu, "--mu")
        if not 0 <= index <= ordered.xi:
            raise ValueError(f"--mu must lie in 0..{ordered.xi}, got {index}")
        state = mu_basis.states[index]
        label = f"mu_{index}"
    else:
        psi = _parse_complex(args.psi, "--psi")
        ladder = coherent.ladder_f(ordered)
        state = coherent.coherent_coefficients(psi, ladder, mu_basis)
        label = "coherent"

    field = states.density_grid(basis, state, grid)
    outputs = [
        ("csv", "density.csv", fileio.write_density_csv, field),
        ("pgm", "density.pgm", fileio.write_density_pgm, field),
        ("json", "density_meta.json", fileio.write_density_meta, field, param.p_text, label, mu_basis.coeffs, psi),
    ]
    if psi is not None:
        residual = coherent.bg_residual(state, ladder)
        outputs.append(("json", "coherent.json", fileio.write_coherent_json, state, residual))
    _write(out, formats, outputs, f"state={label} value_max={float(field.values.max())!r}")
    return 0


def cmd_uncertainty(args) -> int:
    param, coeffs, out, formats = _setup(args, mixing=True)

    def parse_float(key):
        raw = getattr(args, key)
        flag = f"--{key.replace('_', '-')}"
        value = _parsed(float, raw, flag)
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {raw!r}")
        return value

    start = parse_float("psi_start")
    stop = parse_float("psi_stop")
    step = parse_float("psi_step")
    if step <= 0 or stop < start:
        raise ValueError("need psi-step > 0 and psi-stop >= psi-start")
    # the quotient may overflow to inf, which the cap refuses before int() sees it
    span = (stop - start) / step
    if not span + 1.0 <= MAX_SWEEP_POINTS:
        raise ValueError(f"the sweep has {span + 1.0:.6g} amplitudes; at most {MAX_SWEEP_POINTS} are supported")

    count = int(round(span)) + 1
    psis = np.round(start + step * np.arange(count), 12)
    psis = psis[psis <= stop + 1e-12]

    ordered = spectrum.order_spectrum(param)
    mu_basis = states.build_mu_basis(ordered, coeffs)
    basis = states.MorseBasis(param)
    points = coherent.uncertainty_sweep(basis, mu_basis, psis)
    _write(out, formats, [("csv", "sweep.csv", fileio.write_sweep_csv, points)])
    split = coherent.first_separation(points)
    if split is None:
        print("separation_psi=none")
    else:
        print(f"separation_psi={split.real!r}")
    return 0


def main(argv=None) -> int:
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.config is not None:
            # precedence: explicit flag > config file > built-in default
            commands[args.command].set_defaults(**_load_config(args.config, commands))
            args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, errors.NoBoundStatesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except errors.OrderingAmbiguityError as exc:
        print(f"ordering ambiguity: {exc}", file=sys.stderr)
        return 3
    except errors.QuadratureAccuracyError as exc:
        print(f"quadrature accuracy: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
