"""Mode profiles and moments against closed forms evaluated in high precision (tests/oracles.py)."""

import functools

import numpy as np
import pytest
from oracles import (
    diagonal_mean_x,
    ground_uncertainty_product,
    mean_x_quad_mpmath,
    mode_value_mpmath,
    normalization_mpmath,
)

from morsekit import (
    MorseBasis,
    MuState,
    PhysicalParams,
    decompose,
    depth_for_principal,
    moments,
    normalization,
    pi_multiple_text,
)

_WELLS = ["60.3717", pytest.param("200.3717", marks=pytest.mark.deep)]


@functools.lru_cache(maxsize=None)
def _basis(text):
    return MorseBasis(decompose(text, "irrational"))


@pytest.mark.parametrize(
    "text",
    ["60.3717"] + [pytest.param(text, marks=pytest.mark.deep) for text in ("100.01", "200.3717", "400.3717")],
)
def test_mode_values_against_80_digit_formula(text):
    # the error grows about linearly in k: 8.9e-14 of the peak at 60.3717, 1.3e-12 at 400.3717
    basis = MorseBasis(decompose(text, "irrational"))
    k, top = basis.k, basis.top_mode
    for n in sorted({0, 1, k // 4, k // 2, 3 * k // 4, top - 1, top}):
        x = np.linspace(*basis.mode_box(n), 41)
        exact = np.array([float(mode_value_mpmath(basis.nu, basis.p, n, xi)) for xi in x])
        error = np.abs(basis.mode_values(n, x) - exact).max() / np.abs(exact).max()
        assert error <= 1e-11, (n, error)


@pytest.mark.parametrize("text", _WELLS)
def test_mode_tails_against_80_digit_formula(text):
    # outside each mode_box, in steps of a quarter of its width, while the reference is above 1e-300;
    # worst measured: 3.4e-13 relative at 60.3717 and 9.1e-13 at 200.3717, both near the wall
    basis = _basis(text)
    k, top = basis.k, basis.top_mode
    for n in sorted({0, 1, k // 4, k // 2, 3 * k // 4, top - 1, top}):
        lo, hi = basis.mode_box(n)
        for edge, step in ((lo, (lo - hi) / 4), (hi, (hi - lo) / 4)):
            x = edge + step
            while abs(exact := mode_value_mpmath(basis.nu, basis.p, n, x)) > 1e-300:
                error = abs(basis.mode_values(n, x) - exact) / abs(exact)
                assert error <= 4e-12, (n, x, float(error))
                x += step


@pytest.mark.parametrize("text", _WELLS)
def test_normalization_against_80_digit_formula(text):
    # worst measured: 7.9e-14 relative at 60.3717 and 1.3e-13 at 200.3717 (n = m = 200); at 200.3717
    # every pair but (100, 200) and (200, 200) is far below 1e-300 and underflows to 0
    basis = _basis(text)
    k, top = basis.k, basis.top_mode
    for n in (0, k // 2, top):
        for m in (0, k // 2, top):
            value, exact = normalization(basis.nu, n, m), normalization_mpmath(basis.nu, n, m)
            if exact > 1e-300:
                assert abs(value - exact) <= 5e-13 * exact, (n, m, value)
            else:
                assert value <= 1e-300, (n, m, value)


# The sampled modes {0, 1, k/4, k/2, 3k/4, top} on which moments returns today.  At 28.3717 the
# modes 14, 21 and 28 raise QuadratureAccuracyError on the refinement check and are left out.
@pytest.mark.parametrize(
    "text, n", [(pi_multiple_text(3.0), n) for n in (0, 1, 2, 4, 6, 9)] + [("28.3717", n) for n in (0, 1, 7)]
)
def test_diagonal_mean_position_against_mpmath_quad(text, n):
    # worst measured: 2.5e-14 relative (3pi, n = 9); the quadrature is within 1.7e-18 of Vasan & Cross
    basis = _basis(text)
    exact = mean_x_quad_mpmath(basis.nu, basis.p, n)
    assert abs(exact - diagonal_mean_x(basis.nu, n)) <= 1e-16 * abs(exact)
    report = moments(basis, MuState(0, n, n), axis="x")
    assert abs(report.mean_q - exact) <= 1e-13 * abs(exact), (n, report.mean_q, float(exact))


@pytest.mark.parametrize("text", [pi_multiple_text(3.0), "12.3717"])
def test_diagonal_mean_position(text):
    basis = MorseBasis(decompose(text, "irrational"))
    for n in basis.bound_modes():
        exact = float(diagonal_mean_x(basis.nu, n))
        report = moments(basis, MuState(0, n, n), axis="x")
        assert abs(report.mean_q - exact) <= 1e-12 * max(1.0, abs(exact)), (n, report.mean_q, exact)


def test_ground_state_uncertainty_product():
    basis = MorseBasis(decompose(pi_multiple_text(3.0), "irrational"))
    report = moments(basis, MuState(0, 0, 0), axis="x")
    exact = float(ground_uncertainty_product(basis.p))
    assert report.product == pytest.approx(exact, rel=1e-12)
    assert report.product > 0.25


@pytest.mark.parametrize(
    "text, physical",
    [(pi_multiple_text(3.0), None), ("12.3717", None), ("12.3717", (1.7, 2.5, 0.8))],
    ids=[pi_multiple_text(3.0), "12.3717", "12.3717-mass1.7-beta2.5-hbar0.8"],
)
def test_diagonal_mean_momentum_squared(text, physical):
    # Hellmann-Feynman in the mass: <p^2> = hbar^2 beta^2 (n + 1/2)(p - n)
    param = decompose(text, "irrational")
    if physical is None:
        basis = MorseBasis(param)
        assert (basis.physical.hbar, basis.beta) == (1.0, 1.0)
    else:
        mass, beta, hbar = physical
        depth = depth_for_principal(param.p_value, mass, beta, hbar)
        basis = MorseBasis(param, PhysicalParams(mass, depth, beta, hbar))
    scale = (basis.physical.hbar * basis.beta) ** 2
    for n in basis.bound_modes():
        exact = scale * (n + 0.5) * (basis.p - n)
        report = moments(basis, MuState(0, n, n), axis="x")
        assert abs(report.mean_p2 - exact) <= 1e-12 * abs(exact), (n, report.mean_p2, exact)
