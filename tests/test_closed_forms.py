"""Mode profiles and moments against closed forms evaluated in high precision (tests/oracles.py)."""

import numpy as np
import pytest
from oracles import diagonal_mean_x, ground_uncertainty_product, mode_value_mpmath

from morsekit import (
    MorseBasis,
    MuState,
    PhysicalParams,
    decompose,
    depth_for_principal,
    moments,
    pi_multiple_text,
)


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
