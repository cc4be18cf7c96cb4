"""Special-function kernels against independent oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from oracles import laguerre, laguerre_derivative, laguerre_signed_log_single, log_gamma_ulps
from scipy.special import gammaln

from morsekit import (
    MorseBasis,
    decompose,
    laguerre_signed_log,
    log_gamma,
    pi_multiple_text,
)


class TestLogGamma:
    def test_gamma_of_one_is_zero(self):
        assert log_gamma(1.0) == 0.0

    def test_half_integer_closed_form(self):
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-13)

    def test_integer_factorial_oracle(self):
        # exact integer factorials are an independent route to ln Gamma(n)
        for n in range(2, 60):
            expected = math.log(math.factorial(n - 1))
            assert log_gamma(float(n)) == pytest.approx(expected, rel=1e-13)

    def test_nineteen(self):
        assert log_gamma(19.0) == pytest.approx(math.log(math.factorial(18)), rel=1e-13)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-3.2)

    def test_array_input(self):
        x = np.array([1.0, 2.0, 3.0])
        assert np.allclose([log_gamma(v) for v in x.tolist()], [0.0, 0.0, math.log(2.0)], atol=1e-14)



@pytest.mark.parametrize(
    "text",
    [pi_multiple_text(3.0), "60.3717"] + [pytest.param(text, marks=pytest.mark.deep) for text in ("200.3717", "400.3717")],
)
def test_log_gamma_of_every_library_argument_within_4_ulp(text):
    # n + 1 and nu - n of each bound mode, as _log_norm passes them; the port is at most
    # 2.23 ulp off at these wells and math.lgamma 3.21, so the bound admits either kernel
    basis = MorseBasis(decompose(text, "irrational"))
    args = [n + 1.0 for n in basis.bound_modes()] + [basis.nu - n for n in basis.bound_modes()]
    worst = max((log_gamma_ulps(x, log_gamma(x)), x) for x in args)
    assert worst[0] <= 4.0, worst


class TestLogGammaParity:
    """log_gamma reproduces scipy.special.gammaln bit for bit.

    Normalization constants, densities and sweeps inherit every bit of
    ln Gamma, so the written output files depend on exact agreement, not
    agreement to a tolerance.
    """

    def test_every_branch_bit_for_bit(self):
        rng = np.random.default_rng(20210428)
        x = np.concatenate(
            [
                rng.uniform(0.0, 2.0, 4000),  # shifted up into [2, 3)
                rng.uniform(2.0, 3.0, 2000),  # rational kernel directly
                rng.uniform(3.0, 13.0, 4000),  # shifted down into [2, 3)
                rng.uniform(13.0, 1000.0, 4000),  # Stirling with the A series
                rng.uniform(1000.0, 1.0e8, 2000),  # short Stirling correction
                10.0 ** rng.uniform(8.0, 305.0, 2000),  # bare Stirling
                10.0 ** rng.uniform(-320.0, 0.0, 1000),  # tiny and subnormal
                [5e-324, 2.0, 3.0, 13.0, 1000.0, 1.0e8, np.nextafter(1.0e8, np.inf)],
                [2.556348e305, 1.7e308, np.inf],  # past the overflow cut, infinite
            ]
        )
        assert [log_gamma(v) for v in x.tolist()] == gammaln(x).tolist()

    def test_library_arguments_bit_for_bit(self):
        # n + 1 and nu - n are the arguments the 1D and 2D normalizations use
        args = set()
        for j in range(1, 640):
            basis = MorseBasis(decompose(pi_multiple_text(j / 10), "irrational"))
            if basis.k > 200:
                break
            for n in basis.bound_modes():
                args.update((n + 1.0, basis.nu - n))
        x = np.array(sorted(args))
        assert x.size > 4000
        assert [log_gamma(v) for v in x.tolist()] == gammaln(x).tolist()


def _laguerre_coefficient_oracle(n, alpha, x):
    """L_n^alpha(x) from the explicit coefficient sum, in 50-digit arithmetic."""
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for i in range(n + 1):
            coeff = (-1) ** i * mpmath.binomial(n + alpha, n - i) / mpmath.factorial(i)
            total += coeff * mpmath.mpf(x) ** i
        return float(total)


class TestLaguerre:
    def test_degree_zero_is_one(self):
        for alpha in (-0.5, 0.0, 2.7):
            for x in (-1.0, 0.0, 3.5, 100.0):
                assert laguerre(0, alpha, x) == 1.0

    def test_degree_one_closed_form(self):
        assert laguerre(1, 0.5, 2.0) == pytest.approx(-0.5, abs=1e-15)

    def test_degree_two_closed_form(self):
        # (a+1)(a+2)/2 - (a+2) x + x^2/2 at a=1, x=1
        assert laguerre(2, 1.0, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_against_coefficient_expansion(self):
        xs = [0.0, 0.3, 1.0, 2.5, 7.0, 19.5]
        for alpha in (0.0, 0.5, 1.0, 2.3):
            for n in range(0, 11):
                for x in xs:
                    expected = _laguerre_coefficient_oracle(n, alpha, x)
                    got = laguerre(n, alpha, x)
                    assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            laguerre(-1, 0.0, 1.0)
        with pytest.raises(ValueError):
            laguerre(2, -1.0, 1.0)

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(0.0, 12.0, 25)
        vec = laguerre(6, 1.7, xs)
        for x, v in zip(xs, vec):
            assert v == laguerre(6, 1.7, float(x))


class TestLaguerreDerivative:
    def test_degree_zero_derivative_vanishes(self):
        assert laguerre_derivative(0, 3.1, 2.0) == 0.0

    def test_degree_one_slope(self):
        for alpha in (0.0, 0.5, 4.2):
            for x in (0.0, 1.0, 9.0):
                assert laguerre_derivative(1, alpha, x) == -1.0

    def test_degree_two_identity(self):
        assert laguerre_derivative(2, 1.0, 1.0) == pytest.approx(-laguerre(1, 2.0, 1.0), abs=1e-14)

    def test_finite_difference(self):
        h = 1e-6
        for n in (2, 5, 9):
            for x in (0.7, 3.3, 11.0):
                numeric = (laguerre(n, 1.5, x + h) - laguerre(n, 1.5, x - h)) / (2 * h)
                assert laguerre_derivative(n, 1.5, x) == pytest.approx(numeric, rel=1e-7, abs=1e-6)


class TestSignedLog:
    def test_matches_plain_recurrence_in_range(self):
        xs = np.linspace(0.0, 40.0, 37)
        for n in (0, 1, 4, 12):
            sign, log_abs = laguerre_signed_log(n, 0.8, xs)
            plain = laguerre(n, 0.8, xs)
            with np.errstate(divide="ignore"):
                assert np.allclose(sign * np.exp(log_abs), plain, rtol=1e-12, atol=1e-300)

    def test_survives_overflowing_magnitudes(self):
        # L_200 at large argument overflows doubles by hundreds of orders
        sign, log_abs = laguerre_signed_log(200, 0.9, 4000.0)
        assert np.isfinite(log_abs)
        assert log_abs > 700.0
        assert sign in (-1.0, 1.0)

    def test_agrees_with_high_precision_at_large_degree(self):
        n, alpha = 150, 1.3
        for x in (10.0, 500.0, 2500.0):
            sign, log_abs = laguerre_signed_log(n, alpha, x)
            with mpmath.workdps(60):
                exact = mpmath.laguerre(n, alpha, x)
                expected_log = float(mpmath.log(abs(exact)))
                expected_sign = float(mpmath.sign(exact))
            assert sign == expected_sign
            assert log_abs == pytest.approx(expected_log, rel=1e-11)

    def test_exact_zero_encodes_minus_inf(self):
        # L_1^0(1) = 0 exactly
        sign, log_abs = laguerre_signed_log(1, 0.0, 1.0)
        assert log_abs == -math.inf


class TestSignedLogRows:
    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=400),
                st.floats(min_value=-1.0, max_value=60.0, exclude_min=True),
            ),
            min_size=1,
            max_size=6,
        ).map(sorted),
        x=arrays(
            np.float64,
            st.one_of(st.just(()), array_shapes(min_dims=1, max_dims=2, max_side=6)),
            elements=st.floats(min_value=-50.0, max_value=4000.0),
        ),
    )
    def test_rows_equal_single_calls_bitwise(self, pairs, x):
        # x up to 4000 at degree up to 400 makes the rescale fire mid-recurrence
        degrees = np.array([n for n, _ in pairs])
        alphas = np.array([a for _, a in pairs])
        sign, log_abs = laguerre_signed_log(degrees, alphas, x)
        assert sign.shape == log_abs.shape == (len(pairs),) + x.shape
        for i, (n, alpha) in enumerate(pairs):
            for single in (laguerre_signed_log, laguerre_signed_log_single):
                one_sign, one_log = single(n, alpha, x)
                assert np.array_equal(sign[i], one_sign)
                assert np.array_equal(log_abs[i], one_log)

    def test_scalar_call_keeps_its_types(self):
        sign, log_abs = laguerre_signed_log(5, 0.3, 2.0)
        assert type(sign) is float and type(log_abs) is float
        sign, log_abs = laguerre_signed_log(np.array([5]), np.array([0.3]), 2.0)
        assert sign.shape == log_abs.shape == (1,)

    @pytest.mark.parametrize(
        "n, alpha",
        [
            ([3, 1], [0.5, 0.5]),  # degrees not ascending
            ([1, 3], [0.5]),  # lengths differ
            ([1, 3], [0.5, -1.0]),  # alpha at the limit
            ([-1, 3], [0.5, 0.5]),
        ],
    )
    def test_bad_rows_rejected(self, n, alpha):
        with pytest.raises(ValueError):
            laguerre_signed_log(np.array(n), np.array(alpha), np.linspace(0.0, 1.0, 3))
