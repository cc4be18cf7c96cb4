"""Coherent states over the level ladder: coefficients, residuals, moments."""

import cmath
import math
import random
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    axis_expectations_einsum,
    bg_residual_direct_complex,
    bg_residual_direct_decimal,
    bg_residual_direct_logexp,
    coherent_coefficient_matrix_sum,
    localization_fraction,
    moments_full_tables,
    residual_complex_mpf,
)
from scipy.integrate import quad as scipy_quad
from scipy.special import logsumexp

from morsekit import (
    LadderSpectrum,
    MixingCoefficients,
    ModeTables,
    MorseBasis,
    MuState,
    QuadratureAccuracyError,
    QuadratureConfig,
    bg_residual,
    bg_residual_direct,
    build_mu_basis,
    coherent_coefficients,
    decompose,
    density_grid,
    first_separation,
    gram_matrix,
    ladder_f,
    log_bg_residual,
    moments,
    order_spectrum,
    pi_multiple_text,
    uncertainty_sweep,
)
from morsekit import coherent
from morsekit.coherent import _axis_expectations
from morsekit.states import _expand


class TestLadder:
    def test_reference_gaps(self, ladder_3pi, p3pi):
        assert ladder_3pi.f[0] == 0.0
        # e_1 - e_0 = (162 + 36 eps) - (145 + 34 eps) = 17 + 2 eps
        assert ladder_3pi.f[1] == pytest.approx(17.0 + 2.0 * p3pi.epsilon, rel=1e-14)
        assert ladder_3pi.f[1] == pytest.approx(17.84955592153875, rel=1e-14)

    def test_strictly_increasing(self, ladder_3pi):
        assert ladder_3pi.xi == 54
        assert np.all(np.diff(ladder_3pi.f) > 0.0)

    def test_log_factorials_accumulate(self, ladder_3pi):
        expected = math.log(ladder_3pi.f[1]) + math.log(ladder_3pi.f[2])
        assert ladder_3pi.log_factorials[0] == 0.0
        assert ladder_3pi.log_factorials[2] == pytest.approx(expected, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            LadderSpectrum(np.array([1.0, 2.0]))  # f[0] != 0
        with pytest.raises(ValueError):
            LadderSpectrum(np.array([0.0, 2.0, 1.0]))
        for gaps in ([0.0, 0.0, 1.0], [0.0, -1.0, 1.0]):  # zero gap, negative gap
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="strictly increasing"):
                    LadderSpectrum(gaps)

    def test_strengths_are_a_private_read_only_copy(self):
        f = np.array([0.0, 1.0, 3.0])
        ladder = LadderSpectrum(f)
        f[1] = 5.0  # the caller's array, not the ladder's
        assert ladder.f.tolist() == [0.0, 1.0, 3.0]
        assert ladder.log_factorials.tolist() == [0.0, 0.0, math.log(3.0)]
        for array in (ladder.f, ladder.log_factorials):
            with pytest.raises(ValueError, match="read-only"):
                array[1] = 2.0

    @pytest.mark.parametrize(
        "text, head, crossing",
        [
            # 1e-31 above the crossing 1/2 of (8, 4) and (9, 3): the exact order holds, the doubles tie
            ("3.5000000000000000000000000000001",
             "levels mu_3 and mu_4, keys (a, b) = (8, 4) and (9, 3), have ladder strengths 12.0 and 12.0",
             "1/2"),
            # 1e-30 below the crossing 13/14, while the double epsilon lies above it: the doubles reverse
            ("27.9285714285714285714285714285704285714285",
             "levels mu_94 and mu_95, keys (a, b) = (738, 30) and (725, 37), have ladder strengths "
             "764.5714285714286 and 764.5714285714284",
             "13/14"),
        ],
    )
    def test_names_the_crossing_a_double_ladder_cannot_resolve(self, text, head, crossing):
        spectrum = order_spectrum(decompose(text, "irrational"))
        with pytest.raises(ValueError) as info:
            ladder_f(spectrum)
        assert str(info.value) == (
            f"{head}, not increasing in double precision: the keys cross at epsilon = {crossing}, "
            f"within double rounding of p = {text}"
        )


class TestCoefficients:
    def test_zero_amplitude_is_ground(self, ladder_3pi, mu_3pi):
        state = coherent_coefficients(0.0, ladder_3pi, mu_3pi)
        assert state.coefficients[0] == 1.0
        assert np.all(state.coefficients[1:] == 0.0)
        assert state.log_normalization == 0.0
        assert localization_fraction(state) == 1.0

    def test_unit_norm_across_amplitudes(self, ladder_3pi, mu_3pi):
        for psi in (0.1, 1.0, 5.0, 10.0, 100.0):
            state = coherent_coefficients(psi, ladder_3pi, mu_3pi)
            assert np.sum(np.abs(state.coefficients) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_against_direct_summation(self, ladder_3pi, mu_3pi):
        # brute-force c_n = Psi^n / sqrt(N [f(n)]!) in 60-digit arithmetic
        psi = 2.0
        state = coherent_coefficients(psi, ladder_3pi, mu_3pi)
        with mpmath.workdps(60):
            facts = [mpmath.mpf(1)]
            for gap in ladder_3pi.f[1:]:
                facts.append(facts[-1] * mpmath.mpf(float(gap)))
            norm = sum(mpmath.mpf(psi) ** (2 * n) / facts[n] for n in range(len(facts)))
            expected = [
                float(mpmath.mpf(psi) ** n / mpmath.sqrt(norm * facts[n]))
                for n in range(len(facts))
            ]
        assert np.allclose(state.coefficients.real, expected, rtol=1e-10, atol=1e-300)
        assert np.allclose(state.coefficients.imag, 0.0)

    def test_complex_amplitude_phases(self, ladder_3pi, mu_3pi):
        state = coherent_coefficients(1j, ladder_3pi, mu_3pi)
        magnitudes = np.abs(state.coefficients)
        reference = coherent_coefficients(1.0, ladder_3pi, mu_3pi)
        assert np.allclose(magnitudes, np.abs(reference.coefficients), rtol=1e-13)
        phases = np.angle(state.coefficients[magnitudes > 1e-300])
        n = np.arange(phases.size)
        expected = np.angle(np.exp(1j * n * (math.pi / 2.0)))
        assert np.allclose(phases, expected, atol=1e-12)

    def test_small_amplitude_localizes_on_ground(self, ladder_3pi, mu_3pi):
        state = coherent_coefficients(0.1, ladder_3pi, mu_3pi)
        assert localization_fraction(state, 1) > 0.999
        assert localization_fraction(state, 2) > localization_fraction(state, 1)

    @pytest.mark.parametrize("psi", [math.nan, math.inf, complex(0.5, math.nan), complex(-math.inf, 1.0)])
    def test_non_finite_psi_rejected(self, ladder_3pi, mu_3pi, psi):
        with pytest.raises(ValueError, match="must be finite"):
            coherent_coefficients(psi, ladder_3pi, mu_3pi)

    def test_mismatched_ladder_rejected(self, mu_3pi):
        short = LadderSpectrum([0.0, 1.0, 3.0])
        with pytest.raises(ValueError):
            coherent_coefficients(1.0, short, mu_3pi)

    def test_coefficient_matrix_combines_levels(self, ladder_3pi, mu_3pi):
        state = coherent_coefficients(0.5, ladder_3pi, mu_3pi)
        mat = state.coefficient_matrix(mu_3pi.dim)
        # ground level (0,0) carries c_0; the (1,0)/(0,1) doublet carries c_1/sqrt(2)
        assert mat[0, 0] == pytest.approx(state.coefficients[0], rel=1e-14)
        assert mat[1, 0] == pytest.approx(state.coefficients[1] / math.sqrt(2.0), rel=1e-14)
        assert mat[0, 1] == pytest.approx(state.coefficients[1] / math.sqrt(2.0), rel=1e-14)

    @pytest.mark.parametrize(
        "text",
        [
            pi_multiple_text(3.0),
            "24.41",
            pytest.param("100.3717", marks=pytest.mark.deep),
            pytest.param("200.3717", marks=pytest.mark.deep),
        ],
    )
    def test_coefficient_matrix_matches_level_sum(self, text):
        spectrum = order_spectrum(decompose(text, "irrational"))
        mix = MixingCoefficients.normalized(0.6 - 0.2j, 0.3 + 0.7j)
        mu = build_mu_basis(spectrum, mix, {2: MixingCoefficients.normalized(-1.0, 1j)})
        dim = spectrum.parameter.k + 1
        # the oracle adds one dense dim x dim matrix per level: one amplitude at depth
        for psi in (0.5, 2.5 + 1.5j, -7j) if dim <= 100 else (2.5 + 1.5j,):
            state = coherent_coefficients(psi, ladder_f(spectrum), mu)
            mat = state.coefficient_matrix(dim)
            oracle = coherent_coefficient_matrix_sum(state, dim)
            assert np.array_equal(mat.view(np.uint64), oracle.view(np.uint64))

    def test_coefficient_matrix_rejects_small_dimension(self, ladder_3pi, mu_3pi):
        with pytest.raises(ValueError):
            coherent_coefficients(0.5, ladder_3pi, mu_3pi).coefficient_matrix(mu_3pi.dim - 1)



class TestNormalizationParity:
    """log_normalization reproduces scipy.special.logsumexp bit for bit."""

    @staticmethod
    def _terms(psi, ladder):
        n = np.arange(ladder.xi + 1)
        return 2.0 * n * math.log(abs(psi)) - ladder.log_factorials

    def test_reference_ladder(self, ladder_3pi, mu_3pi):
        for psi in (1e-3, 0.1, 0.5, 1.0, 1.7, 2.5j, 3 + 4j, 5.0, 12.0, 1e3):
            state = coherent_coefficients(psi, ladder_3pi, mu_3pi)
            assert state.log_normalization == float(logsumexp(self._terms(psi, ladder_3pi)))

    def test_tied_maxima(self, mu_3pi):
        # f(i) = i makes [f(n)]! = n!, so |Psi| = 1 ties the n = 0 and n = 1 terms at 0
        ladder = LadderSpectrum(np.arange(mu_3pi.xi + 1.0))
        for psi in (1.0, -1.0, 1j, complex(math.cos(0.3), math.sin(0.3))):
            terms = self._terms(psi, ladder)
            assert np.count_nonzero(terms == terms.max()) == 2
            state = coherent_coefficients(psi, ladder, mu_3pi)
            assert state.log_normalization == float(logsumexp(terms))

    def test_seeded_ladders(self, mu_3pi):
        rng = np.random.default_rng(1729)
        ties = 0
        for trial in range(400):
            if trial % 2:
                gaps = rng.uniform(0.01, 20.0, mu_3pi.xi)
                psi = complex(*(rng.standard_normal(2) * 10.0 ** rng.uniform(-2, 2)))
            else:
                gaps = rng.integers(1, 4, mu_3pi.xi).astype(float)
                psi = float(rng.choice([0.5, 1.0, 2.0, 3.0])) * 1j ** int(rng.integers(4))
            ladder = LadderSpectrum(np.concatenate([[0.0], np.cumsum(gaps)]))
            terms = self._terms(psi, ladder)
            ties += np.count_nonzero(terms == terms.max()) > 1
            state = coherent_coefficients(psi, ladder, mu_3pi)
            assert state.log_normalization == float(logsumexp(terms))
        assert ties > 0


class TestResidual:
    def test_zero_amplitude_no_residual(self, ladder_3pi, mu_3pi):
        state = coherent_coefficients(0.0, ladder_3pi, mu_3pi)
        assert bg_residual(state, ladder_3pi) == 0.0
        assert bg_residual_direct(state, ladder_3pi) == 0.0

    def test_small_amplitude_residual_is_negligible(self, ladder_3pi, mu_3pi):
        state = coherent_coefficients(0.1, ladder_3pi, mu_3pi)
        assert 0.0 < bg_residual(state, ladder_3pi) < 1e-40

    def test_analytic_matches_direct_ladder_action(self, ladder_3pi, mu_3pi):
        for psi in (0.1, 1.0, 5.0, 10.0):
            state = coherent_coefficients(psi, ladder_3pi, mu_3pi)
            analytic = bg_residual(state, ladder_3pi)
            direct = bg_residual_direct(state, ladder_3pi)
            assert direct == pytest.approx(analytic, rel=1e-10)

    @pytest.mark.parametrize(
        "text, psi, expected",
        [
            (pi_multiple_text(3.0), 1.5 + 2j, 1.659142906186609e-33),
            ("20.618", -3.25 + 0.5j, 1.1085061950484876e-192),
        ],
    )
    def test_direct_residual_pinned(self, text, psi, expected):
        # recorded values: the check is deterministic mpf arithmetic, so any
        # change to its sequence of operations shows as a mismatch
        spectrum = order_spectrum(decompose(text, "irrational"))
        ladder = ladder_f(spectrum)
        state = coherent_coefficients(psi, ladder, build_mu_basis(spectrum))
        assert bg_residual_direct(state, ladder) == expected
        assert bg_residual_direct_complex(state, ladder) == expected

    @staticmethod
    def _exact_root(value, bits):
        """Nearest integer to sqrt(value) 2^bits, a tie rounded up, from Fraction comparisons alone."""
        scaled = Fraction(value) * 4**bits
        c = math.isqrt(math.floor(scaled))
        return c + 1 if scaled >= (c + Fraction(1, 2)) ** 2 else c

    @pytest.mark.parametrize("digits", [40, 282, 380])
    def test_root_matches_an_exact_integer_root(self, digits):
        # at the residual's 141, 945 and 1271 bits: floats from subnormal to huge, |Psi|^2 sums
        # of float parts, and values a hair above, at and a hair below a halfway point (c + 1/2)^2 / 4^bits
        bits = math.ceil(digits * math.log2(10.0)) + 8
        rng = random.Random(f"exact root:{bits}")
        values = [5e-324, 2.2250738585072014e-308, 1.0e-310, 1.7976931348623157e308, 1.0, 0.5, 3.0]
        values += [rng.uniform(0.5, 2.0) * 10.0 ** rng.randint(-300, 300) for _ in range(60)]
        values += [Fraction(x) ** 2 + Fraction(y) ** 2 for x, y in zip(values[7:37], values[37:])]
        for _ in range(30):
            half = Fraction(2 * rng.randrange(1, 2 ** (bits + 60)) + 1, 2 ** (bits + 1))
            values += [half * half + delta * Fraction(1, 2 ** (6 * bits)) for delta in (1, 0, -1)]
        for value in values:
            assert coherent._root(value, bits) == self._exact_root(value, bits), value

    @staticmethod
    def _is_rounded_root(y, value):
        """Whether the double y is sqrt(value) rounded to nearest, a tie to even, from Fraction comparisons alone."""
        low, high = ((Fraction(y) + Fraction(math.nextafter(y, t))) / 2 for t in (-math.inf, math.inf))
        low_sq, high_sq = low * abs(low), high * high
        even = Fraction(y) / Fraction(math.ulp(y)) % 2 == 0
        return low_sq < value < high_sq or (even and value in (low_sq, high_sq))

    def test_float_root_is_correctly_rounded(self):
        # subnormal to huge, and values a hair above, at and a hair below a square halfway
        # between two doubles, where only the sticky bit tells a rest from a tie
        rng = random.Random("float root")
        values = [Fraction(0), Fraction(1, 2**2150), Fraction(1, 2**2149), Fraction(1, 2**2148), Fraction(9, 4)]
        values += [Fraction(rng.uniform(0.5, 2.0) * 10.0 ** rng.randint(-300, 300)) ** 2 / rng.randrange(1, 10**40)
                   for _ in range(100)]
        for y in (5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 3.0, 1.5e-33, 1.7e300):
            for sign in (1, -1):
                half = (Fraction(y) + Fraction(math.nextafter(y, sign * math.inf))) / 2
                values += [half * half + delta * half * half / 2**3000 for delta in (1, 0, -1)]
        for value in values:
            y = coherent._float_root(value.numerator, value.denominator)
            assert self._is_rounded_root(y, value), (value, y)

    def test_direct_residual_subnormal_is_correctly_rounded(self):
        # mpmath's float() rounds this subnormal twice, to 1.6498962625735345e-308
        spectrum = order_spectrum(decompose("24.3717", "irrational"))
        ladder = ladder_f(spectrum)
        state = coherent_coefficients(3.0, ladder, build_mu_basis(spectrum))
        expected = float(mpmath.nstr(residual_complex_mpf(state, ladder, dps=600), 600))
        assert expected == 1.649896262573534e-308
        assert bg_residual_direct(state, ladder) == expected

    def test_direct_residual_equals_complex_oracle(self):
        # the magnitude form drops phases that cancel term by term; at the
        # chosen precision both round to the same double
        rng = random.Random("bg_residual_direct")
        for _ in range(50):
            k = rng.randint(0, 30)
            # an odd last digit keeps eps off every crossing point, so the order is strict
            spectrum = order_spectrum(decompose(f"{k}.{rng.randrange(1, 10**12, 2):012d}", "irrational"))
            ladder = ladder_f(spectrum)
            psi = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 10 ** rng.uniform(0.5, 1.5)
            state = coherent_coefficients(psi, ladder, build_mu_basis(spectrum))
            direct = bg_residual_direct(state, ladder)
            assert direct == bg_residual_direct_complex(state, ladder)
            assert direct == bg_residual_direct_logexp(state, ladder)

    def test_direct_residual_equals_decimal_form(self):
        # the integer form against the decimal one it replaced, bit for bit: 24 wells, 10 amplitudes each
        rng = random.Random("decimal residual")
        for _ in range(24):
            spectrum = order_spectrum(decompose(f"{rng.randint(9, 27)}.{rng.randrange(1, 10**12, 2):012d}", "irrational"))
            ladder, basis = ladder_f(spectrum), build_mu_basis(spectrum)
            for _ in range(10):
                state = coherent_coefficients(cmath.rect(rng.uniform(0.5, 12.0), rng.uniform(0.0, 2.0 * math.pi)),
                                              ladder, basis)
                assert bg_residual_direct(state, ladder) == bg_residual_direct_decimal(state, ladder), state.psi

    @settings(max_examples=30, deadline=None)
    @given(
        k=st.integers(min_value=0, max_value=30),
        half=st.integers(min_value=0, max_value=10**12 // 2 - 1),
        modulus=st.floats(min_value=0.5, max_value=45.0),
        phase=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )
    def test_property_direct_equals_decimal_form(self, k, half, modulus, phase):
        # an odd last digit keeps eps off every crossing point, so the order is strict
        spectrum = order_spectrum(decompose(f"{k}.{2 * half + 1:012d}", "irrational"))
        ladder = ladder_f(spectrum)
        state = coherent_coefficients(cmath.rect(modulus, phase), ladder, build_mu_basis(spectrum))
        assert bg_residual_direct(state, ladder) == bg_residual_direct_decimal(state, ladder)

    @settings(max_examples=30, deadline=None)
    @given(
        k=st.integers(min_value=0, max_value=40),
        half=st.integers(min_value=0, max_value=10**12 // 2 - 1),
        modulus=st.floats(min_value=3.0, max_value=45.0),
        phase=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )
    def test_property_direct_matches_closed_form(self, k, half, modulus, phase):
        # an odd last digit keeps eps off every crossing point, so the order is strict
        spectrum = order_spectrum(decompose(f"{k}.{2 * half + 1:012d}", "irrational"))
        ladder = ladder_f(spectrum)
        state = coherent_coefficients(cmath.rect(modulus, phase), ladder, build_mu_basis(spectrum))
        direct, closed = bg_residual_direct(state, ladder), bg_residual(state, ladder)
        if min(direct, closed) >= sys.float_info.min:
            assert direct == pytest.approx(closed, rel=1e-10)
        elif log_bg_residual(state, ladder) < -746.0:  # below half the smallest subnormal
            assert direct == 0.0

    @pytest.mark.deep
    @pytest.mark.parametrize(
        "text, psi",
        [("45.09125681047774282578881968301778850870", 1.651212), ("60.3717", 5.0)],
    )
    def test_direct_residual_underflows_in_deep_wells(self, text, psi):
        spectrum = order_spectrum(decompose(text, "irrational"))
        ladder = ladder_f(spectrum)
        state = coherent_coefficients(psi, ladder, build_mu_basis(spectrum))
        assert log_bg_residual(state, ladder) < -745.0
        assert bg_residual_direct(state, ladder) == 0.0

    def test_ladder_of_another_well_is_rejected(self, ladder_3pi, mu_3pi):
        # the k = 12 ladder has 91 rungs, the 3 pi state 55 levels; read
        # together they would give a log residual near -213.4
        state = coherent_coefficients(1.5, ladder_3pi, mu_3pi)
        assert log_bg_residual(state, ladder_3pi) == pytest.approx(-103.4596, abs=1e-4)
        other = ladder_f(order_spectrum(decompose("12.3717", "irrational")))
        for check in (log_bg_residual, bg_residual, bg_residual_direct):
            with pytest.raises(ValueError, match="ladder has 91 rungs but the state has 55 levels"):
                check(state, other)

    def test_ladder_with_as_many_rungs_is_rejected(self, ladder_3pi, mu_3pi):
        # the 9.3717 ladder also has 55 rungs; read with the 3 pi state it gave a log
        # residual of -103.238 in place of -103.460, and a direct residual of 1.459e-45
        state = coherent_coefficients(1.5, ladder_3pi, mu_3pi)
        assert state.ladder is ladder_3pi
        other = ladder_f(order_spectrum(decompose("9.3717", "irrational")))
        assert other.xi == ladder_3pi.xi
        for check in (log_bg_residual, bg_residual, bg_residual_direct):
            with pytest.raises(ValueError, match=r"not the state's ladder: rung 1 has f = 17\.7434.*, not 17\.849"):
                check(state, other)
        # a ladder built apart from the same f is the state's own
        twin = LadderSpectrum(ladder_3pi.f)
        for check in (log_bg_residual, bg_residual, bg_residual_direct):
            assert check(state, twin) == check(state, ladder_3pi)

    def test_residual_precision_is_capped(self, monkeypatch):
        # the estimate puts the k = 45, psi = 1 residual about 1800 places below 1;
        # any residual under 1e-340 rounds to 0.0, so 380 digits are enough
        spectrum = order_spectrum(decompose("45.3717", "irrational"))
        ladder = ladder_f(spectrum)
        state = coherent_coefficients(1.0, ladder, build_mu_basis(spectrum))
        assert log_bg_residual(state, ladder) / math.log(10.0) < -1000.0
        bits = set()
        exact_root = coherent._root

        def recorded_root(value, precision):
            # the precision the body chose, read from every root it takes
            bits.add(precision)
            return exact_root(value, precision)

        monkeypatch.setattr(coherent, "_root", recorded_root)
        assert bg_residual_direct(state, ladder) == 0.0
        assert len(bits) == 1 and max(bits) <= 1271  # 380 digits

    def test_residual_grows_with_amplitude(self, ladder_3pi, mu_3pi):
        values = [
            bg_residual(coherent_coefficients(psi, ladder_3pi, mu_3pi), ladder_3pi)
            for psi in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))


    def test_log_residual_survives_underflow(self):
        spectrum = order_spectrum(decompose(pi_multiple_text(9.7), "irrational"))
        ladder = ladder_f(spectrum)
        assert spectrum.parameter.k == 30
        state = coherent_coefficients(2.0, ladder, build_mu_basis(spectrum))
        log_r = log_bg_residual(state, ladder)
        assert math.isfinite(log_r)
        assert bg_residual(state, ladder) == 0.0  # the magnitude itself underflows
        with mpmath.workdps(50):  # the same closed form, in 50 digits
            log_fact = mpmath.mpf(0)
            norm = mpmath.mpf(1)
            for n, value in enumerate(ladder.f[1:].tolist(), start=1):
                log_fact += mpmath.log(mpmath.mpf(value))
                norm += mpmath.exp(2 * n * mpmath.log(2) - log_fact)
            oracle = (state.xi + 1) * mpmath.log(2) - log_fact / 2 - mpmath.log(norm) / 2
        assert abs(log_r - float(oracle)) <= 1e-12 * abs(float(oracle))

    def test_zero_amplitude_log_residual(self, ladder_3pi, mu_3pi):
        state = coherent_coefficients(0.0, ladder_3pi, mu_3pi)
        assert log_bg_residual(state, ladder_3pi) == -math.inf


class TestWellCheck:
    def test_state_of_another_well_is_rejected(self):
        # the 9.3717 levels all fit the deeper well's modes, so nothing else would object
        spectrum = order_spectrum(decompose("9.3717", "irrational"))
        state = coherent_coefficients(0.5, ladder_f(spectrum), build_mu_basis(spectrum))
        basis = MorseBasis(decompose("12.3717", "irrational"))
        calls = [
            lambda: density_grid(basis, state),
            lambda: moments(basis, state, "x"),
            lambda: gram_matrix(basis, [state, state]),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"p = '9\.3717' .* p = '12\.3717'"):
                call()


class TestMoments:
    def test_momentum_mean_vanishes_for_real_states(self, basis_3pi, mu_3pi):
        report = moments(basis_3pi, mu_3pi.states[3], axis="x")
        assert abs(report.mean_p) < 1e-10

    def test_momentum_sq_against_schroedinger_identity(self):
        # P^2 phi = 2m (E - V) phi pointwise, so <P^2> = 2m int (E - V) |phi|^2
        basis = MorseBasis(decompose("2.3", "rational"))
        depth = basis.physical.depth
        n = 2
        energy = -0.5 * (basis.p - n) ** 2
        lo, hi = basis.support_box()
        oracle, err = scipy_quad(
            lambda x: 2.0
            * (energy - depth * (math.exp(-2.0 * x) - 2.0 * math.exp(-x)))
            * basis.mode_values(n, x) ** 2,
            lo,
            hi,
            limit=200,
        )
        report = moments(basis, MuState(0, n, n), axis="x")
        assert report.mean_p2 == pytest.approx(oracle, rel=1e-6)

    def test_position_moments_against_independent_quadrature(self):
        basis = MorseBasis(decompose("2.3", "rational"))
        n = 1
        lo, hi = basis.support_box()
        mean_x, _ = scipy_quad(lambda x: x * basis.mode_values(n, x) ** 2, lo, hi, limit=200)
        mean_x2, _ = scipy_quad(lambda x: x * x * basis.mode_values(n, x) ** 2, lo, hi, limit=200)
        report = moments(basis, MuState(0, n, n), axis="y")
        assert report.mean_q == pytest.approx(mean_x, rel=1e-8)
        assert report.mean_q2 == pytest.approx(mean_x2, rel=1e-8)

    def test_equal_mix_is_axis_symmetric(self, basis_3pi, mu_3pi, ladder_3pi):
        state = coherent_coefficients(1.3, ladder_3pi, mu_3pi)
        rx = moments(basis_3pi, state, "x")
        ry = moments(basis_3pi, state, "y")
        assert rx.product == pytest.approx(ry.product, abs=1e-9)
        assert rx.var_q == pytest.approx(ry.var_q, abs=1e-9)

    def test_report_derived_quantities(self, basis_3pi, mu_3pi):
        report = moments(basis_3pi, mu_3pi.states[0], "x")
        assert report.var_q == pytest.approx(report.mean_q2 - report.mean_q**2, rel=1e-12)
        assert report.dq == pytest.approx(math.sqrt(report.var_q), rel=1e-12)
        assert report.product == pytest.approx(report.var_q * report.var_p, rel=1e-12)

    @pytest.mark.parametrize("text", ["9.3717", "20.3717"])
    def test_contraction_equals_einsum(self, text):
        # the written-out path returns einsum's own values, bit for bit
        spectrum = order_spectrum(decompose(text, "irrational"))
        basis = MorseBasis(spectrum.parameter)
        mu_basis = build_mu_basis(spectrum, MixingCoefficients.normalized(0.866, 0.5))
        ladder = ladder_f(spectrum)
        states = [mu_basis.states[1], mu_basis.states[-1]]
        states += [coherent_coefficients(psi, ladder, mu_basis) for psi in (0.4, 1.7, 2.0 + 1.5j)]
        for quad in (QuadratureConfig(), QuadratureConfig().refined()):
            tables = basis.mode_tables(quad)
            for state in states:
                c, _ = _expand(basis, state)
                for axis in ("x", "y"):
                    assert _axis_expectations(c, tables, axis) == axis_expectations_einsum(c, tables, axis)

    def test_rejects_unknown_axis(self, p3pi, mu_3pi, monkeypatch):
        # the axis is checked before any mode row is built
        calls = []
        rows = MorseBasis._rows
        monkeypatch.setattr(MorseBasis, "_rows", lambda self, *args, **kw: calls.append(args) or rows(self, *args, **kw))
        with pytest.raises(ValueError, match=r"^axis must be 'x' or 'y', got 'z'$"):
            moments(MorseBasis(p3pi), mu_3pi.states[0], axis="z")
        assert calls == []


def _report_bits(call):
    """The four means of a moment report as hex text, or the raised error's type, message and fields."""
    try:
        report = call()
    except QuadratureAccuracyError as exc:
        return type(exc).__name__, str(exc), exc.quantity, exc.delta, exc.tol, exc.rule
    return report.mode, *(float(getattr(report, name)).hex() for name in ("mean_q", "mean_q2", "mean_p", "mean_p2"))


class TestShortTables:
    """moments builds the tables up to the state's top mode and returns the full tables' report, bit for bit."""

    @pytest.mark.parametrize(
        "text",
        [
            "3pi",
            "28.3717",
            "60.3717",
            # at k >= 100 these states' moments refuse on the refinement check: same quantity, delta and text
            pytest.param("100.3717", marks=pytest.mark.deep),
            pytest.param("200.3717", marks=pytest.mark.deep),
        ],
    )
    def test_matches_full_tables(self, text):
        param = decompose(pi_multiple_text(3.0) if text == "3pi" else text, "irrational")
        spectrum = order_spectrum(param)
        mu_basis = build_mu_basis(spectrum, MixingCoefficients.normalized(0.866, 0.5))
        ladder = ladder_f(spectrum)
        states = [mu_basis.states[1]] + [coherent_coefficients(psi, ladder, mu_basis) for psi in (0.3, 1.0, 2.0 + 1.5j)]
        full, tops = MorseBasis(param), []
        for state in states:
            basis = MorseBasis(param)
            for axis in ("x", "y"):
                assert _report_bits(lambda: moments(basis, state, axis)) == _report_bits(
                    lambda: moments_full_tables(full, state, axis))
            tops += [top for top, _ in basis._tables.values()]
        assert min(tops) < param.k

    def test_short_tables_grow_for_a_larger_state(self):
        param = decompose("28.3717", "irrational")
        spectrum = order_spectrum(param)
        mu_basis = build_mu_basis(spectrum)
        low = MuState(0, 2, 1, MixingCoefficients.equal_mix())
        high = coherent_coefficients(2.0, ladder_f(spectrum), mu_basis)
        basis, full = MorseBasis(param), MorseBasis(param)
        for state, top in ((low, 2), (high, param.k), (low, param.k)):
            for axis in ("x", "y"):
                assert _report_bits(lambda: moments(basis, state, axis)) == _report_bits(
                    lambda: moments_full_tables(full, state, axis))
            assert sorted(built for built, _ in basis._tables.values()) == [top, top]
        # the public call is the full build whatever is cached
        short = MorseBasis(param)
        moments(short, low, "x")
        for quad in (QuadratureConfig(), QuadratureConfig().refined()):
            tables, expected = short.mode_tables(quad), full.mode_tables(quad)
            for name in ModeTables.__dataclass_fields__:
                assert getattr(tables, name).tobytes() == getattr(expected, name).tobytes(), name

    def test_sweep_matches_full_tables(self):
        param = decompose("28.3717", "irrational")
        spectrum = order_spectrum(param)
        mu_basis = build_mu_basis(spectrum, MixingCoefficients.normalized(0.866, 0.5))
        ladder = ladder_f(spectrum)
        psis = [0.1, 0.6, 1.7 + 0.4j, 3.0]
        basis, full = MorseBasis(param), MorseBasis(param)
        points = uncertainty_sweep(basis, mu_basis, psi_values=psis)
        # a later point needs every bound mode, so both rules end up with their full tables
        assert [built for built, _ in basis._tables.values()] == [param.k, param.k]
        for point, psi in zip(points, psis):
            state = coherent_coefficients(psi, ladder, mu_basis)
            assert _report_bits(lambda: point.x) == _report_bits(lambda: moments_full_tables(full, state, "x"))
            assert _report_bits(lambda: point.y) == _report_bits(lambda: moments_full_tables(full, state, "y"))


    def test_sweep_builds_each_rule_at_most_twice(self, monkeypatch):
        # at 60.3717 the first state's top mode is below k: a short build, then the full one
        param = decompose("60.3717", "irrational")
        mu_basis = build_mu_basis(order_spectrum(param), MixingCoefficients.normalized(0.866, 0.5))
        prebuilt = MorseBasis(param)
        for quad in (QuadratureConfig(), QuadratureConfig().refined()):
            prebuilt.mode_tables(quad)
        expected = uncertainty_sweep(prebuilt, mu_basis)
        builds, rows = [], MorseBasis._rows

        def counted(self, modes, x, derivative=False):
            if derivative:
                builds.append((x.size, len(modes)))
            return rows(self, modes, x, derivative)

        monkeypatch.setattr(MorseBasis, "_rows", counted)
        basis = MorseBasis(param)
        points = uncertainty_sweep(basis, mu_basis)
        assert sorted(builds) == [(200, 23), (200, 61), (400, 23), (400, 61)]
        assert list(basis._tables) == [QuadratureConfig(), QuadratureConfig().refined()]
        assert [built for built, _ in basis._tables.values()] == [param.k, param.k]
        assert len(points) == len(expected) == 50
        for point, old in zip(points, expected):
            assert point.psi == old.psi
            assert _report_bits(lambda: point.x) == _report_bits(lambda: old.x)
            assert _report_bits(lambda: point.y) == _report_bits(lambda: old.y)


class TestSweep:
    def test_symmetric_mix_never_separates(self, basis_3pi, mu_3pi):
        points = uncertainty_sweep(basis_3pi, mu_3pi, psi_values=np.arange(1, 21) * 0.25)
        assert first_separation(points) is None
        for point in points:
            assert point.x.product >= 0.25 - 1e-9
            assert point.y.product >= 0.25 - 1e-9

    def test_asymmetric_mix_separates_near_reference_amplitude(self, spectrum_3pi, basis_3pi):
        mu = build_mu_basis(spectrum_3pi, coeffs=MixingCoefficients(math.sqrt(3.0) / 2.0, 0.5))
        points = uncertainty_sweep(basis_3pi, mu)
        split = first_separation(points)
        assert split is not None
        assert split.real == pytest.approx(1.7, abs=0.05)
        late = [p for p in points if p.psi.real >= 2.0]
        assert all(p.x.product < p.y.product for p in late)

    def test_small_amplitude_matches_ground_state(self, basis_3pi, mu_3pi, ladder_3pi):
        ground = moments(basis_3pi, coherent_coefficients(0.0, ladder_3pi, mu_3pi), "x")
        points = uncertainty_sweep(basis_3pi, mu_3pi, psi_values=[0.1])
        assert points[0].x.product == pytest.approx(ground.product, rel=0.05)
        assert points[0].x.product == pytest.approx(0.2570874019278981, rel=1e-9)

    def test_products_grow_monotonically_when_spread_out(self, spectrum_3pi, basis_3pi):
        mu = build_mu_basis(spectrum_3pi, coeffs=MixingCoefficients(math.sqrt(3.0) / 2.0, 0.5))
        points = uncertainty_sweep(basis_3pi, mu, psi_values=np.arange(8, 21) * 0.25)
        prods = [max(p.x.product, p.y.product) for p in points]
        assert all(b > a for a, b in zip(prods, prods[1:]))

    def test_coherent_density_more_localized_than_spread_state(
        self, basis_3pi, mu_3pi, ladder_3pi
    ):
        # fraction of cells needed to hold half the probability: a compact
        # state needs fewer cells than a level state of comparable energy
        def half_mass_fraction(field):
            weights = np.sort(field.values.ravel() * field.spec.cell_area)[::-1]
            running = np.cumsum(weights)
            return float(np.searchsorted(running, 0.5) + 1) / weights.size

        coherent = coherent_coefficients(0.1, ladder_3pi, mu_3pi)
        frac_coherent = half_mass_fraction(density_grid(basis_3pi, coherent))
        frac_level = half_mass_fraction(density_grid(basis_3pi, mu_3pi.states[18]))
        assert frac_coherent < frac_level


class TestQuadratureGuard:
    def test_moments_flag_untrustworthy_rules(self, basis_3pi, mu_3pi):
        # a 4-point rule cannot integrate these densities; the refinement
        # check must catch it rather than return garbage
        from morsekit import QuadratureConfig

        bad = QuadratureConfig(points_per_axis=4, panels=1)
        with pytest.raises(QuadratureAccuracyError) as info:
            moments(basis_3pi, mu_3pi.states[18], "x", quad=bad)
        err = info.value
        assert err.quantity == "mean_q along x"
        assert err.rule == bad
        assert err.delta > err.tol >= 1e-7
        assert str(err) == f"mean_q along x moved by {err.delta:.3e} under refinement"
