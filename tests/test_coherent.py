"""Coherent states over the level ladder: coefficients, residuals, moments."""

import cmath
import math
import random
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import bg_residual_direct_complex, bg_residual_direct_logexp, coherent_coefficient_matrix_sum
from scipy.integrate import quad as scipy_quad
from scipy.special import logsumexp

from morsekit import (
    LadderSpectrum,
    MixingCoefficients,
    MorseBasis,
    MuState,
    QuadratureAccuracyError,
    bg_residual,
    bg_residual_direct,
    build_mu_basis,
    coherent_coefficients,
    decompose,
    density_grid,
    first_separation,
    ladder_f,
    log_bg_residual,
    moments,
    order_spectrum,
    pi_multiple_text,
    uncertainty_sweep,
)


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
            LadderSpectrum(np.array([1.0, 2.0]), np.array([0.0, 0.0]))  # f[0] != 0
        with pytest.raises(ValueError):
            LadderSpectrum(np.array([0.0, 2.0, 1.0]), np.array([0.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            LadderSpectrum(np.array([0.0, 1.0]), np.array([0.0]))  # shape mismatch
        with pytest.raises((ValueError, FloatingPointError)):
            LadderSpectrum.from_strengths([0.0, 0.0, 1.0])  # zero gap


class TestCoefficients:
    def test_zero_amplitude_is_ground(self, ladder_3pi, mu_3pi):
        state = coherent_coefficients(0.0, ladder_3pi, mu_3pi)
        assert state.coefficients[0] == 1.0
        assert np.all(state.coefficients[1:] == 0.0)
        assert state.log_normalization == 0.0
        assert state.localization_fraction() == 1.0

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
        assert state.localization_fraction(1) > 0.999
        assert state.localization_fraction(2) > state.localization_fraction(1)

    @pytest.mark.parametrize("psi", [math.nan, math.inf, complex(0.5, math.nan), complex(-math.inf, 1.0)])
    def test_non_finite_psi_rejected(self, ladder_3pi, mu_3pi, psi):
        with pytest.raises(ValueError, match="must be finite"):
            coherent_coefficients(psi, ladder_3pi, mu_3pi)

    def test_mismatched_ladder_rejected(self, mu_3pi):
        short = LadderSpectrum.from_strengths([0.0, 1.0, 3.0])
        with pytest.raises(ValueError):
            coherent_coefficients(1.0, short, mu_3pi)

    def test_coefficient_matrix_combines_levels(self, ladder_3pi, mu_3pi):
        state = coherent_coefficients(0.5, ladder_3pi, mu_3pi)
        mat = state.coefficient_matrix(mu_3pi.dim)
        # ground level (0,0) carries c_0; the (1,0)/(0,1) doublet carries c_1/sqrt(2)
        assert mat[0, 0] == pytest.approx(state.coefficients[0], rel=1e-14)
        assert mat[1, 0] == pytest.approx(state.coefficients[1] / math.sqrt(2.0), rel=1e-14)
        assert mat[0, 1] == pytest.approx(state.coefficients[1] / math.sqrt(2.0), rel=1e-14)

    @pytest.mark.parametrize("text", [pi_multiple_text(3.0), "24.41"])
    def test_coefficient_matrix_matches_level_sum(self, text):
        spectrum = order_spectrum(decompose(text, "irrational"))
        mix = MixingCoefficients.normalized(0.6 - 0.2j, 0.3 + 0.7j)
        mu = build_mu_basis(spectrum, mix, {2: MixingCoefficients.normalized(-1.0, 1j)})
        dim = spectrum.parameter.k + 1
        for psi in (0.5, 2.5 + 1.5j, -7j):
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
        ladder = LadderSpectrum.from_strengths(np.arange(mu_3pi.xi + 1.0))
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
            ladder = LadderSpectrum.from_strengths(np.concatenate([[0.0], np.cumsum(gaps)]))
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

    def test_rejects_unknown_axis(self, basis_3pi, mu_3pi):
        with pytest.raises(ValueError):
            moments(basis_3pi, mu_3pi.states[0], axis="z")


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
        frac_coherent = half_mass_fraction(density_grid(basis_3pi, coherent, default_n=250))
        frac_level = half_mass_fraction(density_grid(basis_3pi, mu_3pi.states[18], default_n=250))
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
