"""Wavefunctions, mixing, densities, and quadrature overlaps."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import gram_matrix_loop
from scipy.integrate import quad as scipy_quad

from morsekit import (
    GridSpec,
    MixingCoefficients,
    MorseBasis,
    MuState,
    PhysicalParams,
    QuadratureAccuracyError,
    QuadratureConfig,
    ScalarField2D,
    build_mu_basis,
    coherent_coefficients,
    decompose,
    density_grid,
    depth_for_principal,
    eigenfunction,
    gram_matrix,
    ladder_f,
    mu_wavefunction,
    normalization,
    order_spectrum,
    overlap,
)
from morsekit import states


@pytest.fixture(scope="module")
def small_basis():
    # nu = 5.6: exactly three bound 1D modes, cheap enough for scipy.quad oracles
    return MorseBasis(decompose("2.3", "rational"))


class TestNormalization:
    def test_ground_state_closed_form(self):
        # N_{0,0} = beta (nu - 1) / Gamma(nu) at nu = 19
        expected = 18.0 / math.factorial(18)
        assert normalization(19.0, 0, 0) == pytest.approx(expected, rel=1e-13)

    def test_factorizes_over_modes(self):
        basis = MorseBasis(decompose("9", "integer"))
        expected = math.exp(basis.log_norm_1d(1) + basis.log_norm_1d(2))
        assert normalization(19.0, 1, 2) == pytest.approx(expected, rel=1e-13)

    def test_swap_symmetric(self):
        assert normalization(19.0, 3, 7) == normalization(19.0, 7, 3)

    def test_beta_scales_linearly(self):
        assert normalization(19.0, 1, 1, beta=2.5) == pytest.approx(
            2.5 * normalization(19.0, 1, 1), rel=1e-14
        )

    def test_rejects_unbound_mode(self):
        # nu - (2*9 + 1) = 0: marginal, not normalizable
        with pytest.raises(ValueError):
            normalization(19.0, 9, 0)
        with pytest.raises(ValueError):
            normalization(19.0, 0, -1)


class TestModeValues:
    def test_against_high_precision_formula(self, small_basis):
        # independent route: N z^(p-n) e^(-z/2) L_n^(2(p-n))(z) in 50-digit arithmetic
        nu, p = small_basis.nu, small_basis.p
        for n in (0, 1, 2):
            for x in (-0.5, 0.0, 1.0, 3.0):
                with mpmath.workdps(50):
                    z = mpmath.mpf(nu) * mpmath.exp(-x)
                    norm = mpmath.sqrt(
                        (nu - 2 * n - 1) * mpmath.factorial(n) / mpmath.gamma(nu - n)
                    )
                    val = norm * z ** (p - n) * mpmath.exp(-z / 2) * mpmath.laguerre(
                        n, 2 * (p - n), z
                    )
                    expected = float(val)
                assert small_basis.mode_values(n, x) == pytest.approx(expected, rel=1e-12)

    def test_unit_norm_by_independent_quadrature(self, small_basis):
        lo, hi = small_basis.support_box()
        for n in (0, 1, 2):
            value, err = scipy_quad(
                lambda x: small_basis.mode_values(n, x) ** 2, lo, hi, limit=200
            )
            assert value == pytest.approx(1.0, abs=max(1e-9, 10 * err))

    def test_orthogonality_by_independent_quadrature(self, small_basis):
        lo, hi = small_basis.support_box()
        value, err = scipy_quad(
            lambda x: small_basis.mode_values(0, x) * small_basis.mode_values(2, x),
            lo,
            hi,
            limit=200,
        )
        assert abs(value) < max(1e-9, 10 * err)

    def test_rejects_unbound_mode(self):
        basis = MorseBasis(decompose("9", "integer"))
        with pytest.raises(ValueError):
            basis.mode_values(9, 0.0)
        assert basis.bound_modes() == list(range(9))

    def test_derivative_matches_finite_difference(self, small_basis):
        h = 1e-6
        xs = np.array([-0.4, 0.3, 1.7, 4.0])
        for n in (0, 1, 2):
            numeric = (small_basis.mode_values(n, xs + h) - small_basis.mode_values(n, xs - h)) / (
                2 * h
            )
            exact = small_basis.mode_derivative_values(n, xs)
            assert np.allclose(exact, numeric, rtol=1e-7, atol=1e-9)

    def test_deep_well_stays_finite(self):
        basis = MorseBasis(decompose("200.123456789", "irrational"))
        lo, hi = basis.support_box()
        xs = np.linspace(lo, hi, 64)
        for n in (0, 60, 150, 200):
            vals = basis.mode_values(n, xs)
            assert np.all(np.isfinite(vals))
            assert np.any(vals != 0.0)

    def test_mode_box_brackets_the_density(self, small_basis):
        for n in (0, 2):
            lo, hi = small_basis.mode_box(n)
            assert lo < hi
            xs = np.linspace(lo, hi, 512)
            peak = np.max(small_basis.mode_values(n, xs) ** 2)
            assert small_basis.mode_values(n, lo) ** 2 <= 1e-10 * peak
            assert small_basis.mode_values(n, hi) ** 2 <= 1e-10 * peak

    def test_support_box_contains_every_mode_box(self, small_basis):
        lo, hi = small_basis.support_box()
        for n in (0, 1, 2):
            mlo, mhi = small_basis.mode_box(n)
            assert lo <= mlo and mhi <= hi


class TestEigenfunction:
    def test_broadcasts(self, small_basis):
        x = np.linspace(-0.5, 3.0, 5)[:, None]
        y = np.linspace(-0.5, 3.0, 7)[None, :]
        vals = eigenfunction(small_basis, 2, 1, x, y)
        assert vals.shape == (5, 7)
        assert vals[3, 4] == pytest.approx(
            small_basis.mode_values(2, x[3, 0]) * small_basis.mode_values(1, y[0, 4])
        )

    def test_swap_reflects_arguments(self, small_basis):
        assert eigenfunction(small_basis, 2, 0, 0.4, 1.1) == pytest.approx(
            eigenfunction(small_basis, 0, 2, 1.1, 0.4), rel=1e-14
        )


class TestMixingCoefficients:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            MixingCoefficients(1.0, 1.0)

    def test_normalized_constructor(self):
        mix = MixingCoefficients.normalized(3.0, 4.0j)
        assert mix.gamma == pytest.approx(0.6)
        assert mix.delta == pytest.approx(0.8j)

    def test_normalized_rejects_zero(self):
        with pytest.raises(ValueError):
            MixingCoefficients.normalized(0.0, 0.0)

    def test_equal_mix_and_swap(self):
        mix = MixingCoefficients.equal_mix()
        assert mix.gamma == mix.delta
        asym = MixingCoefficients(math.sqrt(3.0) / 2.0, 0.5)
        assert asym.swapped().gamma == 0.5


class TestMuState:
    def test_diagonal_needs_no_coeffs(self):
        state = MuState(0, 3, 3)
        assert state.is_diagonal
        mat = state.coefficient_matrix(5)
        assert mat[3, 3] == 1.0
        assert np.count_nonzero(mat) == 1

    def test_mixed_matrix_entries(self):
        mix = MixingCoefficients.normalized(1.0, 1.0j)
        state = MuState(4, 5, 2, mix)
        mat = state.coefficient_matrix(6)
        assert mat[5, 2] == mix.gamma
        assert mat[2, 5] == mix.delta

    def test_validation(self):
        with pytest.raises(ValueError):
            MuState(0, 2, 2, MixingCoefficients.equal_mix())  # diagonal with coeffs
        with pytest.raises(ValueError):
            MuState(0, 1, 3, MixingCoefficients.equal_mix())  # n < m
        with pytest.raises(ValueError):
            MuState(0, 2, 1)  # mixed without coeffs
        with pytest.raises(ValueError):
            MuState(0, 2, 2).coefficient_matrix(2)  # does not fit


class TestMuBasis:
    def test_one_state_per_level(self, spectrum_3pi, mu_3pi):
        assert mu_3pi.xi == 54
        assert mu_3pi.dim == 10
        assert len(mu_3pi.states) == 55
        for i, state in enumerate(mu_3pi.states):
            assert state.index == i
            assert (state.n, state.m) == spectrum_3pi.levels[i].members[0]

    def test_override_replaces_single_level(self, spectrum_3pi):
        special = MixingCoefficients.normalized(1.0, -1.0)
        basis = build_mu_basis(spectrum_3pi, overrides={18: special})
        assert basis.states[18].coeffs == special
        assert basis.states[1].coeffs == MixingCoefficients.equal_mix()

    def test_rejects_accidental_spectrum(self):
        spectrum = order_spectrum(decompose("9", "integer"))
        with pytest.raises(ValueError):
            build_mu_basis(spectrum)

    def test_mu_wavefunction_reduces_to_eigenfunction(self, basis_3pi, mu_3pi):
        pure = MixingCoefficients(1.0, 0.0)
        state = MuState(1, 1, 0, pure)
        x, y = 0.7, 1.9
        assert mu_wavefunction(basis_3pi, state, x, y) == pytest.approx(
            eigenfunction(basis_3pi, 1, 0, x, y), rel=1e-14
        )

    def test_mu_wavefunction_mixes_linearly(self, basis_3pi):
        mix = MixingCoefficients.normalized(2.0, 1.0j)
        state = MuState(5, 3, 1, mix)
        x, y = 1.2, 0.4
        expected = mix.gamma * eigenfunction(basis_3pi, 3, 1, x, y) + mix.delta * eigenfunction(
            basis_3pi, 1, 3, x, y
        )
        assert mu_wavefunction(basis_3pi, state, x, y) == pytest.approx(expected, rel=1e-13)


class TestGrids:
    def test_cell_centers(self):
        grid = GridSpec(0.0, 1.0, 0.0, 2.0, 4, 2)
        assert np.allclose(grid.x_centers(), [0.125, 0.375, 0.625, 0.875])
        assert np.allclose(grid.y_centers(), [0.5, 1.5])
        assert grid.cell_area == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 0.0, 0.0, 1.0, 4, 4)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 0.0, 1.0, 1, 4)

    def test_field_shape_checked(self):
        grid = GridSpec(0.0, 1.0, 0.0, 1.0, 3, 3)
        with pytest.raises(ValueError):
            ScalarField2D(grid, np.zeros((3, 4)))

    def test_riemann_sum_of_ones_is_area(self):
        grid = GridSpec(0.0, 2.0, 0.0, 3.0, 8, 8)
        field = ScalarField2D(grid, np.ones((8, 8)))
        assert field.riemann_sum() == pytest.approx(6.0, rel=1e-14)


class TestQuadratureConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(points_per_axis=10, panels=3)
        with pytest.raises(ValueError):
            QuadratureConfig(points_per_axis=4, panels=4)
        with pytest.raises(ValueError):
            QuadratureConfig(panels=0)

    def test_refined_doubles(self):
        quad = QuadratureConfig(points_per_axis=40, panels=4)
        fine = quad.refined()
        assert fine.points_per_axis == 80
        assert fine.panels == 8

    def test_nodes_integrate_polynomials_exactly(self):
        quad = QuadratureConfig(points_per_axis=40, panels=4)
        x, w = quad.nodes(0.0, 2.0)
        assert np.sum(w) == pytest.approx(2.0, rel=1e-14)
        assert np.sum(w * x**3) == pytest.approx(4.0, rel=1e-13)

    def test_graded_nodes_still_cover_interval(self):
        quad = QuadratureConfig(points_per_axis=40, panels=4)
        x, w = quad.nodes(-1.0, 9.0, split=1.0)
        assert np.sum(w) == pytest.approx(10.0, rel=1e-13)
        assert np.sum(w * x) == pytest.approx(40.0, rel=1e-12)
        # most nodes concentrate left of the split
        assert np.count_nonzero(x < 1.0) > x.size // 2

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            QuadratureConfig().nodes(1.0, 1.0)


class TestDensity:
    def test_riemann_sum_near_unity(self, basis_3pi, mu_3pi):
        field = density_grid(basis_3pi, mu_3pi.states[18], default_n=300)
        assert field.riemann_sum() == pytest.approx(1.0, abs=0.02)

    def test_equal_mix_density_is_transpose_symmetric(self, basis_3pi, mu_3pi):
        field = density_grid(basis_3pi, mu_3pi.states[18], default_n=200)
        assert np.allclose(field.values, field.values.T, atol=1e-13)

    def test_swapped_mix_transposes_the_field(self, basis_3pi, spectrum_3pi):
        mix = MixingCoefficients.normalized(math.sqrt(3.0), 1.0)
        lo, hi = basis_3pi.support_box()
        grid = GridSpec(lo, hi, lo, hi, 150, 150)
        a = density_grid(basis_3pi, MuState(18, 6, 1, mix), grid=grid)
        b = density_grid(basis_3pi, MuState(18, 6, 1, mix.swapped()), grid=grid)
        assert np.allclose(a.values, b.values.T, atol=1e-13)

    def test_quarter_phase_halves_the_diagonal(self, basis_3pi):
        # |gamma + delta|^2 = 2 for the equal mix but 1 for the i-phased mix,
        # so along x = y one density is exactly twice the other
        equal = MuState(18, 6, 1, MixingCoefficients.equal_mix())
        phased = MuState(
            18, 6, 1, MixingCoefficients(1.0 / math.sqrt(2.0), 1.0j / math.sqrt(2.0))
        )
        lo, hi = basis_3pi.support_box()
        grid = GridSpec(lo, hi, lo, hi, 120, 120)
        d_equal = np.diag(density_grid(basis_3pi, equal, grid=grid).values)
        d_phased = np.diag(density_grid(basis_3pi, phased, grid=grid).values)
        assert np.allclose(d_equal, 2.0 * d_phased, atol=1e-13)

    def test_matches_pointwise_amplitude(self, basis_3pi, mu_3pi):
        state = mu_3pi.states[3]
        grid = GridSpec(0.0, 4.0, 0.0, 4.0, 16, 16)
        field = density_grid(basis_3pi, state, grid=grid)
        xs, ys = grid.x_centers(), grid.y_centers()
        direct = np.abs(mu_wavefunction(basis_3pi, state, xs[:, None], ys[None, :])) ** 2
        assert np.allclose(field.values, direct, rtol=1e-12, atol=1e-15)


class TestOverlap:
    def test_mu_states_are_orthonormal(self, basis_3pi, mu_3pi):
        picks = [0, 1, 3, 18, 54]
        for i in picks:
            for j in picks:
                value = overlap(basis_3pi, mu_3pi.states[i], mu_3pi.states[j])
                expected = 1.0 if i == j else 0.0
                assert value == pytest.approx(expected, abs=1e-8)

    def test_gram_is_identity(self, basis_3pi, mu_3pi):
        g = gram_matrix(basis_3pi, mu_3pi.states)
        assert np.max(np.abs(g - np.eye(len(mu_3pi.states)))) < 1e-7

    def test_rejects_state_on_unbound_mode(self):
        basis = MorseBasis(decompose("9", "integer"))
        with pytest.raises(ValueError):
            overlap(basis, MuState(0, 9, 9), MuState(0, 9, 9))

    def test_quad_argument_is_accepted_and_unused(self, basis_3pi, mu_3pi):
        state = mu_3pi.states[18]
        coarse = QuadratureConfig(points_per_axis=4, panels=1)
        assert overlap(basis_3pi, state, state, quad=coarse) == overlap(basis_3pi, state, state)


def _deviation_from_identity(s, size):
    return float(np.abs(s - np.eye(size)).max())


class TestOverlapTable:
    """MorseBasis.overlap_table: the Gauss-Laguerre rule with K + 1 nodes is exact."""

    def test_matches_composite_rule_at_reference_well(self, basis_3pi):
        # an independent rule: graded composite Gauss-Legendre in x, 800 nodes
        composite = basis_3pi.mode_tables(QuadratureConfig().refined()).overlap_1d
        assert np.max(np.abs(basis_3pi.overlap_table() - composite)) <= 1e-10
        assert basis_3pi.overlap_table() is basis_3pi.overlap_table()

    @pytest.mark.deep
    @settings(max_examples=12, deadline=None)
    @given(
        k=st.integers(min_value=0, max_value=200),
        eps=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_property_identity(self, k, eps):
        basis = MorseBasis(decompose(f"{k}.{round(eps * 10**12):012d}", "irrational"))
        assert _deviation_from_identity(basis.overlap_table(), k + 1) <= 1e-9

    @pytest.mark.parametrize("text", ["9", pytest.param("150", marks=pytest.mark.deep)])
    def test_integer_well_leaves_top_mode_out(self, text):
        # nu - (2k + 1) = 0: the top mode is unbound, K = k - 1 and alpha = 1
        basis = MorseBasis(decompose(text, "integer"))
        s = basis.overlap_table()
        k = basis.k
        assert basis.bound_modes()[-1] == k - 1
        assert _deviation_from_identity(s[:k, :k], k) <= 1e-10
        assert not np.any(s[k]) and not np.any(s[:, k])

    def test_physical_well_with_range_parameter(self):
        # beta = 2.5 enters both N_n^2 and dx = -dz / (beta z); a slip shows as S = beta I
        depth = depth_for_principal(12.3717, mass=1.7, beta=2.5, hbar=0.8)
        basis = MorseBasis(decompose("12.3717", "irrational"), PhysicalParams(1.7, depth, 2.5, 0.8))
        s = basis.overlap_table()
        assert _deviation_from_identity(s, 13) <= 1e-12
        composite = basis.mode_tables(QuadratureConfig().refined()).overlap_1d
        assert np.max(np.abs(s - composite)) <= 1e-9

    @pytest.mark.parametrize("text", ["45.0123", "45.618", "60.0271"])
    def test_gram_identity_where_the_composite_rule_failed(self, text):
        # wells where the refined composite rule is off by 4.9e-7 (k = 45) and 2.5e-3 (k = 60)
        param = decompose(text, "irrational")
        mu = build_mu_basis(order_spectrum(param))
        g = gram_matrix(MorseBasis(param), mu.states)
        assert _deviation_from_identity(g, len(mu.states)) <= 1e-10

    def test_failed_check_raises_with_its_numbers(self, p3pi, monkeypatch):
        # three nodes short of K + 1, the rule is no longer exact and the
        # N + 8 check catches it
        exact = states._gauss_laguerre
        monkeypatch.setattr(states, "_gauss_laguerre", lambda nodes, alpha: exact(nodes - 3, alpha))
        basis = MorseBasis(p3pi)
        alpha = basis.nu - 20.0
        with pytest.raises(QuadratureAccuracyError) as info:
            basis.overlap_table()
        err = info.value
        assert (err.quantity, err.tol, err.rule) == ("overlap table", 1e-7, (10, alpha))
        assert err.delta > err.tol
        assert str(err) == (
            f"overlap table moved by {err.delta:.3e} from 10 to 18 Gauss-Laguerre nodes "
            f"(alpha = {alpha!r})"
        )
        state = MuState(0, 0, 0)
        with pytest.raises(QuadratureAccuracyError):
            overlap(basis, state, state)
        with pytest.raises(QuadratureAccuracyError):
            gram_matrix(basis, [state])


class TestGramMatrix:
    """gram_matrix against the per-pair vdot loop it replaced (tests/oracles.py)."""

    @pytest.fixture(scope="class")
    def deep_well(self):
        # k = 20, complex unequal mixing with one level overridden
        p = decompose("20.618", "irrational")
        mix = MixingCoefficients.normalized(0.3 + 0.8j, -0.5 + 0.1j)
        spectrum = order_spectrum(p)
        mu = build_mu_basis(spectrum, mix, {4: MixingCoefficients.normalized(1j, 2.0)})
        return MorseBasis(p), mu

    @staticmethod
    def _check(basis, states):
        g = gram_matrix(basis, states)
        assert g.shape == (len(states), len(states))
        assert np.max(np.abs(g - gram_matrix_loop(basis, states))) <= 1e-15
        assert np.max(np.abs(g - g.conj().T)) <= 1e-15
        return g

    def test_reference_well(self, basis_3pi, mu_3pi):
        self._check(basis_3pi, mu_3pi.states)

    def test_deep_well_complex_mixing(self, deep_well):
        basis, mu = deep_well
        assert basis.k == 20
        g = self._check(basis, mu.states)
        assert np.max(np.abs(g - np.eye(len(mu.states)))) < 1e-7

    def test_mixed_state_types(self, deep_well):
        # the coherent state spans many pairs of terms, which are summed into one row and column
        basis, mu = deep_well
        coherent = coherent_coefficients(1.3 - 0.7j, ladder_f(mu.spectrum), mu)
        g = self._check(basis, [mu.states[0], mu.states[4], coherent, mu.states[7]])
        assert g[2, 2] == pytest.approx(1.0, abs=1e-12)
        assert g[1, 2] == pytest.approx(coherent.coefficients[4], abs=1e-12)

    def test_empty_state_list(self, basis_3pi):
        g = gram_matrix(basis_3pi, [])
        assert g.shape == (0, 0)
