"""Wavefunctions, mixing, densities, and quadrature overlaps."""

import cmath
import math
import tracemalloc
import types

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    density_grid_loop,
    gauss_laguerre_rule,
    gram_matrix_loop,
    gram_matrix_pairs,
    gram_matrix_swap_pairs,
    ladder_strengths_increase,
    log_norm_1d,
    mode_box_scan,
    mode_derivative_loop,
    mode_derivative_values,
    mode_tables_loop,
    mode_values_loop,
    mu_wavefunction,
    overlap,
    overlap_table_loop,
    pair_columns_fields,
    support_box_loop,
)
from scipy.integrate import quad as scipy_quad

from morsekit import (
    CoherentState,
    GridSpec,
    MixingCoefficients,
    ModeTables,
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
    normalization,
    order_spectrum,
    pi_multiple_text,
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
        expected = math.exp(log_norm_1d(basis, 1) + log_norm_1d(basis, 2))
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

    @pytest.mark.parametrize(
        ("text", "mode", "physical"),
        [("0.3717", "irrational", False), ("1e-300", "irrational", False), ("9", "integer", False),
         ("28", "integer", False), ("12.3717", "irrational", True), ("9", "integer", True)],
    )
    def test_bound_modes_follow_the_formula(self, text, mode, physical):
        # k = 0, no bound mode at all (nu rounds to 1), mode k unbound at integer p, and wells from physical constants
        param = decompose(text, mode)
        depth = depth_for_principal(param.p_value, mass=1.7, beta=2.5, hbar=0.8)
        basis = MorseBasis(param, PhysicalParams(1.7, depth, 2.5, 0.8) if physical else None)
        bound = [n for n in range(basis.k + 1) if basis.nu - (2.0 * n + 1.0) > 0.0]
        assert basis.bound_modes() == bound
        assert [n for n in range(-1, basis.k + 2) if basis.mode_is_bound(n)] == bound

    def test_physical_constants_must_give_the_declared_p(self):
        param = decompose("12.3717", "irrational")
        physical = PhysicalParams(1.0, depth_for_principal(9.3717), 1.0, 1.0)
        with pytest.raises(ValueError, match=r"^physical parameters give p = 9\.3717.*, but the principal parameter declares 12\.3717$"):
            MorseBasis(param, physical)

    def test_log_norms_are_computed_once_per_well(self, monkeypatch):
        calls = []
        original = states._log_norm
        monkeypatch.setattr(states, "_log_norm", lambda nu, n: calls.append(n) or original(nu, n))
        param = decompose("24.3717", "irrational")
        basis = MorseBasis(param)
        mu = build_mu_basis(order_spectrum(param))
        state = coherent_coefficients(1.5, ladder_f(mu.spectrum), mu)
        density_grid(basis, state, GridSpec(-1.0, 6.0, -1.0, 6.0, 20, 20))
        basis.overlap_table()
        basis.support_box()
        basis.mode_values(3, 0.5)
        assert calls == basis.bound_modes()
        # the cached values are _log_norm's own, bit for bit
        for n in basis.bound_modes():
            assert log_norm_1d(basis, n) == 0.5 * math.log(basis.beta) + original(basis.nu, n)

    def test_derivative_matches_finite_difference(self, small_basis):
        h = 1e-6
        xs = np.array([-0.4, 0.3, 1.7, 4.0])
        for n in (0, 1, 2):
            numeric = (small_basis.mode_values(n, xs + h) - small_basis.mode_values(n, xs - h)) / (
                2 * h
            )
            exact = mode_derivative_values(small_basis, n, xs)
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


# at p = 1e-300, nu = 2p + 1 rounds to 1, so no mode is bound (top_mode is -1)
NO_BOUND_MODE = r"^mode n = 0 has nu - \(2n\+1\) = 0\.0 <= 0 and is not normalizable$"
NO_BOUND_CALLS = {
    "support_box": lambda basis: basis.support_box(),
    "mode_box": lambda basis: basis.mode_box(0),
    "overlap_table": lambda basis: basis.overlap_table(),
    "mode_tables": lambda basis: basis.mode_tables(QuadratureConfig()),
    "gram_matrix": lambda basis: gram_matrix(basis, [MuState(0, 0, 0)]),
}


@pytest.mark.parametrize("name", sorted(NO_BOUND_CALLS))
def test_well_with_no_bound_mode_is_refused_by_name(name):
    basis = MorseBasis(decompose("1e-300", "irrational"))
    assert basis.top_mode == -1
    with pytest.raises(ValueError, match=NO_BOUND_MODE):
        NO_BOUND_CALLS[name](basis)


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

    @pytest.mark.parametrize("bad", [math.nan, complex(1.0, math.nan), math.inf])
    def test_rejects_non_finite(self, bad):
        # a NaN norm fails every comparison, so it must not slip past the check
        with pytest.raises(ValueError, match="expected 1 within 1e-12"):
            MixingCoefficients(bad, 0.0)
        with pytest.raises(ValueError, match="expected 1 within 1e-12"):
            MixingCoefficients.normalized(1.0, bad)

    def test_equal_mix_and_swap(self):
        mix = MixingCoefficients.equal_mix()
        assert mix.gamma == mix.delta
        asym = MixingCoefficients(math.sqrt(3.0) / 2.0, 0.5)
        assert MixingCoefficients(asym.delta, asym.gamma).gamma == 0.5


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

    @pytest.mark.parametrize("slot", range(4))
    @pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf])
    def test_rejects_non_finite_bounds(self, slot, bad):
        bounds = [0.0, 1.0, 0.0, 1.0]
        bounds[slot] = bad
        with pytest.raises(ValueError, match="finite"):
            GridSpec(*bounds, 4, 4)

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
        field = density_grid(basis_3pi, mu_3pi.states[18])
        assert field.riemann_sum() == pytest.approx(1.0, abs=0.02)

    def test_equal_mix_density_is_transpose_symmetric(self, basis_3pi, mu_3pi):
        field = density_grid(basis_3pi, mu_3pi.states[18])
        assert np.allclose(field.values, field.values.T, atol=1e-13)

    def test_swapped_mix_transposes_the_field(self, basis_3pi, spectrum_3pi):
        mix = MixingCoefficients.normalized(math.sqrt(3.0), 1.0)
        lo, hi = basis_3pi.support_box()
        grid = GridSpec(lo, hi, lo, hi, 150, 150)
        a = density_grid(basis_3pi, MuState(18, 6, 1, mix), grid=grid)
        b = density_grid(basis_3pi, MuState(18, 6, 1, MixingCoefficients(mix.delta, mix.gamma)), grid=grid)
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

    def test_state_without_terms_gives_a_zero_field(self, basis_3pi, mu_3pi, ladder_3pi):
        # no used mode: the block is 0 x 0 and the rows are 0 x samples
        empty = CoherentState(0.5, np.zeros(mu_3pi.xi + 1, dtype=complex), 0.0, mu_3pi, ladder_3pi)
        field = density_grid(basis_3pi, empty, GridSpec(-1.0, 6.0, -1.0, 6.0, 20, 30))
        assert _same_bits(field.values, np.zeros((20, 30)))


class TestDensityOnUsedModes:
    """density_grid contracts the used modes' block and equals the per-mode loop over all k + 1 rows bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(
        k=st.integers(min_value=0, max_value=60),
        eps=st.floats(min_value=0.01, max_value=0.99),
        gamma=st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
        delta=st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0, allow_nan=False, allow_infinity=False),
        psi=st.one_of(st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
                      st.sampled_from([20.0, 12.0 - 9.0j])),
        level=st.integers(min_value=0, max_value=10**6),
        shape=st.sampled_from([(40, 30), (400, 400)]),
    )
    # p = 47.5000000000003717 has distinct energies but two equal ladder gaps: ladder_f refuses it
    @example(k=47, eps=0.5, gamma=0j, delta=1 + 0j, psi=20.0, level=0, shape=(40, 30))
    def test_property_against_loop(self, k, eps, gamma, delta, psi, level, shape):
        # a level state uses at most two of the K + 1 modes, a coherent state a few dozen
        param = decompose(f"{k}.{round(eps * 10**12):012d}3717", "irrational")
        spectrum = order_spectrum(param)
        mu = build_mu_basis(spectrum, MixingCoefficients.normalized(gamma, delta))
        basis = MorseBasis(param)
        lo, hi = basis.support_box()
        grid = GridSpec(lo, hi, lo - 0.5, hi, *shape)
        chosen = [mu.states[level % len(mu.states)], mu.states[-1]]
        if ladder_strengths_increase(spectrum):
            chosen.append(coherent_coefficients(psi, ladder_f(spectrum), mu))
        for state in chosen:
            assert _same_bits(density_grid(basis, state, grid).values, density_grid_loop(basis, state, grid))

    @pytest.mark.deep
    @pytest.mark.parametrize("text", ["200.3717", "400.3717"])
    def test_deep_coherent_states_against_loop(self, text):
        param = decompose(text, "irrational")
        spectrum = order_spectrum(param)
        mu = build_mu_basis(spectrum, MixingCoefficients.normalized(0.6 - 0.2j, 0.3 + 0.7j))
        ladder = ladder_f(spectrum)
        basis = MorseBasis(param)
        for psi in (0.5, 2.0, 20.0):
            state = coherent_coefficients(psi, ladder, mu)
            assert states._expand(basis, state)[1].size < basis.top_mode + 1
            field = density_grid(basis, state)
            assert _same_bits(field.values, density_grid_loop(basis, state, field.spec))

    @pytest.mark.deep
    @pytest.mark.parametrize("text", ["150.3717", "200.3717"])
    def test_deep_level_states_against_loop(self, text):
        # above k = 127 OpenBLAS's SkylakeX zgemm splits the loop's inner dimension k + 1 in two, so a level
        # state with a mode on each side is summed in two roundings there and in one here: equal to rounding
        param = decompose(text, "irrational")
        basis = MorseBasis(param)
        lo, hi = basis.support_box()
        grid = GridSpec(lo, hi, lo, hi, 200, 200)
        mix = MixingCoefficients.normalized(0.6 - 0.2j, 0.3 + 0.7j)
        for n, m in ((param.k, 0), (param.k - 30, param.k // 3), (param.k // 2, param.k // 2)):
            state = MuState(0, n, m, None if n == m else mix)
            expected = density_grid_loop(basis, state, grid)
            assert np.allclose(density_grid(basis, state, grid).values, expected, rtol=2e-15, atol=0.0)


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

    @pytest.mark.parametrize(
        ("text", "mode"),
        [("3pi", "irrational"), ("9.3717", "irrational"), ("15.3717", "irrational"), ("24.3717", "irrational"),
         ("26.86", "irrational"), ("45.084", "irrational"), ("60.3717", "irrational"), ("28", "integer")],
    )
    def test_rules_polished_together_equal_each_rule_alone(self, text, mode, monkeypatch):
        # both rules in one Laguerre pass per step give the per-rule nodes, weights and table bit for bit
        text = pi_multiple_text(3.0) if text == "3pi" else text
        basis = MorseBasis(decompose(text, mode))
        top = basis.bound_modes()[-1]
        counts, alpha = (top + 1, top + 1 + states._CHECK_NODES), basis.nu - 2.0 * top - 2.0
        for (z, log_w), nodes in zip(states._gauss_laguerre_rules(counts, alpha), counts):
            z_one, log_w_one = gauss_laguerre_rule(nodes, alpha)
            assert np.array_equal(z, z_one) and np.array_equal(log_w, log_w_one)
        table = basis.overlap_table()
        monkeypatch.setattr(states, "_gauss_laguerre_rules",
                            lambda counts, alpha: [gauss_laguerre_rule(nodes, alpha) for nodes in counts])
        assert np.array_equal(table, MorseBasis(basis.principal).overlap_table())

    def test_failed_check_raises_with_its_numbers(self, p3pi, monkeypatch):
        # three nodes short of K + 1, the rule is no longer exact and the
        # N + 8 check catches it
        exact = states._gauss_laguerre_rules
        monkeypatch.setattr(states, "_gauss_laguerre_rules",
                            lambda counts, alpha: exact([c - 3 for c in counts], alpha))
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
    """gram_matrix against the per-pair vdot loop and the entry-pair form it replaced (tests/oracles.py)."""

    @pytest.fixture(scope="class")
    def deep_well(self):
        # k = 20, complex unequal mixing
        p = decompose("20.618", "irrational")
        mix = MixingCoefficients.normalized(0.3 + 0.8j, -0.5 + 0.1j)
        return MorseBasis(p), build_mu_basis(order_spectrum(p), mix)

    @staticmethod
    def _hand_built(mu, i, gamma, delta):
        """Level i's state with its own mixing pair in place of the basis's."""
        return MuState(i, int(mu.spectrum.n[i]), int(mu.spectrum.m[i]), MixingCoefficients.normalized(gamma, delta))

    @staticmethod
    def _check(basis, states, loop=True):
        g = gram_matrix(basis, states)
        assert g.shape == (len(states), len(states)) and g.dtype == complex
        assert np.max(np.abs(g - gram_matrix_swap_pairs(basis, states))) <= 1e-15
        assert np.max(np.abs(g - gram_matrix_pairs(basis, states))) <= 1e-15
        if loop:
            assert np.max(np.abs(g - gram_matrix_loop(basis, states))) <= 1e-15
        assert np.max(np.abs(g - g.conj().T)) <= 1e-15
        return g

    def test_reference_well(self, basis_3pi, mu_3pi):
        self._check(basis_3pi, mu_3pi.states)

    def test_deep_well_complex_mixing(self, deep_well):
        # level 4 carries another pair than the rest, so one call sees two pairs
        basis, mu = deep_well
        assert basis.k == 20
        levels = list(mu.states)
        levels[4] = self._hand_built(mu, 4, 1j, 2.0)
        g = self._check(basis, levels)
        assert np.max(np.abs(g - np.eye(len(levels)))) < 1e-7

    @pytest.mark.parametrize("text", ["9.3717", "45.1717", pytest.param("60.3717", marks=pytest.mark.deep)])
    def test_level_basis_against_entry_pairs(self, text):
        param = decompose(text, "irrational")
        mu = build_mu_basis(order_spectrum(param), MixingCoefficients.normalized(0.6 - 0.2j, 0.3 + 0.7j))
        g = self._check(MorseBasis(param), mu.states, loop=False)
        assert np.max(np.abs(g - np.eye(len(mu.states)))) <= 1e-10

    def test_mixed_state_types(self, deep_well):
        # the coherent state spans many pairs of terms, which are summed into one row and column
        basis, mu = deep_well
        coherent = coherent_coefficients(1.3 - 0.7j, ladder_f(mu.spectrum), mu)
        g = self._check(basis, [mu.states[0], mu.states[4], coherent, mu.states[7]])
        assert g[2, 2] == pytest.approx(1.0, abs=1e-12)
        assert g[1, 2] == pytest.approx(coherent.coefficients[4], abs=1e-12)

    def test_coherent_states_only(self, deep_well):
        basis, mu = deep_well
        ladder = ladder_f(mu.spectrum)
        states = [coherent_coefficients(psi, ladder, mu) for psi in (0.0, 0.4, 2.0 + 1.5j, -3.0j)]
        g = self._check(basis, states)
        assert np.max(np.abs(np.diag(g) - 1.0)) <= 1e-12

    def test_hand_built_coherent_states(self, deep_well):
        # unequal complex gamma and delta, a pair without its partner (delta = 0), a singlet,
        # a level state with its own pair, and an all-zero state
        basis, mu = deep_well
        spectrum = mu.spectrum
        doublets = np.flatnonzero(spectrum.n != spectrum.m)
        lone, mixed = int(doublets[3]), int(doublets[5])
        singlet = int(np.flatnonzero(spectrum.n == spectrum.m)[1])
        rng = np.random.default_rng(25)
        c = np.zeros(mu.xi + 1, dtype=complex)
        picks = [mixed, lone, singlet, 4]
        c[picks] = rng.normal(size=4) + 1j * rng.normal(size=4)
        c /= np.linalg.norm(c)
        ladder = ladder_f(spectrum)
        custom = CoherentState(0.5, c, 0.0, mu, ladder)
        empty = CoherentState(0.5, np.zeros(mu.xi + 1, dtype=complex), 0.0, mu, ladder)
        half, swapped = self._hand_built(mu, lone, 1.0, 0.0), self._hand_built(mu, 4, 1j, 2.0)
        assert [pair[:2] for pair in custom.pairs] == [(spectrum.n[i], spectrum.m[i]) for i in sorted(picks)]
        by_level = dict(zip(sorted(picks), custom.pairs))
        assert by_level[mixed][2] != by_level[mixed][3] and half.pairs[0][3] == 0.0
        assert by_level[singlet][2] == c[singlet] and empty.pairs == ()
        g = self._check(basis, [custom, mu.states[2], empty, custom, half, empty, swapped])
        for i in (2, 5):
            assert not np.any(g[i]) and not np.any(g[:, i])
        assert g[0, 3] == pytest.approx(1.0, abs=1e-12)
        gamma, delta = mu.coeffs.gamma, mu.coeffs.delta
        assert g[4, 0] == pytest.approx(c[lone] * gamma, abs=1e-12)
        other = swapped.coeffs
        assert g[6, 0] == pytest.approx(c[4] * (other.gamma.conjugate() * gamma + other.delta.conjugate() * delta),
                                        abs=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(
        k=st.integers(min_value=0, max_value=20),
        eps=st.floats(min_value=0.01, max_value=0.99),
        gamma=st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
        delta=st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0, allow_nan=False, allow_infinity=False),
        psi=st.floats(min_value=0.0, max_value=5.0),
    )
    def test_property_against_loop(self, k, eps, gamma, delta, psi):
        # the trailing digits keep eps off the exact crossings, which irrational mode refuses
        param = decompose(f"{k}.{round(eps * 10**12):012d}3717", "irrational")
        spectrum = order_spectrum(param)
        mu = build_mu_basis(spectrum, MixingCoefficients.normalized(gamma, delta))
        basis = MorseBasis(param)
        self._check(basis, mu.states)
        if ladder_strengths_increase(spectrum):
            coherent = coherent_coefficients(psi * cmath.exp(0.7j), ladder_f(spectrum), mu)
            self._check(basis, [coherent, mu.states[-1], coherent])

    @pytest.mark.parametrize(
        "mix", [(0.8, -0.6), (0.6, 0.8j), (0.6 - 0.2j, 0.3 + 0.7j)], ids=["real", "imaginary-delta", "complex"]
    )
    def test_real_and_complex_mixing(self, mix):
        # real mixing leaves the imaginary half at zero without computing it
        param = decompose("24.3717", "irrational")
        mu = build_mu_basis(order_spectrum(param), MixingCoefficients.normalized(*mix))
        g = self._check(MorseBasis(param), mu.states)
        assert np.any(g.imag) == any(isinstance(x, complex) for x in mix)

    @settings(max_examples=12, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=8),
        eps=st.floats(min_value=0.01, max_value=0.99),
        gamma=st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
        psi=st.floats(min_value=0.1, max_value=3.0),
        picks=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=6),
        data=st.data(),
    )
    def test_property_across_block_edges(self, k, eps, gamma, psi, picks, data):
        # level states, coherent states and one doublet with its own pair; blocks of 1, 7, L and 7L
        # elements give one row per block up to seven, most with a short last block
        param = decompose(f"{k}.{round(eps * 10**12):012d}3717", "irrational")
        spectrum = order_spectrum(param)
        doublets = np.flatnonzero(spectrum.n != spectrum.m).tolist()
        mu = build_mu_basis(spectrum, MixingCoefficients.normalized(0.3, 0.7j))
        basis = MorseBasis(param)
        own = self._hand_built(mu, data.draw(st.sampled_from(doublets)), gamma, 0.4 - 0.3j)
        chosen = [mu.states[i % len(mu.states)] for i in picks] + [own]
        if ladder_strengths_increase(spectrum):
            ladder = ladder_f(spectrum)
            chosen[1:1] = [coherent_coefficients(psi * cmath.exp(1.1j), ladder, mu)]
        for lists in (mu.states, chosen):
            for block in (1, 7, len(lists), 7 * len(lists)):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(states, "_GRAM_BLOCK", block)
                    self._check(basis, lists)

    def test_peak_memory_is_the_result_and_one_block(self):
        # the real halves are written block by block into the complex result
        param = decompose("60.3717", "irrational")
        levels = build_mu_basis(order_spectrum(param)).states
        basis = MorseBasis(param)
        tracemalloc.start()
        try:
            g = gram_matrix(basis, levels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * g.nbytes

    @pytest.mark.deep
    def test_peak_memory_of_many_pair_states_is_not_pairs_squared(self):
        # four psi = 20 coherent states at k = 200 hold 1884 pairs: each block is
        # summed by state before the next, never forming the pairs x pairs matrix
        param = decompose("200.3717", "irrational")
        spectrum = order_spectrum(param)
        mu = build_mu_basis(spectrum, MixingCoefficients.normalized(0.6 - 0.2j, 0.3 + 0.7j))
        coherent = [coherent_coefficients(20.0, ladder_f(spectrum), mu)] * 4
        basis = MorseBasis(param)
        basis.overlap_table()
        pairs = 4 * len(coherent[0].pairs)
        tracemalloc.start()
        try:
            g = gram_matrix(basis, coherent)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.shape == (4, 4) and np.max(np.abs(g - 1.0)) <= 1e-10
        assert peak < pairs * pairs * 16 / 4

    def test_threshold_mode_of_an_integer_well_is_refused(self):
        # p = 4: the census counts |4, 4> (level mu_14), but mode n = 4 sits at E = 0
        spectrum = order_spectrum(decompose("4", "integer"))
        mu = build_mu_basis(spectrum)
        basis = MorseBasis(spectrum.parameter)
        assert mu.states[14].n == 4
        with pytest.raises(ValueError, match=r"^mode n = 4 has .* not normalizable: .* level mu_14, which uses one"):
            gram_matrix(basis, [mu.states[0], mu.states[14]])
        coherent = coherent_coefficients(3.0, ladder_f(spectrum), mu)
        with pytest.raises(ValueError, match="dissociation threshold"):
            gram_matrix(basis, [mu.states[0], coherent])
        # the first state that uses mode 4 is the one named
        with pytest.raises(ValueError, match="level mu_14, which uses one"):
            gram_matrix(basis, [mu.states[0], mu.states[14], coherent])
        with pytest.raises(ValueError, match="so the states that use them are counted"):
            gram_matrix(basis, [mu.states[0], coherent, mu.states[14]])

    def test_near_integer_p_rounded_to_the_threshold_is_not_called_integer(self):
        # p = 4 + 1e-31 rounds to 4.0, so mode 4 has a float gap of exactly 0, but p is not an integer
        basis = MorseBasis(decompose("4.0000000000000000000000000000001", "irrational"))
        assert basis.nu - 9.0 == 0.0
        with pytest.raises(ValueError, match=r"^mode n = 4 has nu - \(2n\+1\) = 0\.0 <= 0 and is not normalizable$"):
            gram_matrix(basis, [MuState(0, 0, 0), MuState(14, 4, 4)])

    def test_object_without_a_coefficient_matrix_is_refused(self, basis_3pi):
        # anything without swap pairs, a bare coefficient matrix included
        matrix = types.SimpleNamespace(coefficient_matrix=lambda dim: np.eye(dim, dtype=complex))
        for other in (object(), matrix):
            with pytest.raises(TypeError, match="cannot be expanded"):
                gram_matrix(basis_3pi, [MuState(0, 0, 0), other])

    @pytest.mark.parametrize("text", [pi_multiple_text(3.0), "24.3717", "45.3717"])
    def test_level_state_columns_match_their_fields(self, text):
        # complex mixing and one doublet with its own pair; every column bit for bit, and one pair per state
        spectrum = order_spectrum(decompose(text, "irrational"))
        doublet = int(np.flatnonzero(spectrum.n != spectrum.m)[3])
        mu = build_mu_basis(spectrum, MixingCoefficients.normalized(0.6 - 0.2j, 0.3 + 0.7j))
        levels = list(mu.states)
        levels[doublet] = self._hand_built(mu, doublet, -1.0, 0.5j)
        columns, starts, used = states._pair_columns(MorseBasis(spectrum.parameter), levels)
        for got, expected in zip(columns, pair_columns_fields(levels)):
            assert got.dtype == expected.dtype and np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        assert starts is None and used == list(range(spectrum.parameter.k + 1))

    def test_empty_state_list(self, basis_3pi):
        g = gram_matrix(basis_3pi, [])
        assert g.shape == (0, 0)


_ARRAY_DATACLASSES = {
    "LadderSpectrum": lambda spectrum, mu, principal: ladder_f(spectrum),
    "CoherentState": lambda spectrum, mu, principal: coherent_coefficients(0.5, ladder_f(spectrum), mu),
    "ModeTables": lambda spectrum, mu, principal: MorseBasis(principal).mode_tables(QuadratureConfig()),
    "ScalarField2D": lambda spectrum, mu, principal: ScalarField2D(GridSpec(0, 1, 0, 1, 2, 2), np.zeros((2, 2))),
}


@pytest.mark.parametrize("name", sorted(_ARRAY_DATACLASSES))
def test_array_dataclasses_compare_by_identity(name, spectrum_3pi, mu_3pi, p3pi):
    # two instances built from the same inputs compare and hash by identity; an __eq__
    # generated over ndarray fields raises ValueError, and its __hash__ TypeError
    a, b = (_ARRAY_DATACLASSES[name](spectrum_3pi, mu_3pi, p3pi) for _ in range(2))
    assert type(a).__name__ == name
    assert a == a and not a == b and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestAllModesMatchModeLoops:
    """Everything built from all modes at once equals the one-mode-at-a-time loops bit for bit."""

    @pytest.mark.parametrize(
        "text",
        [
            "9.3717",
            "24.3717",
            "60.3717",
            pytest.param("100.01", marks=pytest.mark.deep),
            pytest.param("200.3717", marks=pytest.mark.deep),
        ],
    )
    def test_boxes_tables_densities_overlaps(self, text):
        param = decompose(text, "irrational")
        basis = MorseBasis(param)
        assert _same_bits(basis.support_box(), support_box_loop(basis))
        for n in (0, param.k // 2, param.k):
            assert _same_bits(basis.mode_box(n), mode_box_scan(basis, n))
        for quad in (QuadratureConfig(), QuadratureConfig().refined()):
            tables, expected = basis.mode_tables(quad), mode_tables_loop(basis, quad)
            for name in ModeTables.__dataclass_fields__:
                assert _same_bits(getattr(tables, name), getattr(expected, name)), name
        spectrum = order_spectrum(param)
        state = coherent_coefficients(1.0, ladder_f(spectrum), build_mu_basis(spectrum))
        field = density_grid(basis, state)
        assert _same_bits(field.values, density_grid_loop(basis, state, field.spec))
        assert _same_bits(basis.overlap_table(), overlap_table_loop(basis))

    @staticmethod
    def _check_support_box(basis) -> list[int]:
        """support_box() against the per-mode loop; a mode it proved inside without a scan still scans true."""
        assert _same_bits(basis.support_box(), support_box_loop(basis))
        skipped = [n for n in basis.bound_modes() if n not in basis._boxes]
        if skipped:
            assert _same_bits(basis.mode_box(skipped[0]), mode_box_scan(basis, skipped[0]))
        return skipped

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(min_value=0, max_value=60),
        eps=st.one_of(st.sampled_from([1.0e-4, 1.0 - 1.0e-4]), st.floats(min_value=1.0e-4, max_value=1.0 - 1.0e-4)),
        beta=st.sampled_from([1.0, 0.37, 2.5]),
    )
    def test_property_support_box_matches_loop(self, k, eps, beta):
        param = decompose(repr(k + eps), "irrational")
        depth = depth_for_principal(param.p_value, beta=beta)
        self._check_support_box(MorseBasis(param, PhysicalParams(mass=1.0, depth=depth, beta=beta, hbar=1.0)))

    # 100.01 rescans its top mode on a wider window; many wall-side modes of 200.97 need a full scan
    @pytest.mark.deep
    @pytest.mark.parametrize("text", ["100.01", "200.97", "400.3717"])
    def test_deep_support_box_matches_loop(self, text):
        assert self._check_support_box(MorseBasis(decompose(text, "irrational")))

    def test_single_mode_calls(self):
        basis = MorseBasis(decompose("24.3717", "irrational"))
        # far left ln z passes its cap of 130 and every mode is an exact zero;
        # at a cap of 705 these points gave nan and e^705 for n >= 2
        far = [-1.0e60, -800.0, -710.0, -140.0]
        x = np.concatenate([far, np.linspace(-3.0, 40.0, 91)])
        for n in basis.bound_modes():
            values, slopes = basis.mode_values(n, x), mode_derivative_values(basis, n, x)
            assert np.all(np.isfinite(values)) and np.all(np.isfinite(slopes))
            assert list(values[: len(far)]) == list(slopes[: len(far)]) == [0.0] * len(far)
            assert _same_bits(values, mode_values_loop(basis, n, x))
            assert _same_bits(slopes, mode_derivative_loop(basis, n, x))
        grid = basis.mode_values(4, x.reshape(5, 19))
        assert grid.shape == (5, 19)
        assert _same_bits(grid.ravel(), mode_values_loop(basis, 4, x))
        assert _same_bits(basis.mode_values(3, 0.5), float(mode_values_loop(basis, 3, np.float64(0.5))))

    @pytest.mark.deep
    def test_table_memory_is_bounded(self):
        # tracemalloc peak of the support scan plus both tables at k = 200:
        # 6.61 MiB with one Laguerre call per mode, so 1 MiB of headroom
        basis = MorseBasis(decompose("200.3717", "irrational"))
        tracemalloc.start()
        try:
            basis.support_box()
            basis.mode_tables(QuadratureConfig())
            basis.mode_tables(QuadratureConfig().refined())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7.61 * 2**20
