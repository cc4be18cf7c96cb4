"""Spectrum classification, exact counting, and unambiguous ordering."""

import itertools
import math
import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import crossing_report_pairs, order_spectrum_float

from morsekit import (
    ACCIDENTAL,
    DOUBLET,
    INTEGER,
    IRRATIONAL,
    RATIONAL,
    SINGLET,
    CountSummary,
    LevelKey,
    NoBoundStatesError,
    OrderingAmbiguityError,
    PhysicalParams,
    count_summary,
    crossing_report,
    decompose,
    depth_for_principal,
    derive_parameters,
    enumerate_levels,
    level_key,
    order_spectrum,
    pi_multiple_text,
    scaled_energy,
    shifted_energy,
)


class TestPhysicalParams:
    def test_nu_and_p_for_integer_depth(self):
        # 8 m V0 / (beta hbar)^2 = 361 -> nu = 19, p = 9
        nu, p = derive_parameters(PhysicalParams(mass=1.0, depth=45.125))
        assert nu == pytest.approx(19.0, rel=1e-15)
        assert p == pytest.approx(9.0, rel=1e-15)

    def test_half_integer_p(self):
        nu, p = derive_parameters(PhysicalParams(mass=2.0, depth=1.0))
        assert nu == pytest.approx(4.0, rel=1e-15)
        assert p == pytest.approx(1.5, rel=1e-15)

    def test_depth_roundtrip(self):
        p = 3.0 * math.pi
        depth = depth_for_principal(p)
        nu, p_back = derive_parameters(PhysicalParams(mass=1.0, depth=depth))
        assert p_back == pytest.approx(p, rel=1e-14)
        assert depth == pytest.approx((6.0 * math.pi + 1.0) ** 2 / 8.0, rel=1e-14)

    def test_too_shallow_well_has_no_bound_states(self):
        with pytest.raises(NoBoundStatesError):
            derive_parameters(PhysicalParams(mass=1.0, depth=0.1, beta=1.0))

    def test_rejects_non_positive_inputs(self):
        with pytest.raises(ValueError):
            PhysicalParams(mass=0.0, depth=1.0)
        with pytest.raises(ValueError):
            PhysicalParams(mass=1.0, depth=-2.0)
        with pytest.raises(ValueError):
            PhysicalParams(mass=1.0, depth=1.0, beta=0.0)


class TestDecompose:
    def test_integer_value(self):
        param = decompose("9", INTEGER)
        assert param.k == 9
        assert param.epsilon == 0.0
        assert param.mode == INTEGER
        assert param.state_count() == 100

    def test_integer_mode_rejects_fractional_part(self):
        with pytest.raises(ValueError):
            decompose("9.25", INTEGER)

    def test_rational_fraction_is_exact(self):
        param = decompose("7.5", RATIONAL)
        assert param.k == 7
        assert param.ratio == Fraction(1, 2)
        assert param.epsilon == 0.5

    def test_rational_accepts_matching_ratio(self):
        param = decompose("7.5", RATIONAL, ratio=Fraction(1, 2))
        assert param.ratio == Fraction(1, 2)

    def test_rational_rejects_inconsistent_ratio(self):
        with pytest.raises(ValueError):
            decompose("7.5", RATIONAL, ratio=Fraction(1, 3))

    def test_irrational_mode_rejects_exact_integer(self):
        with pytest.raises(ValueError):
            decompose("9", IRRATIONAL)

    def test_near_integer_from_above_keeps_floor(self):
        param = decompose("9.0000000001", IRRATIONAL)
        assert param.k == 9
        assert 0.0 < param.epsilon < 1e-9

    def test_rejects_fraction_rounding_to_one(self):
        # a fractional part indistinguishable from 1 in the float image is refused
        with pytest.raises(ValueError):
            decompose("8.99999999999999999999", IRRATIONAL)

    def test_pi_multiple_text(self):
        text = pi_multiple_text(3.0)
        param = decompose(text, IRRATIONAL)
        assert param.k == 9
        assert param.p_value == pytest.approx(3.0 * math.pi, rel=1e-15)
        assert param.epsilon == pytest.approx(3.0 * math.pi - 9.0, rel=1e-12)

    def test_epsilon_exact_tracks_text(self):
        param = decompose("12.625", RATIONAL)
        assert param.epsilon_exact == Decimal("0.625")

    def test_state_count_square(self):
        for k in (1, 5, 28):
            assert decompose(str(k), INTEGER).state_count() == (k + 1) ** 2

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            decompose("-1", INTEGER)
        with pytest.raises(ValueError):
            decompose("0", INTEGER)
        with pytest.raises(ValueError):
            decompose("abc", RATIONAL)

    def test_k_zero_is_allowed(self):
        assert decompose("0.5", RATIONAL).k == 0
        assert decompose("0.5000000001", IRRATIONAL).k == 0


class TestEnergies:
    def test_scaled_energy_accidental_triple(self):
        # k=9, eps=0: (2,8), (8,2) and (4,4) all sit at -50
        e_a = scaled_energy(9, 0.0, 2, 8)
        e_b = scaled_energy(9, 0.0, 8, 2)
        e_c = scaled_energy(9, 0.0, 4, 4)
        assert e_a == e_b == e_c == -50.0

    def test_scaled_energy_top_state(self):
        eps = 0.37
        assert scaled_energy(6, eps, 6, 6) == pytest.approx(-2.0 * eps * eps, abs=1e-15)

    def test_scaled_energy_rational_coincidence(self):
        # eps = 1/2: a + 2 eps b collides for {(6,2),(4,3),(3,4),(2,6)} at k=7
        vals = {scaled_energy(7, 0.5, n, m) for (n, m) in [(6, 2), (4, 3), (3, 4), (2, 6)]}
        assert vals == {-32.5}

    def test_shifted_energy_examples(self):
        eps = 0.123
        assert shifted_energy(3, eps, 3, 0) == pytest.approx(-(9.0 + 6.0 * eps), abs=1e-14)
        assert shifted_energy(3, eps, 1, 1) == pytest.approx(-(8.0 + 8.0 * eps), abs=1e-14)

    def test_shifted_minus_scaled_is_two_eps_squared(self):
        eps = 0.71
        for (n, m) in [(0, 0), (2, 5), (6, 6)]:
            diff = scaled_energy(6, eps, n, m) - shifted_energy(6, eps, n, m)
            assert diff == pytest.approx(-2.0 * eps * eps, abs=1e-13)

    def test_level_key(self):
        assert level_key(9, 2, 8) == LevelKey(50, 8)
        assert level_key(9, 8, 2) == LevelKey(50, 8)
        assert level_key(9, 4, 4) == LevelKey(50, 10)
        assert level_key(5, 5, 5) == LevelKey(0, 0)

    def test_key_reproduces_shifted_energy(self):
        eps = 0.321
        k = 11
        for (n, m) in [(0, 0), (3, 7), (11, 4)]:
            key = level_key(k, n, m)
            assert shifted_energy(k, eps, n, m) == pytest.approx(
                -(key.a + 2.0 * eps * key.b), rel=4e-16
            )

    def test_rejects_out_of_range_quanta(self):
        with pytest.raises(ValueError):
            shifted_energy(3, 0.1, 4, 0)
        with pytest.raises(ValueError):
            level_key(3, -1, 0)


class TestEnumerateLevels:
    def test_census_k28_integer(self):
        levels = enumerate_levels(decompose("28", INTEGER))
        assert count_summary(levels) == CountSummary(
            total_states=841, swap_reduced=435, distinct=360, accidental=75
        )
        assert sum(rec.multiplicity for rec in levels) == 841

    def test_census_k28_irrational(self):
        levels = enumerate_levels(decompose(pi_multiple_text(9.0), IRRATIONAL))
        summary = count_summary(levels)
        assert summary.total_states == 841
        assert summary.swap_reduced == 435
        assert summary.distinct == 435
        assert summary.accidental == 0
        assert all(rec.multiplicity <= 2 for rec in levels)

    def test_census_k9_integer(self):
        levels = enumerate_levels(decompose("9", INTEGER))
        assert count_summary(levels) == CountSummary(
            total_states=100, swap_reduced=55, distinct=51, accidental=4
        )
        (rec,) = [r for r in levels if r.key.a == 50]
        assert rec.classification == ACCIDENTAL
        assert set(rec.members) == {(2, 8), (4, 4), (8, 2)}
        assert rec.unordered_pairs() == 2

    def test_census_k7_rational_half(self):
        levels = enumerate_levels(decompose("7.5", RATIONAL))
        summary = count_summary(levels)
        assert (summary.total_states, summary.swap_reduced, summary.distinct, summary.accidental) == (
            64,
            36,
            32,
            4,
        )
        merged = [rec for rec in levels if set(rec.members) == {(6, 2), (4, 3), (3, 4), (2, 6)}]
        assert len(merged) == 1
        assert merged[0].classification == ACCIDENTAL
        assert merged[0].multiplicity == 4

    def test_rational_zero_matches_integer(self):
        ints = enumerate_levels(decompose("6", INTEGER))
        rats = enumerate_levels(decompose("6.0", RATIONAL, ratio=Fraction(0, 1)))
        assert count_summary(ints) == count_summary(rats)
        assert [rec.key for rec in ints] == [rec.key for rec in rats]
        assert [rec.members for rec in ints] == [rec.members for rec in rats]

    def test_k_zero(self):
        levels = enumerate_levels(decompose("0.5", RATIONAL))
        assert count_summary(levels) == CountSummary(
            total_states=1, swap_reduced=1, distinct=1, accidental=0
        )
        assert levels[0].members == ((0, 0),)
        assert levels[0].classification == SINGLET

    def test_swap_symmetry_of_membership(self):
        levels = enumerate_levels(decompose(pi_multiple_text(4.0), IRRATIONAL))
        for rec in levels:
            pairs = set(rec.members)
            assert {(m, n) for (n, m) in pairs} == pairs

    def test_members_canonical_order(self):
        levels = enumerate_levels(decompose("9", INTEGER))
        for rec in levels:
            n0, m0 = rec.members[0]
            assert n0 >= m0

    def test_classification_labels(self):
        levels = enumerate_levels(decompose("4.7", RATIONAL))
        for rec in levels:
            if rec.multiplicity == 1:
                assert rec.classification == SINGLET
                (n, m) = rec.members[0]
                assert n == m
            elif rec.classification == DOUBLET:
                assert rec.multiplicity == 2


class TestOrderSpectrum:
    def test_three_pi_head_of_list(self, spectrum_3pi):
        assert spectrum_3pi.xi == 54
        assert len(spectrum_3pi.levels) == 55
        assert spectrum_3pi.levels[0].key == LevelKey(162, 18)
        assert spectrum_3pi.levels[0].members == ((0, 0),)
        assert spectrum_3pi.levels[1].key == LevelKey(145, 17)
        assert set(spectrum_3pi.levels[1].members) == {(1, 0), (0, 1)}
        assert spectrum_3pi.levels[2].key == LevelKey(130, 16)
        assert spectrum_3pi.levels[3].key == LevelKey(128, 16)
        assert spectrum_3pi.levels[3].members == ((1, 1),)
        assert spectrum_3pi.levels[54].members == ((9, 9),)

    def test_three_pi_mid_list_doublet(self, spectrum_3pi):
        rec = spectrum_3pi.levels[18]
        assert rec.key == LevelKey(73, 11)
        assert set(rec.members) == {(6, 1), (1, 6)}

    def test_shifted_energies_strictly_increase(self, spectrum_3pi):
        energies = spectrum_3pi.shifted_energies()
        assert np.all(np.diff(energies) > 0)

    def test_index_lookup(self, spectrum_3pi):
        assert spectrum_3pi.index_of(0, 0) == 0
        assert spectrum_3pi.index_of(1, 0) == 1
        assert spectrum_3pi.index_of(0, 1) == 1
        assert spectrum_3pi.index_of(9, 9) == 54
        with pytest.raises(ValueError):
            spectrum_3pi.index_of(10, 0)

    def test_epsilon_dependent_order_flip(self):
        # at k=3 the (3,0) doublet and (1,1) singlet swap order across eps = 1/2
        low = order_spectrum(decompose("3.4", RATIONAL))
        high = order_spectrum(decompose("3.6", RATIONAL))
        assert low.index_of(3, 0) < low.index_of(1, 1)
        assert high.index_of(1, 1) < high.index_of(3, 0)

    def test_integer_mode_orders_by_first_key(self):
        spec = order_spectrum(decompose("9", INTEGER))
        firsts = [rec.key.a for rec in spec.levels]
        assert firsts == sorted(firsts, reverse=True)
        assert len(spec.levels) == 51

    def test_exact_tie_raises(self):
        # p = 3.5 fed through the irrational path hits a genuine collision
        with pytest.raises(OrderingAmbiguityError) as info:
            order_spectrum(decompose("3.5", IRRATIONAL))
        err = info.value
        assert set(err.keys) == {LevelKey(8, 4), LevelKey(9, 3)}
        assert (err.p_text, err.mode) == ("3.5", IRRATIONAL)
        assert str(err) == (
            "levels LevelKey(a=8, b=4) and LevelKey(a=9, b=3) are exactly degenerate at "
            "p = 3.5; the declared mode 'irrational' does not admit a strict order here"
        )

    @pytest.mark.parametrize(
        "text",
        [
            "3.5000000000000000000000000000001",
            "3.4999999999999999999999999999999",
        ],
    )
    def test_float_tie_ordered_by_exact_value(self, text):
        # eps is 1/2 to 31 digits: (8, 4) and (9, 3) have the same float
        # energy and are told apart only by the sign of eps - 1/2
        param = decompose(text, IRRATIONAL)
        assert param.epsilon == 0.5
        assert shifted_energy(3, param.epsilon, 1, 1) == shifted_energy(3, param.epsilon, 3, 0)
        keys = [rec.key for rec in order_spectrum(param).levels]
        pair = [key for key in keys if key in (LevelKey(8, 4), LevelKey(9, 3))]
        eps = Fraction(param.epsilon_exact)
        assert pair == sorted(pair, key=lambda key: key.a + 2 * eps * key.b, reverse=True)
        assert pair[0] == (LevelKey(8, 4) if eps > Fraction(1, 2) else LevelKey(9, 3))

    def test_rational_float_tie_enumerates_in_exact_order(self):
        # eps = (10^18 / 2 - 1) / 10^18 rounds to 0.5, so the float energies of
        # (8, 4) and (9, 3) tie; the exact key puts (9, 3) deeper in both calls
        param = decompose("3.499999999999999999", RATIONAL)
        assert param.ratio.denominator == 10**18
        assert shifted_energy(3, param.epsilon, 1, 1) == shifted_energy(3, param.epsilon, 3, 0)
        listed = [rec.key for rec in enumerate_levels(param)]
        assert listed == [rec.key for rec in order_spectrum(param).levels]
        assert listed.index(LevelKey(9, 3)) + 1 == listed.index(LevelKey(8, 4))

    @pytest.mark.parametrize(
        "text, mode",
        [
            (pi_multiple_text(3.0), IRRATIONAL),
            ("28", INTEGER),
            pytest.param("150.25", RATIONAL, marks=pytest.mark.deep),
            pytest.param("100.3717", IRRATIONAL, marks=pytest.mark.deep),
            pytest.param("200.3717", IRRATIONAL, marks=pytest.mark.deep),
        ],
    )
    def test_matches_float_oracle_on_grid(self, text, mode):
        param = decompose(text, mode)
        assert order_spectrum(param).levels == order_spectrum_float(param).levels

    @staticmethod
    def _assert_matches_float_oracle(k, eps, digits, nudge, mode):
        # eps = r/q written to `digits` places, the last one nudged by -1, 0 or 1;
        # rational mode takes r/q itself when the text is not nudged
        text = f"{k}.{eps.numerator * 10**digits // eps.denominator + nudge:0{digits}d}"
        if mode == INTEGER:
            param = decompose(str(k), INTEGER)
        else:
            param = decompose(text, mode, eps if mode == RATIONAL and nudge == 0 else None)
        try:
            expected = order_spectrum_float(param)
        except OrderingAmbiguityError as exc:
            with pytest.raises(OrderingAmbiguityError) as info:
                order_spectrum(param)
            assert info.value.keys == exc.keys
            assert str(info.value) == str(exc)
        else:
            assert order_spectrum(param).levels == expected.levels

    _crossing_points = dict(
        eps=st.fractions(min_value=Fraction(1, 12), max_value=Fraction(11, 12), max_denominator=12),
        digits=st.sampled_from([20, 40]),
        nudge=st.sampled_from([-1, 0, 1]),
        mode=st.sampled_from([INTEGER, RATIONAL, IRRATIONAL]),
    )

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(min_value=1, max_value=80), **_crossing_points)
    @example(k=3, eps=Fraction(1, 2), digits=20, nudge=0, mode=IRRATIONAL)
    @example(k=40, eps=Fraction(1, 5), digits=40, nudge=0, mode=IRRATIONAL)
    @example(k=40, eps=Fraction(1, 5), digits=40, nudge=1, mode=IRRATIONAL)
    def test_property_matches_float_oracle(self, k, eps, digits, nudge, mode):
        self._assert_matches_float_oracle(k, eps, digits, nudge, mode)

    @pytest.mark.deep
    @settings(max_examples=12, deadline=None)
    @given(k=st.integers(min_value=81, max_value=200), **_crossing_points)
    def test_property_matches_float_oracle_deep(self, k, eps, digits, nudge, mode):
        self._assert_matches_float_oracle(k, eps, digits, nudge, mode)

    @pytest.mark.deep
    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(min_value=0, max_value=200),
        digits=st.integers(min_value=10**6, max_value=10**20 - 10**6).filter(lambda d: d % 10),
    )
    def test_property_irrational_level_count(self, k, digits):
        # eps = d / 10^20 with d % 10 != 0 cannot meet a tie a + 2 eps b = a' + 2 eps b'
        # for |b - b'| <= 2k <= 400, so every key is its own level.  eps stays
        # 1e-14 away from 0 and 1, where decompose rejects the text.
        spec = order_spectrum(decompose(f"{k}.{digits:020d}", IRRATIONAL))
        assert len(spec.levels) == (k + 1) * (k + 2) // 2
        assert spec.xi == len(spec.levels) - 1
        # the paper's "at most two-fold": a singlet or a swap doublet, nothing accidental
        assert count_summary(spec.levels).accidental == 0
        assert {rec.classification for rec in spec.levels} <= {SINGLET, DOUBLET}

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=80),
        eps=st.fractions(min_value=Fraction(1, 10), max_value=Fraction(9, 10), max_denominator=10),
    )
    def test_property_rational_merges_are_the_crossings(self, k, eps):
        # exact integer grouping and the slope-grouped float search are
        # independent: the distinct keys merged into one level at eps = r/q
        # must be exactly the key pairs whose energies cross at r/q
        levels = enumerate_levels(decompose(repr(k + float(eps)), RATIONAL, eps))
        merged = set()
        for rec in levels:
            keys = sorted({level_key(k, n, m) for n, m in rec.members})
            merged.update(itertools.combinations(keys, 2))
        crossed = {(c.key_i, c.key_j) for c in crossing_report(k, float(eps), 1e-9)}
        assert merged == crossed

    def test_rational_mode_handles_the_same_value(self):
        spec = order_spectrum(decompose("3.5", RATIONAL))
        assert spec.parameter.ratio == Fraction(1, 2)
        merged = [rec for rec in spec.levels if rec.classification == ACCIDENTAL]
        assert len(merged) == 1
        assert set(merged[0].members) == {(3, 0), (0, 3), (1, 1)}

    def test_multiplicities_account_for_every_state(self):
        for text in ("5.25", "5.75"):
            spec = order_spectrum(decompose(text, RATIONAL))
            assert len(spec.levels) <= (5 + 1) * (5 + 2) // 2
            assert sum(rec.multiplicity for rec in spec.levels) == 36


class TestCrossingReport:
    def test_single_crossing_at_half(self):
        crossings = crossing_report(3, 0.5, tol=1e-6)
        assert len(crossings) == 1
        c = crossings[0]
        assert {c.key_i, c.key_j} == {LevelKey(9, 3), LevelKey(8, 4)}
        assert c.epsilon_cross == pytest.approx(0.5, abs=1e-12)
        assert c.epsilon_exact == Fraction(1, 2)

    def test_quarter_has_none(self):
        assert crossing_report(3, 0.25, tol=1e-6) == []

    def test_k_zero_has_none(self):
        assert crossing_report(0, 0.3, tol=1e-6) == []

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            crossing_report(3, 0.0, tol=1e-6)
        with pytest.raises(ValueError):
            crossing_report(3, 1.0, tol=1e-6)
        with pytest.raises(ValueError):
            crossing_report(3, 0.5, tol=0.0)

    @pytest.mark.parametrize("k", [-1, 2.5, 3.0, "3", True, None])
    def test_rejects_k_that_is_not_a_non_negative_integer(self, k):
        with pytest.raises(ValueError, match="k must be"):
            crossing_report(k, 0.5, tol=1e-6)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_rejects_non_finite_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be"):
            crossing_report(3, 0.5, tol=tol)

    def test_accepts_numpy_integer_k(self):
        assert crossing_report(np.int64(3), 0.5, tol=1e-6) == crossing_report(3, 0.5, tol=1e-6)

    def test_seeded_wells_match_all_pairs(self):
        rng = random.Random(20261018)
        for _ in range(24):
            k = rng.randrange(0, 41)
            eps = rng.uniform(1e-3, 1.0 - 1e-3)
            tol = 10.0 ** rng.uniform(-9.0, -0.2)
            assert crossing_report(k, eps, tol) == crossing_report_pairs(k, eps, tol)

    @pytest.mark.parametrize("eps", [1 / 2, 1 / 4, 3 / 8, 1 / 3])
    @pytest.mark.parametrize("k", [3, 17, 40])
    def test_rational_epsilon_on_crossings_matches_all_pairs(self, k, eps):
        for tol in (1e-9, 1e-6):
            got = crossing_report(k, eps, tol)
            assert got == crossing_report_pairs(k, eps, tol)
        if k == 40:
            # every one of these epsilons is an exact crossing point at k = 40
            assert got

    @pytest.mark.parametrize("eps", [Fraction(1, 2), Fraction(1, 4), Fraction(3, 8), Fraction(1, 3)])
    @pytest.mark.parametrize("k", [3, 17, 40])
    def test_exact_crossing_point_rounds_to_the_float(self, k, eps):
        for c in crossing_report(k, float(eps), 1e-6):
            da, db = c.key_i.a - c.key_j.a, c.key_i.b - c.key_j.b
            assert c.epsilon_exact == Fraction(-da, 2 * db)
            assert float(c.epsilon_exact) == c.epsilon_cross
        # crossing points have denominators up to 4k, so within 1e-9 only eps itself
        assert {c.epsilon_exact for c in crossing_report(k, float(eps), 1e-9)} <= {eps}

    @pytest.mark.parametrize("tol", [1e-9, 1e-4, 0.05, 0.5, 0.9, 2.0])
    def test_windows_past_the_unit_interval_match_all_pairs(self, tol):
        for k, eps in ((0, 0.5), (1, 0.5), (1, 0.01), (2, 0.99), (12, 0.05), (25, 0.93)):
            assert crossing_report(k, eps, tol) == crossing_report_pairs(k, eps, tol)

    def test_k_one_reports_its_only_possible_crossings(self):
        # keys (0,0), (1,1), (2,2): all three pairs cross at eps = -1/2,
        # outside (0, 1); a window of half-width 2 around 0.5 reaches it
        assert crossing_report(1, 0.5, tol=0.9) == []
        wide = crossing_report(1, 0.5, tol=2.0)
        assert wide == crossing_report_pairs(1, 0.5, tol=2.0)
        assert len(wide) == 3

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(min_value=0, max_value=30),
        eps=st.one_of(
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
            st.fractions(min_value=Fraction(1, 16), max_value=Fraction(15, 16), max_denominator=16).map(float),
        ),
        tol=st.floats(min_value=1e-12, max_value=1.0),
    )
    def test_property_matches_all_pairs(self, k, eps, tol):
        assert crossing_report(k, eps, tol) == crossing_report_pairs(k, eps, tol)

    def test_deep_well_memory_stays_linear(self):
        # the all-pairs scan would need about 10 GiB here
        tracemalloc.start()
        try:
            crossing_report(200, 0.3717, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20
