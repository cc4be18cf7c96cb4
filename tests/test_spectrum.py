"""Spectrum classification, exact counting, and unambiguous ordering."""

import itertools
import math
import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (
    census_of_records,
    crossing_report_pairs,
    crossing_report_slopes,
    enumerate_levels_loop,
    order_spectrum_float,
    pi_multiple_text_mpmath,
    scaled_energy_expr,
    shifted_energy_expr,
)

from morsekit import spectrum
from morsekit import (
    ACCIDENTAL,
    DOUBLET,
    INTEGER,
    IRRATIONAL,
    K_MAX,
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

    @pytest.mark.parametrize(("text", "mode"), [("3", INTEGER), ("3.5", IRRATIONAL)])
    def test_ratio_outside_rational_mode_is_refused(self, text, mode):
        # a dropped ratio would give epsilon 0 and 0.5, not 1/3
        with pytest.raises(ValueError, match=f"^a ratio applies only in rational mode, not in {mode} mode$"):
            decompose(text, mode, ratio="1/3")

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

    def test_pi_multiple_text_matches_mpmath(self):
        multiples = [j / 10 for j in range(1, 400)]
        multiples += [3, 9, 4, 1 / 3, 123.456, 0.001, 1, 1e3, 1e6, 1e20, 1e-7, 12345.678, 2.5e-5]
        for multiple in multiples:
            assert pi_multiple_text(multiple) == pi_multiple_text_mpmath(multiple), multiple
        assert pi_multiple_text(0.0) == pi_multiple_text_mpmath(0.0) == "0.0"

    def test_pi_constant_digits(self):
        with mpmath.workdps(200):
            assert abs(mpmath.mpf(str(spectrum._PI)) - mpmath.pi) < mpmath.mpf(10) ** -120

    def test_epsilon_exact_tracks_text(self):
        param = decompose("12.625", RATIONAL)
        assert param.epsilon_exact == Decimal("0.625")

    @pytest.mark.parametrize(
        "text, mode, expected",
        [
            ("12", INTEGER, Fraction(0)),
            ("12.625", RATIONAL, Fraction(5, 8)),
            ("3.1415926535897932384626433832795028841971", IRRATIONAL,
             Fraction(1415926535897932384626433832795028841971, 10**40)),
        ],
    )
    def test_epsilon_exact_is_one_fraction(self, text, mode, expected):
        param = decompose(text, mode)
        assert type(param.epsilon_exact) is Fraction
        assert param.epsilon_exact == expected
        assert param.k + param.epsilon_exact == Fraction(Decimal(text))

    @pytest.mark.parametrize("text", ["1e400", "1.8e308", "1e-400"])
    @pytest.mark.parametrize("mode", [INTEGER, RATIONAL, IRRATIONAL])
    def test_rejects_p_without_a_positive_finite_double(self, text, mode):
        # 1e400 would give k = 10**400 and an endless enumeration
        with pytest.raises(ValueError, match=f"must be a positive finite number, got '{text}'"):
            decompose(text, mode)

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

    @pytest.mark.parametrize("mode", [INTEGER, RATIONAL, IRRATIONAL])
    def test_depth_cap(self, mode):
        # decompose only: k = K_MAX is accepted, one more is refused before any enumeration
        assert decompose(f"{K_MAX}.5" if mode != INTEGER else str(K_MAX), mode).k == K_MAX
        text = f"{K_MAX + 1}.5" if mode != INTEGER else "1000000"
        with pytest.raises(ValueError, match=f"above the supported depth k <= {K_MAX}"):
            decompose(text, mode)

    def test_numbers_read_as_their_text(self):
        assert decompose(12, INTEGER) == decompose("12", INTEGER)
        assert decompose(7.5, RATIONAL) == decompose(" 7.5 ", RATIONAL)
        for ratio in (Fraction(1, 2), "1/2", 0.5):
            assert decompose("7.5", RATIONAL, ratio).ratio == Fraction(1, 2)


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

    def test_energies_match_the_expressions_bit_for_bit(self):
        # 120 000 seeded (k, n, m, eps), eps in {0, 1/2}, near 1e-300 (subnormal 5e-324 included) or uniform
        rng = random.Random(36)
        tiny = [5e-324, 1e-300, 2.5e-301, 7.3e-299]
        for case in range(120_000):
            kind = case % 4
            if kind == 0:
                eps = rng.choice([0.0, 0.5])
            elif kind == 1:
                eps = rng.choice(tiny) if case % 8 == 1 else 10.0 ** rng.uniform(-308.0, -290.0)
            else:
                eps = rng.random()
            k = rng.randint(0, 400)
            n, m = rng.randint(0, k), rng.randint(0, k)
            assert shifted_energy(k, eps, n, m).hex() == shifted_energy_expr(k, eps, n, m).hex(), (k, eps, n, m)
            assert scaled_energy(k, eps, n, m).hex() == scaled_energy_expr(k, eps, n, m).hex(), (k, eps, n, m)

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
        assert census_of_records([rec]).swap_reduced == 2

    def test_census_counts_a_level_sequence_only(self):
        levels = enumerate_levels(decompose("9", INTEGER))
        for other in ([], list(levels)):
            with pytest.raises(TypeError, match="takes a spectrum's LevelSequence, got list"):
                count_summary(other)

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

    def test_enumerate_levels_refuses_the_same_tie(self):
        # no second level builder: the level list is order_spectrum's, refusal included
        with pytest.raises(OrderingAmbiguityError) as info:
            enumerate_levels(decompose("3.5", IRRATIONAL))
        assert info.value.keys == (LevelKey(8, 4), LevelKey(9, 3))

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


class TestKeysMatchStateLoop:
    """Levels built from the L key arrays equal the per-state dict loop's, energies by bits."""

    @staticmethod
    def _assert_matches_state_loop(param):
        expected = enumerate_levels_loop(param)
        frac = param.ratio if param.mode == RATIONAL else param.epsilon_exact
        value = [rec.key.a * frac.denominator + 2 * frac.numerator * rec.key.b for rec in expected]
        ties = [(u.key, v.key) for u, v, x, y in zip(expected, expected[1:], value, value[1:]) if x == y]
        if ties:
            # only irrational mode keeps keys of equal value apart; its order is then ambiguous
            assert param.mode == IRRATIONAL
            for build in (enumerate_levels, order_spectrum):
                with pytest.raises(OrderingAmbiguityError) as info:
                    build(param)
                assert info.value.keys == ties[0]
            return
        levels = enumerate_levels(param)
        assert levels == expected
        assert [rec.shifted_energy.hex() for rec in levels] == [rec.shifted_energy.hex() for rec in expected]
        assert count_summary(levels) == census_of_records(expected)
        assert order_spectrum(param).levels == tuple(expected)

    @pytest.mark.parametrize(
        "text, mode",
        [
            ("0.3717", IRRATIONAL),
            ("1.5", RATIONAL),
            ("2", INTEGER),
            ("3.5", IRRATIONAL),
            ("3.499999999999999999", RATIONAL),
            ("9.5", RATIONAL),
            (pi_multiple_text(3.0), IRRATIONAL),
            ("12.125", RATIONAL),
            ("28", INTEGER),
            ("30.25", RATIONAL),
            ("40.3717", RATIONAL),
            ("57.3717", IRRATIONAL),
            pytest.param("100", INTEGER, marks=pytest.mark.deep),
            pytest.param("200.3717", IRRATIONAL, marks=pytest.mark.deep),
            pytest.param("200.25", RATIONAL, marks=pytest.mark.deep),
            pytest.param("400.3717", IRRATIONAL, marks=pytest.mark.deep),
            pytest.param("400", INTEGER, marks=pytest.mark.deep),
        ],
    )
    def test_grid(self, text, mode):
        self._assert_matches_state_loop(decompose(text, mode))

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(min_value=0, max_value=60),
        eps=st.fractions(min_value=Fraction(1, 24), max_value=Fraction(23, 24), max_denominator=24),
        digits=st.integers(min_value=1, max_value=10**40 - 10**27),  # eps stays below 1 as a double
        source=st.sampled_from(["fraction", "digits"]),
        mode=st.sampled_from([INTEGER, RATIONAL, IRRATIONAL]),
    )
    @example(k=7, eps=Fraction(1, 2), digits=1, source="fraction", mode=IRRATIONAL)
    @example(k=60, eps=Fraction(1, 4), digits=1, source="fraction", mode=RATIONAL)
    # the level of (39, 11) and (30, 13): their float energies differ in the last bit
    @example(k=40, eps=Fraction(13, 14), digits=1, source="fraction", mode=RATIONAL)
    def test_property(self, k, eps, digits, source, mode):
        # small-denominator eps is where accidental levels (and irrational-mode
        # ties) occur; a 40-digit text is the irrational case proper
        if mode == INTEGER:
            param = decompose(str(max(k, 1)), INTEGER)  # p = 0 holds no bound state
        elif mode == RATIONAL:
            param = decompose(repr(k + float(eps)), RATIONAL, eps)
        elif source == "fraction":
            param = decompose(f"{k}.{eps.numerator * 10**40 // eps.denominator:040d}", IRRATIONAL)
        else:
            param = decompose(f"{k}.{digits:040d}", IRRATIONAL)
        self._assert_matches_state_loop(param)


def _sum_of_two_squares_quarter(top: int) -> np.ndarray:
    """r2(a) / 4 = d1(a) - d3(a) for a = 0..top by a divisor sieve (Jacobi; Hardy & Wright, Thm. 278).

    d1 and d3 count the divisors of a that are 1 and 3 mod 4; entry 0 is unused.
    """
    quarter = np.zeros(top + 1, dtype=np.int64)
    for d in range(1, top + 1, 2):
        quarter[d::d] += 1 if d % 4 == 1 else -1
    return quarter


class TestCensusByTwoSquares:
    """Multiplicities from lattice-point counts, which share no code or keys with ``spectrum``.

    A level of p = k (eps = 0) has energy -a with a = u^2 + v^2, u = k - n and
    v = k - m in 0..k.  For 0 < a <= k^2 the box [0, k]^2 holds every
    representation, so the level has r2(a)/4 + [a is a square] states.  At
    p = k + 1/2 the level value is a + b, and (2u + 1)^2 + (2v + 1)^2 =
    4(a + b) + 2 = M, whose representations all use two odd squares; for
    M <= (2k + 1)^2 + 1 the level has r2(M)/4 states.  Levels above those
    bounds, where the box cuts the circle, are left to the state loop of
    ``TestKeysMatchStateLoop``.  A level is accidental exactly where the
    count exceeds the natural singlet or swap pair, 2.
    """

    @staticmethod
    def _assert_census(spectrum, value, expected, top):
        # value(rec) -> the number whose count is expected[...]; every counted number is a level
        seen = {}
        for rec in spectrum.levels:
            v = value(rec)
            if 0 < v <= top:
                seen[v] = rec
                assert rec.multiplicity == expected[v], (rec, expected[v])
                assert (rec.classification == ACCIDENTAL) == (expected[v] > 2)
        assert sorted(seen) == (np.flatnonzero(expected[1:] > 0) + 1).tolist()

    def _check_integer_well(self, k):
        top = k * k
        quarter = _sum_of_two_squares_quarter(top)
        squares = np.zeros(top + 1, dtype=np.int64)
        squares[np.arange(1, k + 1) ** 2] = 1
        spectrum = order_spectrum(decompose(str(k), INTEGER))
        self._assert_census(spectrum, lambda rec: rec.key.a, quarter + squares, top)

    def _check_half_integer_well(self, k):
        top = (2 * k + 1) ** 2 + 1
        quarter = _sum_of_two_squares_quarter(top)
        # only M = 2 mod 4 are level values; the others count no level
        quarter[np.arange(top + 1) % 4 != 2] = 0
        spectrum = order_spectrum(decompose(f"{k}.5", RATIONAL))
        self._assert_census(spectrum, lambda rec: 4 * (rec.key.a + rec.key.b) + 2, quarter, top)

    @staticmethod
    def _check_rational_bound(k, eps):
        # keys tie only if D da = -2 N db; gcd(D, 2N) = gcd(D, 2), so D' = D / gcd(D, 2)
        # divides db, and |db| <= 2k: D' > 2k leaves every key its own level
        spectrum = order_spectrum(decompose(repr(k + float(eps)), RATIONAL, eps))
        assert count_summary(spectrum.levels).accidental == 0
        assert len(spectrum.levels) == (k + 1) * (k + 2) // 2

    @pytest.mark.parametrize("k", [28, 100, pytest.param(400, marks=pytest.mark.deep)])
    def test_integer_well(self, k):
        self._check_integer_well(k)

    @pytest.mark.parametrize("k", [30, 100, pytest.param(400, marks=pytest.mark.deep)])
    def test_half_integer_well(self, k):
        self._check_half_integer_well(k)

    @settings(max_examples=8, deadline=None)
    @given(k=st.integers(min_value=1, max_value=120), half=st.booleans())
    def test_property_lattice_count(self, k, half):
        if half:
            self._check_half_integer_well(k)
        else:
            self._check_integer_well(k)

    @pytest.mark.parametrize("k", [10, 20, 40])
    def test_no_accidental_level_past_the_rational_bound(self, k):
        for den in range(2 * k + 1, 4 * k + 6):
            if den // math.gcd(den, 2) <= 2 * k:
                continue
            for num in sorted({1, den // 3, den - 1}):
                if math.gcd(num, den) != 1:
                    continue
                self._check_rational_bound(k, Fraction(num, den))

    @settings(max_examples=10, deadline=None)
    @given(k=st.integers(min_value=0, max_value=120), data=st.data())
    def test_property_rational_bound(self, k, data):
        # any D with D' > 2k: D > 2k if odd, D > 4k if even; any N coprime to D
        den = data.draw(st.integers(min_value=max(2, 2 * k + 1), max_value=8 * k + 8))
        assume(den // math.gcd(den, 2) > 2 * k)
        num = data.draw(st.integers(min_value=1, max_value=den - 1))
        assume(math.gcd(num, den) == 1)
        self._check_rational_bound(k, Fraction(num, den))


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

    def test_depth_beyond_cap_refused_before_any_key(self, monkeypatch):
        # k = 10**6 would ask for about 5 * 10**11 level keys
        def explode(*args, **kwargs):
            raise AssertionError("level keys were built")

        monkeypatch.setattr(spectrum, "_keys", explode)
        for k in (K_MAX + 1, 10**6):
            with pytest.raises(ValueError, match=rf"^k = {k} is above the supported depth k <= {K_MAX}$"):
                crossing_report(k, 0.5, tol=1e-6)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_rejects_non_finite_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be"):
            crossing_report(3, 0.5, tol=tol)

    def test_accepts_numpy_integer_k(self):
        assert crossing_report(np.int64(3), 0.5, tol=1e-6) == crossing_report(3, 0.5, tol=1e-6)

    def test_seeded_wells_match_all_pairs(self):
        # first, windows that the clip to a slope's codes cuts: far past both ends of
        # every group (tol 1e300), below a = 0 (eps near 0 and near 1), and k = 0
        cases = [(20, 0.3717, 1e300), (5, 1e-9, 1e-3), (50, 1.0 - 1e-12, 1e-6), (0, 0.5, 1.0)]
        rng = random.Random(20261018)
        for _ in range(24):
            k = rng.randrange(0, 41)
            eps = rng.uniform(1e-3, 1.0 - 1e-3)
            tol = 10.0 ** rng.uniform(-9.0, -0.2)
            cases.append((k, eps, tol))
        for k, eps, tol in cases:
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

    # no nearby crossing point, three crossing points, and 1e-7 to either side of 1/2, where every gap crosses
    _GAP_EPSILONS = [0.3717, 1 / 2, 1 / 3, 3 / 8, 1 / 2 + 1e-7, 1 / 2 - 1e-7]

    # From tol = 1/4 on every gap is live (the best |da - 2 eps d| is at most
    # 1/2 < 2 tol d), so k = 200 adds nothing there but 75 000 crossings a call.
    @pytest.mark.parametrize("eps", _GAP_EPSILONS)
    @pytest.mark.parametrize(
        "k, tol",
        [(60, tol) for tol in (1e-9, 1e-6, 1e-3, 0.3)]
        + [pytest.param(100, tol, marks=pytest.mark.deep) for tol in (1e-9, 1e-6, 1e-3, 0.3)]
        + [pytest.param(200, tol, marks=pytest.mark.deep) for tol in (1e-9, 1e-6, 1e-3)],
    )
    def test_gap_filter_matches_slope_scan(self, k, eps, tol):
        assert crossing_report(k, eps, tol) == crossing_report_slopes(k, eps, tol)

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(min_value=0, max_value=60),
        eps=st.one_of(
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
            st.fractions(min_value=Fraction(1, 24), max_value=Fraction(23, 24), max_denominator=24).map(float),
        ),
        nudge=st.sampled_from([0.0, 1e-12, -1e-12, 1e-7, -1e-7]),
        tol=st.floats(min_value=1e-12, max_value=1.0),
    )
    def test_property_gap_filter_matches_slope_scan(self, k, eps, nudge, tol):
        eps = min(max(eps + nudge, 1e-3), 1.0 - 1e-3)
        assert crossing_report(k, eps, tol) == crossing_report_slopes(k, eps, tol)

    def test_deep_well_memory_stays_linear(self):
        # the all-pairs scan would need about 10 GiB here
        tracemalloc.start()
        try:
            crossing_report(200, 0.3717, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20
