"""The column path: spectra, level bases and coherent matrices read from sorted key columns.

Each property compares the column-built result with the records and states
that the per-state loops in ``oracles`` build eagerly, floats by their bits.
"""

import cmath
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    census_of_records,
    coefficient_matrix_from_states,
    density_grid_loop,
    enumerate_levels_loop,
    ladder_strengths_increase,
    mu_states_eager,
)

from morsekit import (
    DOUBLET,
    INTEGER,
    IRRATIONAL,
    RATIONAL,
    SINGLET,
    GridSpec,
    LevelRecord,
    LevelSequence,
    MixingCoefficients,
    MorseBasis,
    MuState,
    build_mu_basis,
    coherent_coefficients,
    count_summary,
    decompose,
    density_grid,
    enumerate_levels,
    ladder_f,
    order_spectrum,
)


def _bits(values) -> list[str]:
    return [float(x).hex() for x in values]


def _param(k, mode, eps, digits):
    """A well of each declared mode; rational eps up to denominator 500 reaches D' > 2k, where no level merges."""
    if mode == INTEGER:
        return decompose(str(max(k, 1)), INTEGER)  # p = 0 holds no bound state
    if mode == RATIONAL:
        return decompose(repr(k + float(eps)), RATIONAL, eps)
    return decompose(f"{k}.{digits:040d}", IRRATIONAL)


_wells = dict(
    k=st.integers(min_value=0, max_value=60),
    mode=st.sampled_from([INTEGER, RATIONAL, IRRATIONAL]),
    eps=st.fractions(min_value=Fraction(1, 500), max_value=Fraction(499, 500), max_denominator=500),
    # eps = d / 10^40 >= 0.01 with d % 10 != 0 cannot tie two keys (|b - b'| <= 120)
    digits=st.integers(min_value=10**38, max_value=10**40 - 10**27).filter(lambda d: d % 10),
)


class TestLevelSequence:
    @settings(max_examples=40, deadline=None)
    @given(**_wells)
    def test_property_matches_the_records(self, k, mode, eps, digits):
        param = _param(k, mode, eps, digits)
        expected = enumerate_levels_loop(param)
        levels = enumerate_levels(param)
        assert isinstance(levels, LevelSequence)
        assert len(levels) == len(expected)
        assert count_summary(levels) == census_of_records(expected)
        assert levels == expected
        assert _bits(levels.spectrum.shifted_energies()) == _bits(rec.shifted_energy for rec in expected)

    def test_sequence_protocol(self):
        spectrum = order_spectrum(decompose("9.5", RATIONAL))
        levels = spectrum.levels
        expected = tuple(enumerate_levels_loop(spectrum.parameter))
        assert len(levels) == len(expected) == spectrum.xi + 1
        assert levels[-1] == expected[-1] and levels[3] == expected[3]
        assert levels[np.int64(2)] == expected[2]
        assert levels[1:7:2] == expected[1:7:2]
        assert levels == expected and levels == list(expected) and expected == levels
        assert levels != expected[:-1] and levels != "levels"
        assert levels.index(expected[5]) == 5 and expected[5] in levels
        assert list(reversed(levels)) == list(reversed(expected))
        assert levels[4] is levels[4]
        for index in (len(expected), -len(expected) - 1):
            with pytest.raises(IndexError):
                levels[index]
        with pytest.raises(TypeError):
            hash(levels)
        with pytest.raises(TypeError):
            levels[0] = expected[0]

    def test_records_are_built_on_first_use(self, monkeypatch):
        built = []
        original = LevelRecord.__init__
        monkeypatch.setattr(LevelRecord, "__init__", lambda self, *a, **kw: built.append(1) or original(self, *a, **kw))
        levels = order_spectrum(decompose("60.3717", IRRATIONAL)).levels
        assert len(levels) == 61 * 62 // 2 and not built
        levels[1000]
        assert len(built) == 1
        next(iter(levels))
        assert len(built) < 2 + 1024  # one chunk, not the whole spectrum
        list(levels)
        list(levels)
        assert len(built) == len(levels)

    def test_shifted_energies_is_a_copy(self):
        spectrum = order_spectrum(decompose("5.25", RATIONAL))
        spectrum.shifted_energies()[0] = 1.0
        assert spectrum.shifted_energies()[0] == spectrum.levels[0].shifted_energy


class TestMuBasisColumns:
    @staticmethod
    def _overrides(records, picks, pair):
        doublets = [i for i, rec in enumerate(records) if rec.classification == DOUBLET]
        return {doublets[p % len(doublets)]: pair for p in picks} if doublets else {}

    @settings(max_examples=40, deadline=None)
    @given(
        **_wells,
        picks=st.lists(st.integers(min_value=0, max_value=10**6), max_size=4),
        gamma=st.complex_numbers(max_magnitude=2.0).filter(lambda z: abs(z) > 1e-3),
        delta=st.complex_numbers(max_magnitude=2.0),
    )
    def test_property_states_match_the_eager_loop(self, k, mode, eps, digits, picks, gamma, delta):
        param = _param(k, mode, eps, digits)
        records = enumerate_levels_loop(param)
        spectrum = order_spectrum(param)
        coeffs = MixingCoefficients.normalized(gamma, delta)
        overrides = self._overrides(records, picks, MixingCoefficients.normalized(delta, -gamma))
        for args in ((), (coeffs,), (coeffs, overrides)):
            try:
                expected = mu_states_eager(records, *args)
            except ValueError as exc:
                with pytest.raises(ValueError) as info:
                    build_mu_basis(spectrum, *args)
                assert str(info.value) == str(exc)
            else:
                assert build_mu_basis(spectrum, *args).states == expected

    def test_override_at_a_singlet_is_refused(self, spectrum_3pi):
        singlet = next(i for i, rec in enumerate(spectrum_3pi.levels) if rec.classification == SINGLET)
        with pytest.raises(ValueError, match=rf"override at level {singlet}: the singlet"):
            build_mu_basis(spectrum_3pi, overrides={singlet: MixingCoefficients(1.0, 0.0)})

    @pytest.mark.parametrize("index", [-1, 55, 10**9, 1.0, "3"])
    def test_override_outside_the_levels_is_refused(self, spectrum_3pi, index):
        with pytest.raises(ValueError, match=rf"override at level {index!r}: the level indices are 0..54"):
            build_mu_basis(spectrum_3pi, overrides={index: MixingCoefficients(1.0, 0.0)})

    def test_override_is_carried_by_the_columns(self, spectrum_3pi):
        special = MixingCoefficients.normalized(0.3 - 0.1j, 1j)
        basis = build_mu_basis(spectrum_3pi, overrides={18: special})
        assert (basis.gamma[18], basis.delta[18]) == (special.gamma, special.delta)
        assert basis.states[18] == MuState(18, *spectrum_3pi.levels[18].members[0], special)
        assert (basis.gamma[0], basis.delta[0]) == (1.0, 0.0)  # the ground singlet


class TestCoherentColumns:
    @settings(max_examples=30, deadline=None)
    @given(
        **_wells,
        picks=st.lists(st.integers(min_value=0, max_value=10**6), max_size=3),
        magnitude=st.floats(min_value=0.0, max_value=20.0),
        phase=st.floats(min_value=-3.2, max_value=3.2),
    )
    def test_property_matrix_and_density_match_the_eager_states(self, k, mode, eps, digits, picks, magnitude, phase):
        param = _param(k, mode, eps, digits)
        records = enumerate_levels_loop(param)
        mix = MixingCoefficients.normalized(0.6 - 0.2j, 0.3 + 0.7j)
        overrides = TestMuBasisColumns._overrides(records, picks, MixingCoefficients.normalized(-1.0, 1j))
        try:
            eager = mu_states_eager(records, mix, overrides)
        except ValueError:
            return  # an accidental level: TestMuBasisColumns checks the refusal
        spectrum = order_spectrum(param)
        # the ladder needs increasing float gaps e_i - e_0, which eps within ~1e-16 of a tie does not give
        assume(ladder_strengths_increase(spectrum))
        state = coherent_coefficients(magnitude * cmath.exp(1j * phase), ladder_f(spectrum),
                                      build_mu_basis(spectrum, mix, overrides))
        dim = param.k + 1
        matrix = coefficient_matrix_from_states(state.coefficients, eager, dim)
        assert np.array_equal(state.coefficient_matrix(dim).view(np.uint64), matrix.view(np.uint64))
        basis = MorseBasis(param)
        grid = GridSpec(-1.5, 8.0, -1.2, 7.0, 24, 20)
        try:
            expected = density_grid_loop(basis, types.SimpleNamespace(coefficient_matrix=lambda _: matrix), grid)
        except ValueError:
            # the top mode n = k of an integer well is not bound
            with pytest.raises(ValueError, match="not normalizable"):
                density_grid(basis, state, grid)
        else:
            assert np.array_equal(density_grid(basis, state, grid).values.view(np.uint64), expected.view(np.uint64))


@pytest.mark.deep
def test_deep_coherent_density_builds_no_record_and_no_state(monkeypatch):
    # the whole coherent density of a k = 200 well runs on the columns
    built = []
    for cls in (LevelRecord, MuState):
        original = cls.__init__
        monkeypatch.setattr(cls, "__init__",
                            lambda self, *a, _original=original, **kw: built.append(type(self)) or _original(self, *a, **kw))
    param = decompose("200.3717", IRRATIONAL)
    spectrum = order_spectrum(param)
    assert len(spectrum.levels) == 201 * 202 // 2
    mu_basis = build_mu_basis(spectrum)
    state = coherent_coefficients(2.0, ladder_f(spectrum), mu_basis)
    field = density_grid(MorseBasis(param), state)
    assert field.values.max() > 0.0
    assert built == []
    # the counter sees the objects a caller asks for
    spectrum.levels[7]
    mu_basis.states
    assert built.count(LevelRecord) == 1 and built.count(MuState) == len(spectrum.levels)
