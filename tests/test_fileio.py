"""File writers on synthetic fields: exact layouts and round-trips."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    density_pgm_loop,
    write_coherent_json_dumps,
    write_density_csv_repr,
    write_spectrum_csv_cells,
    write_spectrum_json_dumps,
)

from morsekit import (
    GridSpec,
    ScalarField2D,
    bg_residual,
    build_mu_basis,
    coherent_coefficients,
    decompose,
    ladder_f,
    order_spectrum,
    pi_multiple_text,
)
from morsekit.fileio import (
    _float_text,
    write_coherent_json,
    write_density_csv,
    write_density_meta,
    write_density_pgm,
    write_spectrum_csv,
    write_spectrum_json,
    write_sweep_csv,
)


@pytest.fixture()
def ramp_field():
    grid = GridSpec(0.0, 2.0, 0.0, 1.0, 2, 3)
    values = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 8.0]])
    return ScalarField2D(grid, values)


class TestDensityCsv:
    def test_row_order_and_values(self, tmp_path, ramp_field):
        path = tmp_path / "density.csv"
        write_density_csv(path, ramp_field)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,value"
        assert len(lines) == 7
        # x outer, y inner: first block is x = 0.5 over ascending y
        x0, y0, v0 = lines[1].split(",")
        assert float(x0) == 0.5
        assert float(y0) == pytest.approx(1.0 / 6.0)
        assert float(v0) == 0.0
        x_last, y_last, v_last = lines[-1].split(",")
        assert float(x_last) == 1.5
        assert float(v_last) == 8.0

    def test_values_round_trip_through_repr(self, tmp_path):
        grid = GridSpec(0.0, 1.0, 0.0, 1.0, 2, 2)
        values = np.array([[0.1, 1.0 / 3.0], [2.0 / 7.0, 1e-30]])
        write_density_csv(tmp_path / "d.csv", ScalarField2D(grid, values))
        rows = (tmp_path / "d.csv").read_text().splitlines()[1:]
        parsed = np.array([float(r.split(",")[2]) for r in rows]).reshape(2, 2)
        assert np.array_equal(parsed, values)


# the doubles on both sides of repr's switches between positional and exponent form
_FORM_EDGES = [sign * v for edge in (1e-4, 1e16) for v in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf))
               for sign in (1.0, -1.0)]


def _formatted(values) -> list:
    text = _float_text(np.array(values, dtype=float))
    return [row[row != 0].tobytes().decode() for row in text]


class TestDensityCsvMatchesRepr:
    """write_density_csv against the repr loop it replaced (tests/oracles.py), byte for byte."""

    def test_formatter_on_powers_of_two_and_edges(self):
        values = [math.ldexp(1.0, e) for e in range(-1074, 1024)]
        values += [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
        values += [1e-5, 1e-4, 9.999999999999999e15, 1e16, 1e17, 0.1, 123.0]
        assert _formatted(values) == [repr(v) for v in values]

    @settings(max_examples=60, deadline=None)
    @given(
        pool=st.lists(st.one_of(st.floats(), st.sampled_from(_FORM_EDGES)), min_size=1, max_size=64),
        nx=st.integers(min_value=2, max_value=40),
        ny=st.integers(min_value=2, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        x_min=st.floats(min_value=-1e6, max_value=1e6),
        width=st.floats(min_value=1e-3, max_value=1e6),
    )
    def test_property_matches_repr_loop(self, tmp_path_factory, pool, nx, ny, seed, x_min, width):
        rng = np.random.default_rng(seed)
        values = rng.choice(np.array(pool), size=(nx, ny))
        field = ScalarField2D(GridSpec(x_min, x_min + width, -width, width, nx, ny), values)
        folder = tmp_path_factory.mktemp("csv")
        write_density_csv(folder / "new.csv", field)
        write_density_csv_repr(folder / "old.csv", field)
        assert (folder / "new.csv").read_bytes() == (folder / "old.csv").read_bytes()

    def test_blocks_join_on_random_bit_patterns(self, tmp_path):
        # 4900 cells span two blocks; the bit patterns reach every exponent, sign and NaN payload
        bits = np.random.default_rng(7).integers(0, 2**64, size=(70, 70), dtype=np.uint64)
        field = ScalarField2D(GridSpec(-3.0, 40.0, -3.0, 40.0, 70, 70), bits.view(float))
        write_density_csv(tmp_path / "new.csv", field)
        write_density_csv_repr(tmp_path / "old.csv", field)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestDensityPgm:
    def test_scaling_and_orientation(self, tmp_path, ramp_field):
        path = tmp_path / "density.pgm"
        write_density_pgm(path, ramp_field)
        lines = path.read_text().splitlines()
        assert lines[:3] == ["P2", "2 3", "65535"]
        pixels = [int(tok) for line in lines[3:] for tok in line.split()]
        # top raster row is the highest y: values[:, 2] = (2, 8) -> (16384, 65535)
        assert pixels[:2] == [16384, 65535]
        assert pixels[-2:] == [0, round(3 / 8 * 65535)]

    def test_all_zero_field(self, tmp_path):
        grid = GridSpec(0.0, 1.0, 0.0, 1.0, 2, 2)
        write_density_pgm(tmp_path / "z.pgm", ScalarField2D(grid, np.zeros((2, 2))))
        lines = (tmp_path / "z.pgm").read_text().splitlines()
        assert all(tok == "0" for line in lines[3:] for tok in line.split())

    def test_lines_stay_narrow(self, tmp_path):
        grid = GridSpec(0.0, 1.0, 0.0, 1.0, 300, 2)
        field = ScalarField2D(grid, np.full((300, 2), 0.5))
        write_density_pgm(tmp_path / "w.pgm", field)
        assert max(len(l) for l in (tmp_path / "w.pgm").read_text().splitlines()) <= 70

    @settings(max_examples=40, deadline=None)
    @given(
        nx=st.integers(min_value=2, max_value=160),
        ny=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        spread=st.sampled_from([0.0, 1e-6, 1.0, 1e6]),
    )
    def test_matches_token_loop(self, tmp_path_factory, nx, ny, seed, spread):
        # spread mixes pixel widths of one to five digits on a line
        rng = np.random.default_rng(seed)
        values = rng.random((nx, ny)) ** (1.0 + spread * rng.random((nx, ny)))
        field = ScalarField2D(GridSpec(0.0, 1.0, 0.0, 1.0, nx, ny), values)
        path = tmp_path_factory.mktemp("pgm") / "d.pgm"
        write_density_pgm(path, field)
        assert path.read_text() == density_pgm_loop(field)


class TestDensityMeta:
    def test_contents(self, tmp_path, ramp_field):
        path = tmp_path / "meta.json"
        write_density_meta(path, ramp_field, "3.14", "mu_7", None, None)
        doc = json.loads(path.read_text())
        assert doc["p_text"] == "3.14"
        assert doc["state"] == "mu_7"
        assert doc["grid"]["nx"] == 2
        assert doc["value_max"] == 8.0
        assert doc["riemann_sum"] == pytest.approx(18.0 * (1.0 / 3.0))
        assert "gamma" not in doc

    def test_sorted_keys_for_determinism(self, tmp_path, ramp_field):
        path = tmp_path / "meta.json"
        write_density_meta(path, ramp_field, "2.5", "mu_0", None, None)
        keys = [line.split('"')[1] for line in path.read_text().splitlines() if '":' in line]
        top = [k for k in keys if k in {"grid", "p_text", "pgm_orientation", "riemann_sum", "state", "value_max"}]
        assert top == sorted(top)


class TestSpectrumCsv:
    HEADER = "index,n_list,m_list,multiplicity,classification,a,b,shifted_energy,scaled_energy"

    def test_no_accidentals_is_header_only(self, tmp_path):
        path = tmp_path / "accidental.csv"
        write_spectrum_csv(path, order_spectrum(decompose("9.3717", "irrational")), "accidental")
        assert path.read_text() == self.HEADER + "\n"

    def test_list_and_float_cells(self, tmp_path):
        spectrum = order_spectrum(decompose("9", "integer"))
        path = tmp_path / "spectrum.csv"
        write_spectrum_csv(path, spectrum)
        lines = path.read_text().splitlines()
        assert lines[0] == self.HEADER
        assert len(lines) == len(spectrum.levels) + 1
        for i, (line, rec) in enumerate(zip(lines[1:], spectrum.levels)):
            cells = line.split(",")
            assert cells[:2] == [str(i), ";".join(str(n) for n, _ in rec.members)]
            assert cells[2] == ";".join(str(m) for _, m in rec.members)
            assert cells[3:7] == [str(rec.multiplicity), rec.classification, str(rec.key.a), str(rec.key.b)]
            assert cells[7] == repr(rec.shifted_energy)
        accidental = next(l for l in lines if ",accidental," in l)
        assert accidental.split(",")[1].count(";") >= 2

    @staticmethod
    def _assert_matches_cells(tmp_path, spectrum, only):
        write_spectrum_csv(tmp_path / "template.csv", spectrum, only)
        write_spectrum_csv_cells(tmp_path / "cells.csv", spectrum, only)
        assert (tmp_path / "template.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(min_value=0, max_value=40),
        mode=st.sampled_from(["integer", "rational", "irrational"]),
        eps=st.fractions(min_value=Fraction(1, 40), max_value=Fraction(39, 40), max_denominator=40),
        only=st.sampled_from([None, "singlet", "doublet", "accidental"]),
    )
    def test_property_matches_cells(self, tmp_path_factory, k, mode, eps, only):
        if mode == "integer":
            param = decompose(str(max(k, 1)), mode)
        elif mode == "rational":
            param = decompose(repr(k + float(eps)), mode, eps)
        else:
            param = decompose(f"{k}.{eps.numerator * 10**9 // eps.denominator + 1:09d}", mode)
        self._assert_matches_cells(tmp_path_factory.mktemp("csv"), order_spectrum(param), only)

    @pytest.mark.parametrize("text, mode", [("3pi", "irrational"), ("0.5", "rational"), ("28", "integer")])
    @pytest.mark.parametrize("only", [None, "singlet", "doublet", "accidental"])
    def test_grid_matches_cells(self, tmp_path, text, mode, only):
        if text == "3pi":
            text = pi_multiple_text(3.0)
        self._assert_matches_cells(tmp_path, order_spectrum(decompose(text, mode)), only)


class TestSpectrumJson:
    """The per-level template writes the bytes of one json.dumps(indent=1) of the whole document."""

    @staticmethod
    def _assert_matches_dumps(tmp_path, spectrum, only):
        write_spectrum_json(tmp_path / "template.json", spectrum, only)
        write_spectrum_json_dumps(tmp_path / "dumps.json", spectrum, only)
        assert (tmp_path / "template.json").read_bytes() == (tmp_path / "dumps.json").read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(min_value=0, max_value=40),
        mode=st.sampled_from(["integer", "rational", "irrational"]),
        eps=st.fractions(min_value=Fraction(1, 40), max_value=Fraction(39, 40), max_denominator=40),
        only=st.sampled_from([None, "singlet", "doublet", "accidental"]),
    )
    def test_property_matches_dumps(self, tmp_path_factory, k, mode, eps, only):
        if mode == "integer":
            param = decompose(str(max(k, 1)), mode)
        elif mode == "rational":
            param = decompose(repr(k + float(eps)), mode, eps)
        else:
            param = decompose(f"{k}.{eps.numerator * 10**9 // eps.denominator + 1:09d}", mode)
        self._assert_matches_dumps(tmp_path_factory.mktemp("json"), order_spectrum(param), only)

    @pytest.mark.parametrize("text, mode", [("3pi", "irrational"), ("0.5", "rational"), ("28", "integer")])
    @pytest.mark.parametrize("only", [None, "singlet", "doublet", "accidental"])
    def test_grid_matches_dumps(self, tmp_path, text, mode, only):
        if text == "3pi":
            text = pi_multiple_text(3.0)
        self._assert_matches_dumps(tmp_path, order_spectrum(decompose(text, mode)), only)

    def test_empty_selection(self, tmp_path):
        path = tmp_path / "spectrum.json"
        write_spectrum_json(path, order_spectrum(decompose("9.3717", "irrational")), "accidental")
        assert '\n "levels": [],\n' in path.read_text()


class TestCoherentJson:
    """The array forms of the magnitudes and phases write the bytes of the per-coefficient writer."""

    @staticmethod
    def _assert_matches_dumps(tmp_path, state, residual):
        write_coherent_json(tmp_path / "arrays.json", state, residual)
        write_coherent_json_dumps(tmp_path / "dumps.json", state, residual)
        assert (tmp_path / "arrays.json").read_bytes() == (tmp_path / "dumps.json").read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(
        magnitude=st.floats(min_value=0.0, max_value=20.0),
        phase=st.floats(min_value=-4.0, max_value=4.0),
    )
    def test_property_matches_dumps(self, tmp_path_factory, ladder_3pi, mu_3pi, magnitude, phase):
        state = coherent_coefficients(magnitude * np.exp(1j * phase), ladder_3pi, mu_3pi)
        self._assert_matches_dumps(tmp_path_factory.mktemp("coherent"), state, bg_residual(state, ladder_3pi))

    @pytest.mark.parametrize(
        "text, psi",
        [(pi_multiple_text(3.0), 0.1), (pi_multiple_text(3.0), 1.5 + 2j), ("60.3717", 5.0), ("400.3717", 2.0)],
    )
    def test_grid_matches_dumps(self, tmp_path, text, psi):
        spectrum = order_spectrum(decompose(text, "irrational"))
        ladder = ladder_f(spectrum)
        state = coherent_coefficients(psi, ladder, build_mu_basis(spectrum))
        self._assert_matches_dumps(tmp_path, state, bg_residual(state, ladder))


class TestSweepCsv:
    def test_two_rows_per_point(self, tmp_path, basis_3pi, mu_3pi):
        from morsekit import uncertainty_sweep

        points = uncertainty_sweep(basis_3pi, mu_3pi, psi_values=[0.5, 1.0])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, points)
        lines = path.read_text().splitlines()
        assert lines[0] == "psi,mode,var_q,var_p,product"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[:2] == ["0.5", "x"]
        assert float(first[4]) == pytest.approx(float(first[2]) * float(first[3]), rel=1e-12)
        assert lines[2].split(",")[:2] == ["0.5", "y"]
        assert lines[3].split(",")[:2] == ["1.0", "x"]
