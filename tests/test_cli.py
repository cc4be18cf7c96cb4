"""Command-line interface: golden outputs, determinism, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import morsekit
from morsekit import QuadratureAccuracyError, cli, coherent, fileio, spectrum, states
from morsekit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrumCommand:
    def test_summary_line_and_files(self, tmp_path, capsys):
        code, out, err = run(
            capsys, "spectrum", "--p", "3pi", "--out", str(tmp_path)
        )
        assert code == 0
        assert err == ""
        head = out.splitlines()[0]
        assert head.startswith("k=9 ")
        assert "mode=irrational" in head
        assert "xi=54" in head
        assert "levels=55 states=100" in head
        assert (tmp_path / "spectrum.csv").exists()
        assert (tmp_path / "spectrum.json").exists()

    def test_csv_rows_are_the_levels_in_order(self, tmp_path, capsys):
        code, out, _ = run(capsys, "spectrum", "--p", "3pi", "--out", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert (
            lines[0]
            == "index,n_list,m_list,multiplicity,classification,a,b,shifted_energy,scaled_energy"
        )
        assert len(lines) == 56
        first = lines[1].split(",")
        assert first[:7] == ["0", "0", "0", "1", "singlet", "162", "18"]
        second = lines[2].split(",")
        assert second[0] == "1"
        assert second[1] == "1;0"
        assert second[2] == "0;1"
        assert second[4] == "doublet"

    def test_accidental_row_for_integer_well(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--p", "9", "--mode", "integer", "--out", str(tmp_path)
        )
        assert code == 0
        rows = (tmp_path / "spectrum.csv").read_text().splitlines()[1:]
        accidental = [r for r in rows if ",accidental," in r]
        assert any(",50," in r and "8;4;2" in r and "2;4;8" in r for r in accidental)

    def test_json_mirror_has_same_levels(self, tmp_path, capsys):
        run(capsys, "spectrum", "--p", "7.5", "--mode", "rational", "--out", str(tmp_path))
        doc = json.loads((tmp_path / "spectrum.json").read_text())
        assert doc["p_text"] == "7.5"
        assert doc["mode"] == "rational"
        assert doc["epsilon_ratio"] == [1, 2]
        assert doc["xi"] == 31
        assert len(doc["levels"]) == 32
        assert doc["levels"][0]["index"] == 0

    def test_format_filter(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "spectrum",
            "--p",
            "3pi",
            "--out",
            str(tmp_path),
            "--format",
            "json",
        )
        assert code == 0
        assert not (tmp_path / "spectrum.csv").exists()
        assert (tmp_path / "spectrum.json").exists()

    def test_range_far_left_of_the_well_is_finite(self, tmp_path, capsys):
        # x = -800 puts ln z far past its cap; the density there is an exact zero
        code, _, err = run(
            capsys, "density", "--p", "24.3717", "--mode", "irrational", "--mu", "40",
            "--grid", "10x10", "--xrange=-800:1", "--out", str(tmp_path),
        )
        assert (code, err) == (0, "")
        rows = (tmp_path / "density.csv").read_text().splitlines()[1:]
        values = [float(row.split(",")[2]) for row in rows]
        assert len(values) == 100 and all(math.isfinite(v) for v in values)
        assert values.count(0.0) >= 80
        doc = json.loads((tmp_path / "density_meta.json").read_text())
        assert all(math.isfinite(doc[name]) for name in ("value_max", "riemann_sum"))

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "spectrum", "--p", "3pi", "--out", str(a))
        run(capsys, "spectrum", "--p", "3pi", "--out", str(b))
        assert (a / "spectrum.csv").read_bytes() == (b / "spectrum.csv").read_bytes()
        assert (a / "spectrum.json").read_bytes() == (b / "spectrum.json").read_bytes()


class TestDegeneracyCommand:
    def test_integer_census_line(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "degeneracy", "--p", "28", "--mode", "integer", "--out", str(tmp_path)
        )
        assert code == 0
        assert out.splitlines()[0] == "841 435 360 75"

    def test_irrational_census_line(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "degeneracy",
            "--p",
            "9.42477796076937974",
            "--mode",
            "irrational",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        assert out.splitlines()[0] == "100 55 55 0"

    def test_accidental_file_only_lists_accidentals(self, tmp_path, capsys):
        run(capsys, "degeneracy", "--p", "9", "--mode", "integer", "--out", str(tmp_path))
        rows = (tmp_path / "accidental_levels.csv").read_text().splitlines()[1:]
        assert len(rows) == 4
        assert all(",accidental," in r for r in rows)

    def test_tiny_well_has_single_level(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "degeneracy", "--p", "0.5", "--mode", "rational", "--out", str(tmp_path)
        )
        assert code == 0
        assert out.splitlines()[0] == "1 1 1 0"


class TestDensityCommand:
    def test_level_density_outputs(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "density",
            "--p",
            "3pi",
            "--mu",
            "18",
            "--grid",
            "64x64",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        assert out.startswith("state=mu_18 value_max=")
        assert (tmp_path / "density.csv").exists()
        assert (tmp_path / "density.pgm").exists()
        assert (tmp_path / "density_meta.json").exists()
        assert not (tmp_path / "coherent.json").exists()
        csv_lines = (tmp_path / "density.csv").read_text().splitlines()
        assert csv_lines[0] == "x,y,value"
        assert len(csv_lines) == 1 + 64 * 64

    def test_pgm_header(self, tmp_path, capsys):
        run(
            capsys,
            "density",
            "--p",
            "3pi",
            "--mu",
            "0",
            "--grid",
            "32x48",
            "--out",
            str(tmp_path),
        )
        head = (tmp_path / "density.pgm").read_text().splitlines()[:3]
        assert head == ["P2", "32 48", "65535"]

    def test_coherent_density_writes_sidecar(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "density",
            "--p",
            "3pi",
            "--psi",
            "0.1",
            "--grid",
            "48x48",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        assert out.startswith("state=coherent value_max=")
        doc = json.loads((tmp_path / "coherent.json").read_text())
        assert doc["psi"] == {"re": 0.1, "im": 0.0}
        assert doc["xi"] == 54
        assert 0.0 < doc["bg_residual"] < 1e-40
        assert len(doc["coefficient_magnitudes"]) == 55
        assert doc["coefficient_magnitudes"][0] == pytest.approx(1.0, abs=1e-3)

    def test_custom_mixing_recorded_in_meta(self, tmp_path, capsys):
        run(
            capsys,
            "density",
            "--p",
            "3pi",
            "--mu",
            "1",
            "--gamma",
            "1",
            "--delta",
            "0,1",
            "--grid",
            "32x32",
            "--out",
            str(tmp_path),
        )
        doc = json.loads((tmp_path / "density_meta.json").read_text())
        assert doc["state"] == "mu_1"
        assert doc["gamma"]["re"] == pytest.approx(2.0**-0.5)
        assert doc["delta"]["im"] == pytest.approx(2.0**-0.5)

    def test_explicit_ranges(self, tmp_path, capsys):
        code, _, _ = run(
            capsys,
            "density",
            "--p",
            "3pi",
            "--mu",
            "0",
            "--grid",
            "16x16",
            "--xrange=-1:6",
            "--yrange=-1:6",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        doc = json.loads((tmp_path / "density_meta.json").read_text())
        assert doc["grid"]["x_min"] == -1.0
        assert doc["grid"]["x_max"] == 6.0

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out_dir in (a, b):
            run(
                capsys,
                "density",
                "--p",
                "3pi",
                "--psi",
                "1.2@0.5",
                "--grid",
                "40x40",
                "--out",
                str(out_dir),
            )
        for name in ("density.csv", "density.pgm", "density_meta.json", "coherent.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestUncertaintyCommand:
    def test_sweep_csv_and_separation(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "uncertainty",
            "--p",
            "3pi",
            "--gamma",
            "0.8660254037844386",
            "--delta",
            "0.5",
            "--psi-start",
            "1.5",
            "--psi-stop",
            "2.0",
            "--psi-step",
            "0.1",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        assert "separation_psi=1.7" in out
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "psi,mode,var_q,var_p,product"
        assert len(lines) == 1 + 2 * 6  # one x row and one y row per amplitude
        assert lines[1].startswith("1.5,x,")
        assert lines[2].startswith("1.5,y,")

    def test_symmetric_mix_reports_none(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "uncertainty",
            "--p",
            "3pi",
            "--psi-start",
            "0.5",
            "--psi-stop",
            "1.0",
            "--psi-step",
            "0.25",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        assert "separation_psi=none" in out

    def test_bad_step_rejected(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "uncertainty",
            "--p",
            "3pi",
            "--psi-step",
            "0",
            "--out",
            str(tmp_path),
        )
        assert code == 2
        assert "psi-step" in err


class TestConfigFile:
    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"p": "28", "mode": "integer", "format": "csv"}))
        code, out, _ = run(
            capsys,
            "degeneracy",
            "--config",
            str(cfg),
            "--p",
            "9",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        assert out.splitlines()[0] == "100 55 51 4"
        assert (tmp_path / "accidental_levels.csv").exists()
        assert not (tmp_path / "accidental_levels.json").exists()

    def test_config_supplies_missing_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"p": "28", "mode": "integer"}))
        code, out, _ = run(capsys, "degeneracy", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 0
        assert out.splitlines()[0] == "841 435 360 75"

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"p": "28", "mode": "integer", "colour": "red"}))
        code, _, err = run(capsys, "degeneracy", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 2
        assert "colour" in err

    def test_null_falls_back_to_builtin_default(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"p": "3pi", "mu": 0, "grid": None, "format": "json"}))
        out = tmp_path / "out"
        code, _, _ = run(capsys, "density", "--config", str(cfg), "--out", str(out))
        assert code == 0
        grid = json.loads((out / "density_meta.json").read_text())["grid"]
        assert (grid["nx"], grid["ny"]) == (400, 400)

    def test_json_numbers_for_sweep_bounds(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"p": "3pi", "psi_start": 1.5, "psi_stop": 2.0, "psi_step": 0.25}))
        out = tmp_path / "out"
        code, _, _ = run(capsys, "uncertainty", "--config", str(cfg), "--psi-stop", "1.75", "--out", str(out))
        assert code == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["1.5", "1.5", "1.75", "1.75"]

    @pytest.mark.parametrize("value", [[1], {"a": 1}])
    @pytest.mark.parametrize("key", ["psi_start", "psi_stop", "psi_step"])
    def test_non_scalar_sweep_bound_is_a_usage_error(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"p": "3pi", key: value}))
        code, out, err = run(capsys, "uncertainty", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 2
        assert out == ""
        flag = "--" + key.replace("_", "-")
        assert err.startswith(f"error: cannot parse {flag} value {value!r}")
        assert not (tmp_path / "sweep.csv").exists()

    def test_out_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        out = tmp_path / "from" / "config"
        cfg.write_text(json.dumps({"p": "3pi", "out": str(out)}))
        code, _, _ = run(capsys, "spectrum", "--config", str(cfg))
        assert code == 0
        assert sorted(f.name for f in out.iterdir()) == ["spectrum.csv", "spectrum.json"]

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("spectrum", []),
            ("degeneracy", []),
            ("density", ["--mu", "0", "--grid", "8x8"]),
            ("uncertainty", ["--psi-stop", "0.2"]),
        ],
    )
    def test_every_flag_key_accepted(self, tmp_path, capsys, command, extra):
        # all 14 flag destinations; null falls back to the flag or built-in default
        keys = ["p", "mode", "gamma", "delta", "psi", "mu", "grid", "xrange", "yrange", "out", "format",
                "psi_start", "psi_stop", "psi_step"]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(dict.fromkeys(keys)))
        argv = [command, "--p", "2.5", "--mode", "rational", *extra]
        code, out, err = run(capsys, *argv, "--config", str(cfg), "--out", str(tmp_path / "a"))
        assert (code, err) == (0, "")
        assert run(capsys, *argv, "--out", str(tmp_path / "b"))[1] == out
        for path in (tmp_path / "a").iterdir():
            assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()

    @pytest.mark.parametrize("key", ["config", "func", "command"])
    def test_parser_internal_keys_rejected(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"p": "3pi", key: None}))
        code, out, err = run(capsys, "spectrum", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert (code, out, err) == (2, "", f"error: unknown config keys: {key}\n")
        assert not (tmp_path / "out").exists()

    def test_other_subcommand_keys_are_ignored(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"p": "3pi", "psi": 0.5, "grid": "10x10", "psi_step": 0.2}))
        code, out, err = run(capsys, "spectrum", "--config", str(cfg), "--out", str(tmp_path / "a"))
        assert (code, err) == (0, "")
        assert run(capsys, "spectrum", "--p", "3pi", "--out", str(tmp_path / "b"))[1] == out
        for name in ("spectrum.csv", "spectrum.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestExitCodes:
    def test_unparseable_p(self, tmp_path, capsys):
        code, _, err = run(capsys, "spectrum", "--p", "abc", "--mode", "integer", "--out", str(tmp_path))
        assert code == 2
        assert "error:" in err

    def test_p_beyond_double_range(self, tmp_path, capsys):
        code, out, err = run(capsys, "spectrum", "--p", "1e400", "--mode", "integer", "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == "error: principal parameter must be a positive finite number, got '1e400'\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "value, message",
        [
            (".pi", "cannot parse --p value '.': could not convert string to float: '.'"),
            ("0pi", "principal parameter must be a positive finite number, got '0.0'"),
        ],
    )
    def test_unusable_pi_multiple(self, tmp_path, capsys, value, message):
        code, out, err = run(capsys, "spectrum", "--p", value, "--out", str(tmp_path))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    def test_missing_mode(self, tmp_path, capsys):
        code, _, err = run(capsys, "spectrum", "--p", "4.5", "--out", str(tmp_path))
        assert code == 2
        assert "--mode" in err

    def test_pi_value_must_be_irrational(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "spectrum", "--p", "2pi", "--mode", "integer", "--out", str(tmp_path)
        )
        assert code == 2
        assert "irrational" in err

    def test_density_needs_exactly_one_selector(self, tmp_path, capsys):
        code, _, err = run(capsys, "density", "--p", "3pi", "--out", str(tmp_path))
        assert code == 2
        assert "--mu" in err and "--psi" in err
        code, _, err = run(
            capsys,
            "density",
            "--p",
            "3pi",
            "--mu",
            "0",
            "--psi",
            "1",
            "--out",
            str(tmp_path),
        )
        assert code == 2

    def test_density_mu_out_of_range(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "density", "--p", "3pi", "--mu", "99", "--out", str(tmp_path)
        )
        assert code == 2
        assert "0..54" in err

    def test_ladder_names_the_crossing_doubles_cannot_resolve(self, tmp_path, capsys):
        # 1e-31 above the crossing 1/2 of keys (8, 4) and (9, 3): ordered exactly, equal as doubles
        text = "3.5000000000000000000000000000001"
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "density", "--p", text, "--mode", "irrational", "--psi", "1", "--out", str(out_dir))
        assert (code, out) == (2, "")
        assert err == (
            "error: levels mu_3 and mu_4, keys (a, b) = (8, 4) and (9, 3), have ladder strengths 12.0 and 12.0, "
            f"not increasing in double precision: the keys cross at epsilon = 1/2, within double rounding of p = {text}\n"
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "selector, users",
        [
            (("--mu", "14"), "level mu_14, which uses one, is counted in the spectrum but has"),
            (("--psi", "3"), "the states that use them are counted in the spectrum but have"),
        ],
    )
    def test_threshold_state_refusal_names_its_cause(self, selector, users, tmp_path, capsys):
        # at p = 4 the census counts the states that use mode n = 4, which sits at E = 0
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "density", "--p", "4", "--mode", "integer", *selector, "--out", str(out_dir))
        assert (code, out) == (2, "")
        assert err == (
            "error: mode n = 4 has nu - (2n+1) = 0.0 <= 0 and is not normalizable: at integer p the modes "
            f"n = k sit at the dissociation threshold (E = 0), so {users} no normalizable wavefunction\n"
        )
        assert not out_dir.exists()

    def test_ordering_ambiguity_exit_code(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "spectrum", "--p", "3.5", "--mode", "irrational", "--out", str(tmp_path)
        )
        assert code == 3
        assert "ordering ambiguity" in err

    def test_quadrature_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        import morsekit.coherent

        def explode(*args, **kwargs):
            raise QuadratureAccuracyError("synthetic failure")

        monkeypatch.setattr(morsekit.coherent, "uncertainty_sweep", explode)
        code, _, err = run(
            capsys,
            "uncertainty",
            "--p",
            "3pi",
            "--psi-stop",
            "0.2",
            "--out",
            str(tmp_path),
        )
        assert code == 4
        assert "quadrature accuracy" in err

    def test_depth_beyond_cap_refused_before_enumeration(self, tmp_path, capsys, monkeypatch):
        # k = 10**6 would enumerate 5 * 10**11 level keys
        def explode(*args, **kwargs):
            raise AssertionError("level enumeration ran")

        monkeypatch.setattr(spectrum, "_keys", explode)
        code, out, err = run(capsys, "spectrum", "--p", "1000000", "--mode", "integer", "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == f"error: p = 1000000 gives k = 1000000, above the supported depth k <= {spectrum.K_MAX}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, module, name, cap",
        [
            (("density", "--p", "3pi", "--mu", "1", "--grid", "100000x100000"),
             states, "density_grid", cli.MAX_GRID_CELLS),
            (("uncertainty", "--p", "3pi", "--psi-stop", "1e12", "--psi-step", "1"),
             coherent, "uncertainty_sweep", cli.MAX_SWEEP_POINTS),
            # (stop - start) / step overflows to inf
            (("uncertainty", "--p", "3pi", "--psi-step", "1e-320"),
             coherent, "uncertainty_sweep", cli.MAX_SWEEP_POINTS),
        ],
    )
    def test_size_beyond_cap_refused_before_allocation(self, argv, module, name, cap, tmp_path, capsys,
                                                       monkeypatch):
        def explode(*args, **kwargs):
            raise AssertionError(f"{name} ran")

        monkeypatch.setattr(module, name, explode)
        code, out, err = run(capsys, *argv, "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and f"at most {cap} are supported" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("density", "--p", "3pi", "--mu", "1", "--grid", "1x10"), 2),
            (("uncertainty", "--p", "3pi", "--psi-stop", "0.2"), 4),
        ],
    )
    def test_refused_run_leaves_no_directory(self, argv, code, tmp_path, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise QuadratureAccuracyError("synthetic failure")

        monkeypatch.setattr(coherent, "moments", explode)
        assert run(capsys, *argv, "--out", str(tmp_path / "newdir" / "sub"))[0] == code
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_out_that_is_a_file_is_a_usage_error(self, out, tmp_path, capsys):
        (tmp_path / "afile").write_text("")
        code, stdout, err = run(capsys, "spectrum", "--p", "3pi", "--out", str(tmp_path / out))
        assert (code, stdout) == (2, "")
        assert err.startswith("error: ") and "is not a directory" in err
        assert list(tmp_path.iterdir()) == [tmp_path / "afile"]

    def test_mixing_requires_both_halves(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "density",
            "--p",
            "3pi",
            "--mu",
            "1",
            "--gamma",
            "1",
            "--out",
            str(tmp_path),
        )
        assert code == 2
        assert "--gamma and --delta" in err

    def test_unknown_format_rejected(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "spectrum",
            "--p",
            "3pi",
            "--format",
            "yaml",
            "--out",
            str(tmp_path),
        )
        assert code == 2
        assert "yaml" in err


# Each refused input exits 2 and writes nothing; stderr names the flag or the value.
# {missing} is a config path that does not exist, {listed} a config file holding a JSON list.
REFUSED_INPUTS = [
    ("degeneracy --p 3.5 --mode rational:1/0", "cannot parse the epsilon ratio '1/0'"),
    ("degeneracy --p 3.5 --mode rational:x/2", "cannot parse the epsilon ratio 'x/2'"),
    ("degeneracy --p 3.5 --mode rational:3/2", "epsilon ratio must lie in [0, 1), got 3/2"),
    ("degeneracy --p 3.5 --mode integer:1/2", "a ratio applies only in rational mode, not in integer mode"),
    ("degeneracy --p 3.5 --mode rational:1:2", "unexpected mode arguments in 'rational:1:2'"),
    ("degeneracy --p 3.5 --mode complex", "mode must be one of ('integer', 'rational', 'irrational'), got 'complex'"),
    ("spectrum --mode integer", "--p is required"),
    ("spectrum --p 3pi --config {missing}", "cannot read config file {missing}"),
    ("spectrum --p 3pi --config {listed}", "config file must hold a JSON object"),
    ("density --p 3pi --mu 0 --grid 10by10", "--grid must look like 400x400, got '10by10'"),
    ("density --p 3pi --mu 0 --xrange 0:1:2", "--xrange must look like LO:HI, got '0:1:2'"),
    ("density --p 3pi --mu 0 --yrange 2:1", "--yrange interval is empty: '2:1'"),
    ("spectrum --p 3pi --format ,", "--format selected nothing"),
    ("density --p 1e-300 --mode irrational --mu 0", "mode n = 0 has nu - (2n+1) = 0.0 <= 0 and is not normalizable"),
    ("density --p 1e-300 --mode irrational --psi 1", "mode n = 0 has nu - (2n+1) = 0.0 <= 0 and is not normalizable"),
]


@pytest.mark.parametrize("command, message", REFUSED_INPUTS, ids=[c for c, _ in REFUSED_INPUTS])
def test_refused_input_names_its_cause(command, message, tmp_path, capsys):
    paths = {"missing": tmp_path / "missing.json", "listed": tmp_path / "listed.json"}
    paths["listed"].write_text("[1]")
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, *command.format(**paths).split(), "--out", str(out_dir))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message.format(**paths) in err
    assert not out_dir.exists()


@pytest.mark.parametrize("mode", ["rational:1/2", "rational 1/2", "rational: 1/2", "Rational:0.5", "rational:2/4"])
def test_ratio_forms_give_the_declared_census(mode, tmp_path, capsys):
    # the census of 3.5 with and without the ratio, and the same files
    for name, declared in (("plain", "rational"), ("ratio", mode)):
        code, out, err = run(capsys, "degeneracy", "--p", "3.5", "--mode", declared, "--out", str(tmp_path / name))
        assert (code, out, err) == (0, "16 10 9 1\nwrote accidental_levels.csv accidental_levels.json\n", "")
    for name in ("accidental_levels.csv", "accidental_levels.json"):
        assert (tmp_path / "ratio" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_readme_rational_call(tmp_path, capsys):
    code, out, _ = run(capsys, "degeneracy", "--p", "3.3333333333333", "--mode", "rational 1/3", "--out", str(tmp_path))
    assert (code, out.splitlines()[0]) == (0, "16 10 10 0")


# sha256 of each --help text at 80 columns (argparse's layout as of Python 3.11).
# Keeping the built-in defaults in argparse must leave every help text as it was.
HELP_SHA256 = {
    "": "46c3c73980f116496ce414962bf8a33e17e0d304f852b6a4ea60e7446ba97696",
    "spectrum": "7791b34ce2bf7b495ee3159c6f5d53de8ed042ae6048f07cc77057f541c2ab23",
    "degeneracy": "e9459b791620525d59871cd508655a81069b1c9eaa25b1f001f0d93e074d2d47",
    "density": "1076f56d55c4b80aaa1ae33aefb7c660bafd614eb8904968d49c1498b35f1dd3",
    "uncertainty": "5513878270d7c1634bf6a2a7d710c1964b8b2f708fb64134c462e75ebc3927f2",
}


@pytest.mark.parametrize("command", sorted(HELP_SHA256))
def test_help_text_unchanged(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, *command.split(), "--help")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[command]


NON_FINITE_RUNS = [
    "density --p 3pi --mu 1 --gamma nan --delta 1",
    "density --p 3pi --psi nan",
    "density --p 3pi --psi inf",
    "density --p 3pi --mu 0 --xrange=-inf:3",
    "uncertainty --p 3pi --gamma nan --delta 1",
    "uncertainty --p 3pi --psi-start nan",
    "uncertainty --p 3pi --psi-stop inf",
    "uncertainty --p 3pi --psi-step inf",
]


@pytest.mark.parametrize("command", NON_FINITE_RUNS)
def test_non_finite_input_is_a_usage_error(command, tmp_path, capsys):
    code, out, err = run(capsys, *command.split(), "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def _three_pi_support_box():
    return states.MorseBasis(spectrum.decompose(spectrum.pi_multiple_text(3.0), "irrational")).support_box()


# A library ValueError reaches stderr as "error: " + its message, unchanged.
LIBRARY_REFUSALS = [
    ("spectrum --p 1e400 --mode irrational",
     lambda: spectrum.decompose("1e400", "irrational")),
    ("density --p 3pi --mu 1 --gamma 0 --delta 0 --grid 10x10",
     lambda: states.MixingCoefficients.normalized(0j, 0j)),
    ("density --p 3pi --mu 1 --grid 10x10 --xrange=-inf:3",
     lambda: states.GridSpec(-math.inf, 3.0, *_three_pi_support_box(), 10, 10)),
]


@pytest.mark.parametrize("command, call", LIBRARY_REFUSALS, ids=[c for c, _ in LIBRARY_REFUSALS])
def test_library_error_is_the_usage_message(command, call, tmp_path, capsys):
    with pytest.raises(ValueError) as library:
        call()
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, *command.split(), "--out", str(out_dir))
    assert (code, out) == (2, "")
    assert err == f"error: {library.value}\n"
    assert not out_dir.exists()


# sha256 of every file each run writes.  A non-square grid makes an x/y
# swap or a transposed raster change the bytes.
GOLDEN_RUNS = {
    "spectrum --p 3pi": {
        "stdout": "k=9 epsilon=0.42477796076937974 mode=irrational xi=54 levels=55 states=100\n"
        "wrote spectrum.csv spectrum.json\n",
        "files": {
            "spectrum.csv": "79b292ea4fbf7d3643a86026033d2085444f144d79289a4bcc55fe4f2896e8f1",
            "spectrum.json": "5680b37abba180660a8a13c13a555aa2a78491bb26ec0c0125cb01a14cc580c7",
        },
    },
    "degeneracy --p 28 --mode integer": {
        "stdout": "841 435 360 75\nwrote accidental_levels.csv accidental_levels.json\n",
        "files": {
            "accidental_levels.csv": "84cdf7c47d86260ef998d8198fb0812c47ce28b8a0207c2ff0452f40cb875967",
            "accidental_levels.json": "be913a26610488d9bd4371414b8f9a37768e86fe75a02a3149fcc9a81004e716",
        },
    },
    "density --p 3pi --psi 0.1 --grid 120x90": {
        "stdout": "state=coherent value_max=1.417168661087675\n"
        "wrote density.csv density.pgm density_meta.json coherent.json\n",
        "files": {
            "coherent.json": "ae37239391c1360ea71de0fea2af4a4c544670765d39808153b3b88c6300827d",
            "density.csv": "0faa1ef14e44e48a7fcae6cd427b3ec9c860cda25ab8bf991cff3bbf065da3b3",
            "density.pgm": "769f4fe3633fe7a9379154d26b3cfd5fd121a5a02d9f5463a9fedb1f12ea3f1b",
            "density_meta.json": "4bddba503a7c5a32bc265016bd2db5ce81f692bcb9cbc54180e7ecf899aedf51",
        },
    },
    "density --p 3pi --mu 18 --gamma 0.866 --delta 0.5 --grid 70x110": {
        "stdout": "state=mu_18 value_max=0.4315761077599864\n"
        "wrote density.csv density.pgm density_meta.json\n",
        "files": {
            "density.csv": "dc6f3899b75a8395aa48d681242e8eb5d7446420710f8e50d9acc4391409becd",
            "density.pgm": "1c2aee8b052e10c99516ba7a35f62e52569271fc27130b805992c95077005d0a",
            "density_meta.json": "e2da07eb44169a1573b1890e8e55b2e4b24435130b7a5933184a9e82d64e5dd8",
        },
    },
    "uncertainty --p 3pi --gamma 0.866 --delta 0.5": {
        "stdout": "wrote sweep.csv\nseparation_psi=1.7\n",
        "files": {
            "sweep.csv": "d797dfdfbb7ca2c8f9bf0816234f70634d6934dd5333f3fbc9f053de7425e545",
        },
    },
}


@pytest.mark.parametrize("command", sorted(GOLDEN_RUNS))
def test_golden_bytes(command, tmp_path, capsys):
    code, out, err = run(capsys, *command.split(), "--out", str(tmp_path))
    assert (code, err) == (0, "")
    assert out == GOLDEN_RUNS[command]["stdout"]
    written = {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(tmp_path.iterdir())
    }
    assert written == GOLDEN_RUNS[command]["files"]


@pytest.mark.deep
def test_deep_level_density_builds_one_state(tmp_path, capsys, monkeypatch):
    # --mu draws one level of the 80 601 at K_MAX, and only that level's MuState is built
    built = []
    original = states.MuState.__init__
    monkeypatch.setattr(states.MuState, "__init__", lambda self, *a, **kw: built.append(a) or original(self, *a, **kw))
    argv = ("density", "--p", "400.3717", "--mode", "irrational", "--mu", "0", "--grid", "50x50")
    code, out, err = run(capsys, *argv, "--out", str(tmp_path))
    assert (code, err, built) == (0, "", [(0, 0, 0)])
    assert out == "state=mu_0 value_max=5.3467368761765753e-14\nwrote density.csv density.pgm density_meta.json\n"
    written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(tmp_path.iterdir())}
    assert written == {
        "density.csv": "1e67c34c3adda21c7c0f6b2e5b42df40a00bdfc177828a34c94e6fbba9e68412",
        "density.pgm": "2e40867cbb072d6eda722ed4383fdf3f7b28e32129e9e32a730697ebf8fff833",
        "density_meta.json": "dc1bb0924e89626c93b2990ca21aff2cd08c6e204131236a8c3b99e757922d10",
    }


# Every library call the CLI makes, with a run that reaches it.  The CLI looks
# each name up on its module at call time, so a replaced attribute (a
# benchmark span, a test double) is the one that runs.
DENSITY_RUN = ("density", "--p", "3pi", "--psi", "0.5", "--grid", "12x10")
UNCERTAINTY_RUN = ("uncertainty", "--p", "3pi", "--psi-stop", "0.3")
CLI_CALLS = [
    (fileio, "write_spectrum_csv", ("spectrum", "--p", "3pi")),
    (fileio, "write_spectrum_json", ("spectrum", "--p", "3pi")),
    (fileio, "write_density_csv", DENSITY_RUN),
    (fileio, "write_density_pgm", DENSITY_RUN),
    (fileio, "write_density_meta", DENSITY_RUN),
    (fileio, "write_coherent_json", DENSITY_RUN),
    (fileio, "write_sweep_csv", UNCERTAINTY_RUN),
    (spectrum, "decompose", ("spectrum", "--p", "3pi")),
    (spectrum, "order_spectrum", ("spectrum", "--p", "3pi")),
    (spectrum, "count_summary", ("degeneracy", "--p", "3pi")),
    (states, "build_mu_basis", DENSITY_RUN),
    (states, "density_grid", DENSITY_RUN),
    (coherent, "ladder_f", DENSITY_RUN),
    (coherent, "coherent_coefficients", DENSITY_RUN),
    (coherent, "bg_residual", DENSITY_RUN),
    (coherent, "uncertainty_sweep", UNCERTAINTY_RUN),
]


@pytest.mark.parametrize(
    "module, name, argv", CLI_CALLS, ids=[f"{m.__name__}.{n}" for m, n, _ in CLI_CALLS]
)
def test_cli_calls_the_module_attribute(module, name, argv, tmp_path, capsys, monkeypatch):
    calls = []
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    code, _, err = run(capsys, *argv, "--out", str(tmp_path))
    assert (code, err) == (0, "")
    assert calls


def test_cli_runs_without_scipy(tmp_path):
    # scipy is a test-only dependency: no subcommand may load any part of it
    script = f"""
import sys
import morsekit.cli
out = {str(tmp_path)!r}
for argv in (
    ["spectrum", "--p", "3pi"],
    ["degeneracy", "--p", "3pi"],
    ["density", "--p", "3pi", "--psi", "0.5", "--grid", "12x10"],
    ["uncertainty", "--p", "3pi", "--psi-stop", "0.3"],
):
    assert morsekit.cli.main(argv + ["--out", out]) == 0, argv
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""
    run_fresh(script)


def test_runtime_never_imports_mpmath(tmp_path):
    # mpmath is a test-only reference: the README calls and the direct residual run without it
    script = f"""
import sys
import morsekit.cli
out = {str(tmp_path)!r}
for argv in (
    ["spectrum", "--p", "3pi"],
    ["degeneracy", "--p", "28", "--mode", "integer"],
    ["density", "--p", "3pi", "--mu", "18", "--gamma", "0.866", "--delta", "0.5", "--grid", "300x300"],
    ["density", "--p", "3pi", "--psi", "0.1"],
    ["uncertainty", "--p", "3pi", "--gamma", "0.866", "--delta", "0.5"],
):
    assert morsekit.cli.main(argv + ["--out", out]) == 0, argv
spectrum = morsekit.order_spectrum(morsekit.decompose(morsekit.pi_multiple_text(3.0), "irrational"))
ladder = morsekit.ladder_f(spectrum)
state = morsekit.coherent_coefficients(1.5 + 2j, ladder, morsekit.build_mu_basis(spectrum))
assert morsekit.bg_residual_direct(state, ladder) > 0.0
assert "mpmath" not in sys.modules
"""
    run_fresh(script)


def _piped_cli(argv, buffering):
    """A fresh ``python -m morsekit.cli`` with stdout and stderr as pipes, block-buffered unless asked."""
    src = str(Path(morsekit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if buffering == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "morsekit.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
@pytest.mark.parametrize("lines_read", [0, 1], ids=["reader-closed-at-once", "reader-closed-after-one-line"])
def test_closed_stdout_ends_a_finished_run(buffering, lines_read, tmp_path):
    # `morsekit degeneracy ... | true` and `| head -n 1`: exit 0, nothing on stderr, both files written
    proc = _piped_cli(["degeneracy", "--p", "28", "--mode", "integer", "--out", str(tmp_path / "run")], buffering)
    if lines_read:
        assert proc.stdout.readline() == b"841 435 360 75\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (0, b"")
    assert sorted(path.name for path in (tmp_path / "run").iterdir()) == ["accidental_levels.csv",
                                                                         "accidental_levels.json"]


@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["", "density"], ids=["top-level", "density"])
def test_closed_stdout_ends_help_quietly(buffering, command):
    # `morsekit --help | true`: argparse prints the help and exits inside the parse, which
    # must meet the same closed-pipe handler as a command's output
    proc = _piped_cli([*command.split(), "--help"], buffering)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (0, b"")


def run_fresh(script):
    src = str(Path(morsekit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
