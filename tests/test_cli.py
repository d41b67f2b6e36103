import json
import math

import pytest

from duality_lab import oracle, sweep
from duality_lab.cli import main


def _fail_if_called(*args, **kwargs):
    raise AssertionError("evaluation started before the input was rejected")


class TestMeasuresCommand:
    def test_plain_output(self, capsys):
        assert main(["measures", "--alpha1", "2", "--alpha2", "1"]) == 0
        out = capsys.readouterr().out
        assert "C      = 0.571428571428571" in out
        assert "mu_s   = 0.714285714285714" in out

    def test_json_output(self, capsys):
        assert main(["measures", "--alpha1", "2,0", "--alpha2", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["alpha1"] == [2.0, 0.0]
        assert payload["measures"]["C"] == pytest.approx(4 / 7, abs=1e-15)

    def test_oracle_flag_adds_residuals(self, capsys):
        assert main(
            ["measures", "--alpha1", "1", "--alpha2", "1", "--oracle", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["oracle"]["cutoff"] >= 16
        assert max(payload["oracle"]["residuals"].values()) < 1e-8

    def test_complex_argument_parsing(self, capsys):
        assert main(["measures", "--alpha1", "1,1", "--alpha2", "0.5,-0.25", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["alpha1"] == [1.0, 1.0]
        assert payload["alpha2"] == [0.5, -0.25]

    def test_bad_complex_argument_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["measures", "--alpha1", "nope", "--alpha2", "1"])
        assert excinfo.value.code == 2

    def test_out_of_range_seed_is_validation_failure(self, capsys):
        assert main(["measures", "--alpha1", "2000", "--alpha2", "1"]) == 1
        assert "error:" in capsys.readouterr().err


class TestVerifyCommand:
    def test_passing_run_exits_zero(self, capsys):
        rc = main(["verify", "--samples", "500", "--seed", "42", "--alpha-max", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out

    def test_impossible_tolerance_exits_one(self, capsys):
        rc = main(
            ["verify", "--samples", "50", "--seed", "1", "--tol-closed", "0",
             "--tol-oracle", "0"]
        )
        assert rc == 1
        assert "overall: FAIL" in capsys.readouterr().out

    def test_json_flag(self, capsys):
        rc = main(["verify", "--samples", "50", "--seed", "3", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_passed"] is True

    def test_bad_sample_count_exits_one(self, capsys):
        assert main(["verify", "--samples", "0", "--seed", "1"]) == 1

    def test_alpha_max_above_seed_bound_exits_one_up_front(self, monkeypatch, capsys):
        monkeypatch.setattr(oracle, "closed_form_measures", _fail_if_called)
        assert main(["verify", "--alpha-max", "1001"]) == 1
        assert "--alpha-max" in capsys.readouterr().err


class TestSweepCommand:
    def test_fig2a_csv(self, tmp_path, capsys):
        out = tmp_path / "fig2a.csv"
        rc = main(["sweep", "--mode", "fig2a", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 122
        assert "wrote 121 rows" in capsys.readouterr().out

    def test_axis_overrides(self, tmp_path):
        out = tmp_path / "short.csv"
        rc = main(
            ["sweep", "--mode", "fig2b", "--out", str(out), "--amax", "1",
             "--astep", "0.5"]
        )
        assert rc == 0
        assert len(out.read_text().splitlines()) == 4

    def test_surface_svg_multifile(self, tmp_path):
        rc = main(
            ["sweep", "--mode", "surface", "--out", str(tmp_path / "surf.svg"),
             "--format", "svg", "--amax", "2", "--astep", "0.5", "--gstep", "0.25"]
        )
        assert rc == 0
        assert (tmp_path / "surf_C.svg").exists()
        assert (tmp_path / "surf_V.svg").exists()

    def test_oracle_flag(self, tmp_path):
        out = tmp_path / "fig2a.csv"
        rc = main(
            ["sweep", "--mode", "fig2a", "--out", str(out), "--amax", "1",
             "--astep", "0.5", "--oracle"]
        )
        assert rc == 0
        header = out.read_text().splitlines()[0]
        assert header.endswith("oracle_residual")

    def test_surface_seed_bound_exits_one_up_front(self, tmp_path, monkeypatch, capsys):
        # |alpha_1| = |alpha| / gamma reaches 10 / 0.002 = 5000 on this grid
        monkeypatch.setattr(sweep, "_grid_columns", _fail_if_called)
        out = tmp_path / "surface.csv"
        rc = main(["sweep", "--mode", "surface", "--gstep", "0.002", "--out", str(out)])
        assert rc == 1
        assert "--gstep" in capsys.readouterr().err
        assert not out.exists()

    def test_repeat_runs_byte_identical(self, tmp_path):
        args = ["sweep", "--mode", "fig2a", "--amax", "2", "--astep", "0.1"]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(args + ["--out", str(a), "--format", "json"]) == 0
        assert main(args + ["--out", str(b), "--format", "json"]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestFringeAndFitCommands:
    def test_fringe_writes_scan_and_summary(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        rc = main(
            ["fringe", "--alpha1", "2", "--alpha2", "1", "--points", "64",
             "--scale", "1e6", "--tint", "0.01", "--seed", "5",
             "--noise", "poisson", "--out", str(out)]
        )
        assert rc == 0
        summary = capsys.readouterr().out
        assert "fitted C" in summary and "analytic C = 0.571428571" in summary
        assert out.exists()

    def test_fringe_noiseless_matches_analytic(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        rc = main(
            ["fringe", "--alpha1", "2", "--alpha2", "1", "--points", "32",
             "--scale", "1", "--tint", "1", "--seed", "0", "--noise", "none",
             "--out", str(out)]
        )
        assert rc == 0
        summary = capsys.readouterr().out
        fitted = float(summary.split("fitted C = ")[1].split(" ")[0])
        assert fitted == pytest.approx(4 / 7, abs=1e-9)

    def test_fringe_deterministic_output(self, tmp_path):
        args = ["fringe", "--alpha1", "2", "--alpha2", "2", "--points", "50",
                "--scale", "2e6", "--tint", "0.01", "--seed", "11",
                "--noise", "poisson"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_fit_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        main(
            ["fringe", "--alpha1", "1", "--alpha2", "1", "--points", "80",
             "--scale", "5e6", "--tint", "0.01", "--seed", "2",
             "--noise", "poisson", "--out", str(out)]
        )
        capsys.readouterr()
        rc = main(["fit", "--input", str(out), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["points"] == 80
        assert payload["coherence_estimate"] == pytest.approx(0.5, abs=0.02)
        assert payload["coherence_stderr"] > 0

    def test_fit_missing_file_exits_two(self, tmp_path, capsys):
        rc = main(["fit", "--input", str(tmp_path / "absent.csv")])
        assert rc == 2

    def test_fit_malformed_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("delta_theta,counts\n0.0,oops\n")
        rc = main(["fit", "--input", str(bad)])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

