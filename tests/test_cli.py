import dataclasses
import errno
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.special import gammainc

from duality_lab import cli, oracle, sweep
from duality_lab.analytic import SeedPair, complementarity_measures
from duality_lab.cli import build_parser, main
from duality_lab.fock import DEFAULT_POLICY
from duality_lab.interferometer import FringeFit


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

    def test_near_equal_seeds_keep_their_small_p(self, capsys):
        # P = |a - b| (a + b) / T = 3.0e-10 here; a root of 1 - V^2 would print 0 or 1e-8
        assert main(["measures", "--alpha1", "3", "--alpha2", "3.000000001", "--oracle"]) == 0
        out = capsys.readouterr().out
        assert "P      = 0.000000000300000" in out
        (delta_p,) = [line for line in out.splitlines() if "|delta P " in line]
        assert float(delta_p.rsplit("=", 1)[1]) <= 1e-15

    def test_oracle_flag_adds_residuals(self, capsys):
        assert main(
            ["measures", "--alpha1", "1", "--alpha2", "1", "--oracle", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["oracle"]["cutoff"] >= 16
        assert max(payload["oracle"]["residuals"].values()) < 1e-8

    @pytest.mark.parametrize(
        "alpha1,alpha2",
        [
            # |alpha| above 19.4, where the cutoff search used to stop at 512
            ("20.5", "3"), ("24,7", "0,9"), ("1.5,-2", "-29.5,0.5"),
            ("100", "3"), ("1000", "999.5"), ("1000", "0.5"),
        ],
    )
    def test_oracle_covers_the_seed_domain(self, capsys, alpha1, alpha2):
        argv = ["measures", f"--alpha1={alpha1}", f"--alpha2={alpha2}", "--oracle", "--json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert max(payload["oracle"]["residuals"].values()) <= 1e-8
        lam = max(math.hypot(*payload["alpha1"]), math.hypot(*payload["alpha2"])) ** 2
        cutoff, tol = payload["oracle"]["cutoff"], DEFAULT_POLICY.tail_tolerance
        assert gammainc(cutoff, lam) < tol <= gammainc(cutoff - 1, lam)

    def test_callers_share_one_comparison(self, capsys):
        # the sweep, measures --oracle and route_residuals agree bit for bit
        seeds = SeedPair(1.5 - 0.5j, 0.7 + 2j)
        argv = ["measures", "--alpha1=1.5,-0.5", "--alpha2=0.7,2", "--oracle", "--json"]
        assert main(argv) == 0
        printed = json.loads(capsys.readouterr().out)["oracle"]
        table = sweep.run_sweep(sweep.explicit_grid([seeds]), oracle_check=True)
        assert table.columns["oracle_residual"][0] == max(printed["residuals"].values())
        residuals, cutoffs = oracle.route_residuals(
            [(seeds.alpha1, seeds.alpha2)], complementarity_measures(seeds)
        )
        by_route = {name: residuals[name][0] for name in printed["residuals"]}
        assert by_route == printed["residuals"]
        assert cutoffs.tolist() == [printed["cutoff"]]

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

    def test_impossible_tolerance_exits_one(self, monkeypatch, capsys):
        monkeypatch.setattr(oracle, "IDENTITY_ATOL", 0.0)
        monkeypatch.setattr(oracle, "ORACLE_ATOL", 0.0)
        assert main(["verify", "--samples", "50", "--seed", "1"]) == 1
        assert "overall: FAIL" in capsys.readouterr().out
        # no flag loosens a check
        with pytest.raises(SystemExit):
            main(["verify", "--tol-oracle", "1"])

    def test_json_flag(self, capsys):
        rc = main(["verify", "--samples", "50", "--seed", "3", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_passed"] is True

    def test_oracle_draw_stays_within_alpha_max(self, capsys):
        args = ["verify", "--samples", "20", "--seed", "1", "--alpha-max", "0.5", "--json"]
        assert main(args) == 0
        for check in json.loads(capsys.readouterr().out)["checks"]:
            magnitudes = [math.hypot(*z) for z in check["worst_seed_pair"]]
            assert max(magnitudes) <= 0.5, check["identity"]

    def test_bad_sample_count_exits_one(self, monkeypatch, capsys):
        monkeypatch.setattr(oracle, "_sample_seeds", _fail_if_called)
        assert main(["verify", "--samples", "0", "--seed", "1"]) == 1
        assert "--samples" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-5", "nan"])
    def test_bad_alpha_max_is_named(self, monkeypatch, capsys, value):
        monkeypatch.setattr(oracle, "_sample_seeds", _fail_if_called)
        assert main(["verify", f"--alpha-max={value}"]) == 1
        err = capsys.readouterr().err
        assert "error: alpha_max (--alpha-max) must be finite and >= 0" in err

    def test_negative_seed_is_named(self, monkeypatch, capsys):
        monkeypatch.setattr(oracle, "_sample_seeds", _fail_if_called)
        assert main(["verify", "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: rng_seed (--seed) must be >= 0, got -1\n"

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
        monkeypatch.setattr(cli, "run_sweep", _fail_if_called)
        out = tmp_path / "surface.csv"
        rc = main(["sweep", "--mode", "surface", "--gstep", "0.002", "--out", str(out)])
        assert rc == 1
        assert "--gstep" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,value", [("--gstep", "1.5"), ("--amax", "-1"), ("--astep", "0")]
    )
    def test_bad_axis_flag_is_named(self, tmp_path, capsys, flag, value):
        out = tmp_path / "surface.csv"
        rc = main(["sweep", "--mode", "surface", f"{flag}={value}", "--out", str(out)])
        assert rc == 1
        assert f"error: {flag} must" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("amax", ["0", "0.05"])
    def test_surface_without_a_positive_alpha_is_named(self, tmp_path, caplog, capsys, amax):
        caplog.set_level(logging.INFO, logger="duality_lab")  # the skip notice's level
        out = tmp_path / "surface.csv"
        args = ["sweep", "--mode", "surface", "--amax", amax, "--astep", "0.1"]
        assert main([*args, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: --amax / --astep must give the surface a point with |alpha| > 0, "
            f"got --amax {amax} below --astep 0.1\n"
        )
        assert "skipped" not in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["fig2a", "fig2b"])
    def test_gstep_outside_surface_mode_is_named(self, tmp_path, monkeypatch, capsys, mode):
        monkeypatch.setattr(cli, "run_sweep", _fail_if_called)
        out = tmp_path / "g.csv"
        rc = main(["sweep", "--mode", mode, "--gstep", "5", "--amax", "1", "--out", str(out)])
        assert rc == 1
        assert f"error: --gstep applies to --mode surface only, not {mode}" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize("args, flags, points", [
        (["--mode", "fig2a", "--amax", "1", "--astep", "5e-324"], "--amax / --astep", "inf"),
        (["--mode", "surface", "--amax", "1e300", "--astep", "1e-300"], "--amax / --astep", "inf"),
        (["--mode", "surface", "--gstep", "1e-320", "--amax", "0"], "--gstep", "inf"),
        (["--mode", "fig2b", "--amax", "1", "--astep", "1e-300"], "--amax / --astep", "1e+300"),
        (["--mode", "fig2a", "--amax", "1", "--astep", "1e-6"], "--amax / --astep", "1000001"),
    ])
    def test_axis_past_the_limit_exits_one(
        self, tmp_path, monkeypatch, capsys, args, flags, points
    ):
        monkeypatch.setattr(cli, "run_sweep", _fail_if_called)
        out = tmp_path / "grid.csv"
        assert main(["sweep", *args, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: the grid axis set by {flags} has {points} points, above the 1000000 limit\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
    def test_out_in_a_missing_directory_is_one_error_line(self, tmp_path, capsys, fmt):
        out = tmp_path / "missing" / f"x.{fmt}"
        assert main(["sweep", "--mode", "fig2a", "--format", fmt, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {str(out)!r}\n"
        )

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

    def test_fit_json_keys_are_the_fit_records_fields(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert main(["fringe", "--alpha1", "2", "--alpha2", "1", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["fit", "--input", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["points", *(f.name for f in dataclasses.fields(FringeFit))]

    def test_fit_json_writes_an_infinite_phase_stderr_as_null(self, tmp_path, capsys, monkeypatch):
        # a zero amplitude leaves the phase, and its error, undetermined
        flat = FringeFit(
            offset=100.0, offset_stderr=2.5, amplitude=0.0, amplitude_stderr=3.5, phase0=0.0,
            phase0_stderr=math.inf, coherence_estimate=0.0, coherence_stderr=0.035,
            residual_rms=0.0,
        )
        monkeypatch.setattr(cli, "fit_fringe", lambda scan: flat)
        out = tmp_path / "scan.csv"
        assert main(["fringe", "--alpha1", "2", "--alpha2", "1", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["fit", "--input", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["phase0_stderr"] is None
        assert payload["offset"] == 100.0

    def test_fit_on_counts_past_the_fit_bound_exits_one(self, tmp_path, capsys):
        # what fringe wrote for --alpha1 1 --alpha2 1 --scale 1e200 --noise none
        # before that scale was refused: expected counts up to 6e198
        scan = tmp_path / "huge.csv"
        rows = [f"{2 * math.pi * k / 16!r},{1e198 * (4 - 2 * math.sin(2 * math.pi * k / 16))!r}"
                for k in range(16)]
        scan.write_text("delta_theta,counts\n" + "\n".join(rows) + "\n")
        assert main(["fit", "--input", str(scan)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: counts too large to fit: 6e+198 exceeds 1e+75")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("args, flag", [
        (["--scale", "inf"], "--scale"),
        (["--scale", "nan"], "--scale"),
        (["--scale", "0"], "--scale"),
        (["--tint", "inf"], "--tint"),
        (["--tint", "-0.01"], "--tint"),
        (["--scale", "1e300"], "--scale"),
        (["--scale", "1e308", "--noise", "none"], "--scale"),
        (["--scale", "1e200", "--noise", "none"], "--scale"),
        (["--scale", "1e10", "--tint", "1e9"], "--tint"),
        (["--seed", "-1"], "rng_seed (--seed) must be >= 0, got -1"),
        (["--points", "3"], "phase_points (--points) must be >= 4, got 3"),
    ])
    def test_bad_scale_or_tint_is_named_up_front(self, tmp_path, monkeypatch, capsys, args, flag):
        monkeypatch.setattr(cli, "simulate_fringe", _fail_if_called)
        out = tmp_path / "scan.csv"
        argv = ["fringe", "--alpha1", "1", "--alpha2", "1", *args, "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err
        assert err.count("\n") == 1  # no warning or traceback
        assert not out.exists()

    def test_noiseless_scan_ignores_its_seed(self, tmp_path):
        args = ["fringe", "--alpha1", "2", "--alpha2", "1", "--points", "16", "--noise", "none"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--seed", "-1", "--out", str(a)]) == 0
        assert main(args + ["--seed", "0", "--out", str(b)]) == 0
        # the header records the seed; the counts do not depend on it
        data = [[line for line in path.read_text().splitlines() if not line.startswith("#")]
                for path in (a, b)]
        assert data[0] == data[1] and len(data[0]) == 17

    def test_out_of_memory_exits_one(self, tmp_path, monkeypatch, capsys):
        def no_memory(config):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(cli, "simulate_fringe", no_memory)
        out = tmp_path / "scan.csv"
        argv = ["fringe", "--alpha1", "1", "--alpha2", "1", "--points", "100000000000",
                "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 745. GiB for an array\n"
        assert not out.exists()

    def test_counts_too_small_to_fit_exit_one(self, tmp_path, capsys):
        scan = tmp_path / "tiny.csv"
        fringe = ["fringe", "--alpha1", "1", "--alpha2", "1", "--scale", "1e-300",
                  "--tint", "1e-10", "--noise", "none", "--out", str(scan)]
        for argv in (fringe, ["fit", "--input", str(scan)]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: counts too small to fit: offset 4e-310")
            assert err.count("\n") == 1  # no traceback
        assert scan.exists()

    def test_out_directory_is_one_error_line(self, tmp_path, capsys):
        rc = main(["fringe", "--alpha1", "2", "--alpha2", "1", "--points", "16",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(tmp_path)!r}\n"
        )

    def test_fit_missing_file_exits_two(self, tmp_path, capsys):
        rc = main(["fit", "--input", str(tmp_path / "absent.csv")])
        assert rc == 2

    def test_fit_malformed_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("delta_theta,counts\n0.0,oops\n")
        rc = main(["fit", "--input", str(bad)])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    def test_fit_non_ascii_file_names_the_line(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"# alpha1=(2+0j)\n# note=caf\xe9\ndelta_theta,counts\n0.0,1.0\n")
        assert main(["fit", "--input", str(bad)]) == 2
        assert "line 2: non-ASCII byte 0xe9" in capsys.readouterr().err


    def test_fit_vertical_tab_names_its_line(self, tmp_path, capsys):
        bad = tmp_path / "vt.csv"
        bad.write_bytes(b"delta_theta,counts\n0.0,1.0\x0b0.5,x\n")
        assert main(["fit", "--input", str(bad)]) == 2
        assert "line 2: stray line-break character 0x0b" in capsys.readouterr().err


class TestParserReuse:
    def test_no_value_or_default_leaks_between_calls(self, tmp_path, capsys):
        assert build_parser() is build_parser()
        assert main(["measures", "--alpha1", "2", "--alpha2", "1", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["alpha1"] == [2.0, 0.0]
        assert main(["measures", "--alpha1", "1", "--alpha2", "0.5"]) == 0
        assert capsys.readouterr().out.startswith("alpha1 = (1+0j)\n")

        fringe = ["fringe", "--alpha1", "2", "--alpha2", "1"]
        seeded, default, zero = (tmp_path / f"{n}.csv" for n in ("seeded", "default", "zero"))
        assert main([*fringe, "--seed", "5", "--out", str(seeded)]) == 0
        assert main([*fringe, "--out", str(default)]) == 0
        assert main([*fringe, "--seed", "0", "--out", str(zero)]) == 0
        assert default.read_bytes() == zero.read_bytes() != seeded.read_bytes()

        parser = build_parser()
        assert parser.parse_args([*fringe, "--seed", "5", "--noise", "none", "--out", "a"]).seed == 5
        args = parser.parse_args([*fringe, "--out", "b"])
        assert (args.seed, args.noise, args.out) == (0, "poisson", "b")
        args = parser.parse_args(["measures", "--alpha1", "1", "--alpha2", "1"])
        assert not args.json and not args.oracle
        assert not hasattr(args, "seed") and not hasattr(args, "out")


# Runs in a fresh interpreter: the test session itself has scipy loaded.
_SCIPY_PROBE = """
import sys
from pathlib import Path
from duality_lab import cli
out = Path(sys.argv[1])
commands = [
    ["measures", "--alpha1", "2", "--alpha2", "1"],
    ["measures", "--alpha1", "2", "--alpha2", "1", "--oracle"],
    ["measures", "--alpha1", "1000", "--alpha2", "0.5", "--oracle", "--json"],
    ["verify", "--samples", "300", "--seed", "1"],
    ["sweep", "--mode", "fig2a", "--out", str(out / "fig2a.csv")],
    ["sweep", "--mode", "fig2a", "--oracle", "--format", "json", "--out", str(out / "o.json")],
    ["fringe", "--alpha1", "2", "--alpha2", "1", "--out", str(out / "scan.csv")],
    ["fit", "--input", str(out / "scan.csv")],
]
for argv in commands:
    assert cli.main(argv) == 0, argv
    assert not [name for name in sys.modules if name.split(".")[0] == "scipy"], argv
"""


def test_no_command_loads_scipy(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
