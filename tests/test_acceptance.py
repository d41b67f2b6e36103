"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.  Tolerances are pinned here and nowhere
else; a failure means the package does not meet its contract.
"""

import logging
import math
import time

import numpy as np
import pytest

from duality_lab.analytic import MEASURE_FIELDS, SeedPair, complementarity_measures
from duality_lab.cli import main
from duality_lab.interferometer import FringeConfig, fit_fringe, simulate_fringe
from duality_lab.oracle import build_composite, measures_from_state
from duality_lab.sweep import fig2a_grid, fig2b_grid, run_sweep, surface_grid


def report(line: str):
    print(f"\n[acceptance] {line}")


def random_seed_pairs(rng, count, mag_max):
    mags = rng.uniform(0.0, mag_max, (count, 2))
    phases = rng.uniform(0.0, 2 * math.pi, (count, 2))
    z = mags * np.exp(1j * phases)
    return [SeedPair(complex(z[k, 0]), complex(z[k, 1])) for k in range(count)]


def test_criterion_1_identity_suite(capsys):
    """Closed-form identity suite at 10^4 samples, |alpha| <= 10, < 2 s."""
    start = time.perf_counter()
    rc = main(["verify", "--samples", "10000", "--seed", "42", "--alpha-max", "10"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert rc == 0, out
    identity_lines = [line for line in out.splitlines() if "  PASS  " in line][:6]
    assert len(identity_lines) == 6
    worst = 0.0
    for line in identity_lines:
        residual = float(line.split("worst=")[1].split(" ")[0])
        assert residual < 1e-12, line
        worst = max(worst, residual)
    assert elapsed < 2.0, f"verify took {elapsed:.2f}s"
    with capsys.disabled():
        report(
            f"criterion 1 PASS: six identities at 10000 samples, worst residual "
            f"{worst:.2e} < 1e-12, runtime {elapsed:.2f}s < 2s"
        )


def test_criterion_2_oracle_equivalence(capsys):
    """Fock route vs closed forms, 200 pairs |alpha| <= 3, < 30 s."""
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    pairs = random_seed_pairs(rng, 200, 3.0)
    state = build_composite([(seeds.alpha1, seeds.alpha2) for seeds in pairs])
    fock_route = measures_from_state(state)
    purity_mu2 = 2.0 * state.reduced.purity() - 1.0
    worst_field = 0.0
    worst_purity = 0.0
    for k, seeds in enumerate(pairs):
        closed = complementarity_measures(seeds)
        for name in MEASURE_FIELDS:
            residual = abs(getattr(fock_route, name)[k] - getattr(closed, name))
            assert residual < 1e-8, (name, seeds)
            worst_field = max(worst_field, residual)
        purity_residual = abs(purity_mu2[k] - closed.mu_s**2)
        assert purity_residual < 1e-8, seeds
        worst_purity = max(worst_purity, purity_residual)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"oracle comparison took {elapsed:.2f}s"
    with capsys.disabled():
        report(
            f"criterion 2 PASS: 200 seed pairs, worst field residual "
            f"{worst_field:.2e} < 1e-8, worst purity residual {worst_purity:.2e} "
            f"< 1e-8, runtime {elapsed:.2f}s < 30s"
        )


def test_criterion_3_known_points(capsys):
    """Exact rationals at seeds (2,1); limit structure at seeds (1,1)."""
    m = complementarity_measures(SeedPair(2, 1))
    expected_21 = {
        "D": math.sqrt(33.0) / 7.0,
        "P": 3.0 / 7.0,
        "E": math.sqrt(24.0) / 7.0,
        "V": 2.0 * math.sqrt(10.0) / 7.0,
        "C": 4.0 / 7.0,
        "mu_s": 5.0 / 7.0,
    }
    assert abs(m.D**2 - 33.0 / 49.0) < 1e-12
    assert abs(m.P**2 - 9.0 / 49.0) < 1e-12
    assert abs(m.E**2 - 24.0 / 49.0) < 1e-12
    for name, value in expected_21.items():
        assert abs(getattr(m, name) - value) < 1e-12, name
    m11 = complementarity_measures(SeedPair(1, 1))
    assert m11.P == 0.0
    assert abs(m11.C - 0.5) < 1e-12
    assert abs(m11.F_abs - 0.5) < 1e-12
    assert abs(m11.mu_s - 0.5) < 1e-12
    assert abs(m11.V - 1.0) < 1e-12
    with capsys.disabled():
        report(
            "criterion 3 PASS: seeds (2,1) give the exact rationals "
            "(D2,P2,E2)=(33,9,24)/49, C=4/7, V=2*sqrt(10)/7, mu_s=5/7; "
            "seeds (1,1) give P=0, C=|F|=mu_s=1/2, V=1, all within 1e-12"
        )


def test_criterion_4_figure_curve_structure(capsys):
    """Equal-seed curve structure and the E^2/C^2 crossing bracket."""
    cols = run_sweep(fig2a_grid()).columns
    assert np.all(cols["P2"] == 0.0)
    assert np.all(np.abs(cols["C2"] - cols["F_abs"] ** 2) < 1e-14)
    assert np.all(np.diff(cols["F_abs"]) > 0)

    fine = run_sweep(fig2a_grid(alpha_max=2.0, alpha_step=0.01)).columns
    signs = fine["E2"] - fine["C2"]
    flips = np.flatnonzero((signs[:-1] > 0) & (signs[1:] <= 0))
    assert len(flips) == 1
    lo, hi = fine["alpha1_abs"][flips[0]], fine["alpha1_abs"][flips[0] + 1]
    exact = math.sqrt(1.0 + math.sqrt(2.0))
    assert 1.55 - 1e-9 <= lo <= exact <= hi <= 1.56 + 1e-9

    measures_b = run_sweep(fig2b_grid()).measures
    for residual in measures_b.identity_residuals().values():
        assert np.all(residual < 1e-12)
    with capsys.disabled():
        report(
            f"criterion 4 PASS: equal-seed sweep has P2 == 0, C2 == F^2, "
            f"monotone |F|; E2/C2 crossing bracketed in [{lo:.2f}, {hi:.2f}] "
            f"around sqrt(1+sqrt(2)) = {exact:.6f}; ratio sweep rows all "
            "within identity bounds"
        )


def test_criterion_5_fringe_monte_carlo(capsys):
    """Shot-noise fits: 20 seeds at (2,2) within 3 sigma of 0.8; noiseless exact."""
    start = time.perf_counter()
    errors = []
    for seed in range(20):
        config = FringeConfig(
            seeds=SeedPair(2, 2),
            pump_rate_scale=5.0e5,  # floor rate 2*scale -> 1e4 counts/point
            phase_points=100,
            integration_time=0.01,
            rng_seed=seed,
            noise="poisson",
        )
        fit = fit_fringe(simulate_fringe(config))
        assert abs(fit.coherence_estimate - 0.8) <= 3.0 * fit.coherence_stderr, seed
        errors.append(abs(fit.coherence_estimate - 0.8))
    mean_abs_error = float(np.mean(errors))
    assert mean_abs_error < 0.01

    noiseless = FringeConfig(
        seeds=SeedPair(2, 1),
        pump_rate_scale=1.0,
        phase_points=64,
        integration_time=1.0,
        noise="none",
    )
    fit = fit_fringe(simulate_fringe(noiseless))
    analytic_c = complementarity_measures(SeedPair(2, 1)).C
    assert abs(fit.coherence_estimate - analytic_c) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"monte carlo took {elapsed:.2f}s"
    with capsys.disabled():
        report(
            f"criterion 5 PASS: 20/20 poisson fits within 3 sigma of 0.8, "
            f"mean |error| {mean_abs_error:.4f} < 0.01; noiseless fit matches "
            f"analytic C to {abs(fit.coherence_estimate - analytic_c):.1e}; "
            f"runtime {elapsed:.2f}s < 10s"
        )


def test_criterion_6_surface_asymptotics(capsys, caplog):
    """V - C vanishes at (gamma=1, |alpha|=10) and exceeds 0.2 in the corner."""
    with caplog.at_level(logging.WARNING, logger="duality_lab"):
        cols = run_sweep(surface_grid()).columns
    assert "skipped" in caplog.text
    gamma, alpha2 = cols["gamma"], cols["alpha2_abs"]
    gap = cols["V"] - np.sqrt(cols["C2"])
    corner = (np.abs(gamma - 1.0) < 1e-12) & (np.abs(alpha2 - 10.0) < 1e-12)
    assert corner.sum() == 1
    gap_at_limit = float(gap[corner][0])
    assert gap_at_limit < 0.01

    region = (gamma < 0.5) & (alpha2 < 5.0)
    assert region.any()
    best = float(gap[region].max())
    assert best > 0.2
    with capsys.disabled():
        report(
            f"criterion 6 PASS: V - C = {gap_at_limit:.6f} < 0.01 at "
            f"(gamma=1, |alpha|=10); max V - C = {best:.3f} > 0.2 within "
            "(gamma < 0.5, |alpha| < 5)"
        )


def test_criterion_7_determinism(tmp_path, capsys):
    """Identical flags and seeds give byte-identical CSV/JSON/SVG files."""
    cases = [
        (
            ["sweep", "--mode", "fig2a", "--amax", "2", "--astep", "0.1",
             "--format", "csv"],
            "fig2a.csv",
        ),
        (
            ["sweep", "--mode", "fig2b", "--amax", "2", "--astep", "0.1",
             "--format", "json"],
            "fig2b.json",
        ),
        (
            ["sweep", "--mode", "surface", "--amax", "2", "--astep", "0.5",
             "--gstep", "0.25", "--format", "svg"],
            "surface.svg",
        ),
        (
            ["fringe", "--alpha1", "2", "--alpha2", "1", "--points", "64",
             "--scale", "1e6", "--tint", "0.01", "--seed", "7",
             "--noise", "poisson"],
            "scan.csv",
        ),
    ]
    for args, filename in cases:
        first_dir = tmp_path / f"first_{filename}"
        second_dir = tmp_path / f"second_{filename}"
        first_dir.mkdir()
        second_dir.mkdir()
        assert main(args + ["--out", str(first_dir / filename)]) == 0
        assert main(args + ["--out", str(second_dir / filename)]) == 0
        first_files = sorted(p.name for p in first_dir.iterdir())
        second_files = sorted(p.name for p in second_dir.iterdir())
        assert first_files == second_files and first_files
        for name in first_files:
            assert (first_dir / name).read_bytes() == (second_dir / name).read_bytes()
    capsys.readouterr()
    with capsys.disabled():
        report(
            "criterion 7 PASS: repeated sweep and fringe runs produced "
            "byte-identical csv, json and svg outputs"
        )
