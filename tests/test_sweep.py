import dataclasses
import logging
import math

import numpy as np
import pytest

from duality_lab import sweep
from duality_lab.analytic import SeedPair
from duality_lab.sweep import (
    MAX_GRID_POINTS,
    _axis,
    explicit_grid,
    fig2a_grid,
    fig2b_grid,
    run_sweep,
    surface_grid,
)


class TestAxis:
    def test_values_include_both_endpoints(self):
        values = _axis("--amax / --astep", 0.0, 6.0, 0.05)
        assert values[0] == 0.0
        assert values[-1] == 6.0
        assert len(values) == 121

    def test_endpoint_pinned_against_rounding(self):
        values = _axis("--gstep", 0.02, 1.0, 0.02)
        assert len(values) == 50
        assert values[-1] == 1.0


class TestGridConstruction:
    def test_empty_explicit_list_rejected(self):
        with pytest.raises(ValueError, match="seed pair"):
            explicit_grid([])

    def test_point_counts(self):
        assert fig2a_grid().point_count() == 121
        assert surface_grid().point_count() == 50 * 101

    def test_too_large_rejected(self):
        with pytest.raises(ValueError, match="grid has 10000100 points, above the 1000000 limit"):
            surface_grid(alpha_step=0.0001, gamma_step=0.01)  # 100001 x 100 points
        # this grid is also too large, but its |alpha_1| reaches 10 / 0.0005
        with pytest.raises(ValueError, match="sanity bound"):
            surface_grid(alpha_step=0.001, gamma_step=0.0005)
        with pytest.raises(ValueError, match="grid has 1000001 points, above the 1000000 limit"):
            explicit_grid([SeedPair(1, 1)] * (MAX_GRID_POINTS + 1))

    def test_seed_bound_checked_before_expansion(self):
        with pytest.raises(ValueError, match="--amax / --gstep"):
            surface_grid(gamma_step=0.002)  # |alpha_1| up to 10 / 0.002 = 5000
        with pytest.raises(ValueError, match="--amax"):
            fig2a_grid(alpha_max=1000.5)
        with pytest.raises(ValueError, match="--amax"):
            fig2b_grid(alpha_max=1001.0, alpha_step=1.0)
        # the bound applies to the last grid value, not to the requested maximum
        assert fig2a_grid(alpha_max=1000.5, alpha_step=1.0).alpha1_abs[-1] == 1000.0
        assert surface_grid(alpha_max=10.0, gamma_step=0.01).point_count() == 101 * 100


class TestFig2Sweeps:
    def test_fig2a_zero_seed_row(self):
        cols = run_sweep(fig2a_grid()).columns
        first = tuple(cols[name][0] for name in ("D2", "P2", "E2", "C2", "F_abs", "mu_s2"))
        assert first == (1.0, 0.0, 1.0, 0.0, 0.0, 0.0)
        assert cols["gamma"][0] == 1.0

    def test_fig2a_structure(self):
        cols = run_sweep(fig2a_grid()).columns
        assert np.all(np.diff(cols["F_abs"]) > 0)
        assert np.all(cols["P2"] == 0.0)
        assert np.all(np.abs(cols["C2"] - cols["F_abs"] ** 2) < 1e-15)
        assert np.all(cols["V"] == 1.0)

    def test_crossing_bracketed(self):
        # E^2 and C^2 cross where the squared fidelity hits one half
        cols = run_sweep(fig2a_grid(alpha_max=2.0, alpha_step=0.01)).columns
        signs = cols["E2"] - cols["C2"]
        flips = np.flatnonzero((signs[:-1] > 0) & (signs[1:] <= 0))
        assert len(flips) == 1
        lo, hi = cols["alpha1_abs"][flips[0]], cols["alpha1_abs"][flips[0] + 1]
        exact = math.sqrt(1 + math.sqrt(2))
        assert lo <= exact <= hi
        assert 1.55 - 1e-9 <= lo and hi <= 1.56 + 1e-9

    def test_fig2b_ratio_and_identities(self):
        table = run_sweep(fig2b_grid())
        cols = table.columns
        assert np.all(np.abs(cols["alpha2_abs"] - cols["alpha1_abs"] / 2) <= 1e-15)
        assert np.all(cols["gamma"] == 0.5)
        for residual in table.measures.identity_residuals().values():
            assert np.all(residual < 1e-12)


class TestSurfaceSweep:
    def test_skips_undefined_ratio_with_warning(self, caplog):
        with caplog.at_level(logging.INFO, logger="duality_lab"):
            table = run_sweep(surface_grid())
        assert "skipped 50" in caplog.text
        assert len(table) == 50 * 101 - 50
        assert np.all(table.columns["alpha1_abs"] > 0)

    def test_gamma_one_has_unit_visibility(self):
        cols = run_sweep(surface_grid()).columns
        gamma_one = cols["gamma"] == 1.0
        assert gamma_one.sum() == 100
        assert np.all(cols["V"][gamma_one] == 1.0)

    def test_visibility_coherence_gap_corner(self):
        cols = run_sweep(surface_grid()).columns
        corner = np.flatnonzero(
            (np.abs(cols["gamma"] - 1.0) < 1e-12) & (np.abs(cols["alpha2_abs"] - 10.0) < 1e-12)
        )
        assert len(corner) == 1
        c = math.sqrt(cols["C2"][corner[0]])
        assert c == pytest.approx(100 / 101, abs=1e-12)
        assert cols["V"][corner[0]] - c == pytest.approx(1 / 101, abs=1e-12)

    def test_row_major_ordering(self):
        cols = run_sweep(surface_grid(alpha_max=1.0, alpha_step=0.5, gamma_step=0.5)).columns
        # gamma outer, |alpha| inner, zero-|alpha| points dropped
        assert list(zip(cols["gamma"].tolist(), cols["alpha2_abs"].tolist())) == [
            (0.5, 0.5),
            (0.5, 1.0),
            (1.0, 0.5),
            (1.0, 1.0),
        ]


class TestExplicitSweep:
    def test_rows_follow_input_order(self):
        grid = explicit_grid([SeedPair(2, 1), SeedPair(1, 1)])
        cols = run_sweep(grid).columns
        assert cols["alpha1_abs"].tolist() == [2.0, 1.0]
        assert cols["gamma"][0] == 0.5

    def test_zero_first_seed_gets_nan_gamma(self):
        cols = run_sweep(explicit_grid([SeedPair(0, 1)])).columns
        assert math.isnan(cols["gamma"][0])


class TestOracleCheck:
    def test_residuals_attached_within_cap(self):
        table = run_sweep(explicit_grid([SeedPair(2, 1), SeedPair(8, 1)]), oracle_check=True)
        residual = table.columns["oracle_residual"]
        assert residual[0] < 1e-8
        # |alpha| above the oracle cap: closed form only
        assert math.isnan(residual[1])

    def test_no_residual_column_when_nothing_within_cap(self):
        table = run_sweep(explicit_grid([SeedPair(8, 1)]), oracle_check=True)
        assert table.oracle_residual is None
        assert "oracle_residual" not in table.columns

    def test_fig2a_oracle_sweep(self):
        table = run_sweep(fig2a_grid(alpha_max=2.0, alpha_step=0.5), oracle_check=True)
        residual = table.columns["oracle_residual"]
        assert not np.any(np.isnan(residual))
        assert residual.max() < 1e-8

    def test_batch_size_does_not_change_residuals(self, monkeypatch):
        # more batches than one, the last one partial, and a point above the cap
        grids = [
            fig2a_grid(alpha_max=2.0, alpha_step=0.25),
            explicit_grid([
                SeedPair(1.5 - 0.5j, 0.7 + 2j), SeedPair(8, 1), SeedPair(-2j, 3),
                SeedPair(0, 1), SeedPair(2 + 1j, 1 - 3j),
            ]),
        ]
        whole = [run_sweep(grid, oracle_check=True).columns["oracle_residual"] for grid in grids]
        monkeypatch.setattr(sweep, "_ORACLE_BATCH", 3)
        for grid, expected in zip(grids, whole):
            got = run_sweep(grid, oracle_check=True).columns["oracle_residual"]
            assert np.array_equal(got, expected, equal_nan=True)


class TestSweepRow:
    """Per-point consistency, enforced when a SweepTable is built."""

    def test_identity_violation_rejected(self):
        table = run_sweep(explicit_grid([SeedPair(2, 1)]))
        forged = dataclasses.replace(table.measures, D=table.measures.D + 1e-6)
        with pytest.raises(ValueError, match="violated"):
            dataclasses.replace(table, measures=forged)

    def test_replace_with_consistent_values_ok(self):
        table = run_sweep(explicit_grid([SeedPair(2, 1)]))
        clone = dataclasses.replace(table, oracle_residual=np.array([1e-12]))
        assert clone.columns["oracle_residual"][0] == 1e-12

    def test_columns_read_only_and_equal_length(self):
        table = run_sweep(explicit_grid([SeedPair(2, 1), SeedPair(1, 1)]))
        with pytest.raises(ValueError, match="read-only"):
            table.columns["E2"][0] = 0.0
        with pytest.raises(ValueError, match="shape"):
            dataclasses.replace(table, oracle_residual=np.array([1e-12]))

