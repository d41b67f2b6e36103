import logging
import math

import numpy as np
import pytest

from duality_lab import analytic
from duality_lab.analytic import SeedPair, complementarity_measures
from duality_lab.interferometer import (
    FIT_VALUE_MAX,
    POISSON_MEAN_MAX,
    TWO_PI,
    FringeConfig,
    FringeScan,
    count_rate,
    extract_coherence_minmax,
    fit_fringe,
    pump_scale_for_peak,
    simulate_fringe,
)


def noiseless_scan(alpha1, alpha2, points=32, scale=1.0, tint=1.0):
    config = FringeConfig(
        seeds=SeedPair(alpha1, alpha2),
        pump_rate_scale=scale,
        phase_points=points,
        integration_time=tint,
        noise="none",
    )
    return simulate_fringe(config)


class TestCountRate:
    def test_vacuum_seeds_flat(self):
        seeds = SeedPair(0, 0)
        for theta in (0.0, 1.0, math.pi):
            assert count_rate(seeds, theta, 3.0) == 6.0

    def test_unit_seeds_extrema(self):
        seeds = SeedPair(1, 1)
        assert count_rate(seeds, -math.pi / 2, 1.0) == pytest.approx(6.0)
        assert count_rate(seeds, math.pi / 2, 1.0) == pytest.approx(2.0)
        implied = (6.0 - 2.0) / (6.0 + 2.0)
        assert implied == complementarity_measures(seeds).C

    def test_two_two_contrast(self):
        seeds = SeedPair(2, 2)
        lo = count_rate(seeds, math.pi / 2, 1.0)
        hi = count_rate(seeds, -math.pi / 2, 1.0)
        assert (lo, hi) == (pytest.approx(2.0), pytest.approx(18.0))
        assert (hi - lo) / (hi + lo) == pytest.approx(0.8)
        assert complementarity_measures(seeds).F_abs == pytest.approx(0.8)

    def test_positive_everywhere(self):
        theta = np.linspace(0, 2 * math.pi, 500)
        rates = count_rate(SeedPair(3, 2.9), theta, 1.0)
        assert np.all(rates > 0.0)

    def test_scale_validation(self):
        with pytest.raises(ValueError, match="pump_rate_scale"):
            count_rate(SeedPair(1, 1), 0.0, 0.0)


class TestFringeConfig:
    def test_validation(self):
        seeds = SeedPair(1, 1)
        with pytest.raises(ValueError):
            FringeConfig(seeds, pump_rate_scale=0.0, phase_points=8)
        with pytest.raises(ValueError):
            FringeConfig(seeds, pump_rate_scale=1.0, phase_points=3)
        with pytest.raises(ValueError):
            FringeConfig(seeds, pump_rate_scale=1.0, phase_points=8, noise="gauss")
        with pytest.raises(ValueError):
            FringeConfig(seeds, pump_rate_scale=1.0, phase_points=8, integration_time=0.0)

    def test_peak_counts_bound_is_numpy_poisson_limit(self):
        # seeds (0, 0): the expected counts are scale * 2 * tint at every phase
        config = FringeConfig(SeedPair(0, 0), POISSON_MEAN_MAX / 2, 4, 1.0, 0, "poisson")
        assert np.all(simulate_fringe(config).counts > 0.0)
        over = np.nextafter(POISSON_MEAN_MAX / 2, math.inf)
        for noise in ("poisson", "none"):
            with pytest.raises(ValueError, match=r"fringe peak.*--scale.*--tint"):
                FringeConfig(SeedPair(0, 0), over, 4, 1.0, 0, noise)
        with pytest.raises(ValueError, match="lam value too large"):
            np.random.default_rng(0).poisson(2 * over)

    def test_warns_on_starved_counts(self, caplog):
        with caplog.at_level(logging.WARNING, logger="duality_lab"):
            FringeConfig(
                SeedPair(1, 1),
                pump_rate_scale=1.0,
                phase_points=8,
                integration_time=0.01,
                noise="poisson",
            )
        assert "meaningless" in caplog.text

    def test_default_scale_hits_peak_budget(self):
        seeds = SeedPair(2, 1)
        scale = pump_scale_for_peak(seeds)
        assert count_rate(seeds, -math.pi / 2, scale) == pytest.approx(5.0e6)


class TestSimulateFringe:
    def test_noiseless_four_point_grid(self):
        scan = noiseless_scan(1, 1, points=4)
        assert np.allclose(scan.delta_theta, [0, math.pi / 2, math.pi, 3 * math.pi / 2])
        assert np.allclose(scan.counts, [4, 2, 4, 6])
        assert scan.provenance == "simulated"

    def test_poisson_reproducible(self):
        config = FringeConfig(
            SeedPair(1, 1),
            pump_rate_scale=1e6,
            phase_points=16,
            integration_time=0.01,
            rng_seed=123,
            noise="poisson",
        )
        first = simulate_fringe(config)
        second = simulate_fringe(config)
        assert np.array_equal(first.counts, second.counts)
        third = simulate_fringe(
            FringeConfig(
                SeedPair(1, 1),
                pump_rate_scale=1e6,
                phase_points=16,
                integration_time=0.01,
                rng_seed=124,
                noise="poisson",
            )
        )
        assert not np.array_equal(first.counts, third.counts)

    def test_vacuum_seeds_flat(self):
        scan = noiseless_scan(0, 0, points=8)
        assert np.all(scan.counts == scan.counts[0])


class TestFringeScanValidation:
    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError, match="increasing"):
            FringeScan([0.0, 0.5, 0.5], [1.0, 1.0, 1.0], "ingested")

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="2\\*pi"):
            FringeScan([0.0, 7.0], [1.0, 1.0], "ingested")

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="non-negative"):
            FringeScan([0.0, 1.0], [1.0, -1.0], "ingested")

    def test_rejects_unknown_provenance(self):
        with pytest.raises(ValueError, match="provenance"):
            FringeScan([0.0], [1.0], "guessed")


class TestFringeScanOwnsItsArrays:
    """A scan never shares a writeable array with its caller."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda values: values,
            lambda values: values.astype(np.float32),
            lambda values: values.tolist(),
        ],
        ids=["float64", "float32", "list"],
    )
    def test_writing_the_callers_array_leaves_the_scan(self, make):
        theta = np.array([0.0, 1.0, 2.0])
        counts = np.array([4.0, 5.0, 6.0])
        given_theta, given_counts = make(theta), make(counts)
        scan = FringeScan(given_theta, given_counts, "ingested")
        given_theta[0] = 0.5
        given_counts[1] = 50.0
        assert scan.delta_theta.tolist() == [0.0, 1.0, 2.0]
        assert scan.counts.tolist() == [4.0, 5.0, 6.0]
        assert not scan.delta_theta.flags.writeable and not scan.counts.flags.writeable

    def test_writing_the_base_of_a_read_only_view_leaves_the_scan(self):
        rows = np.array([[0.0, 4.0], [1.0, 5.0], [2.0, 6.0]])
        theta, counts = rows[:, 0], rows[:, 1]
        theta.setflags(write=False)
        counts.setflags(write=False)
        scan = FringeScan(theta, counts, "ingested")
        rows[:] = 0.0
        assert scan.delta_theta.tolist() == [0.0, 1.0, 2.0]
        assert scan.counts.tolist() == [4.0, 5.0, 6.0]

    def test_a_read_only_array_of_its_own_is_kept_without_a_copy(self):
        theta = np.array([0.0, 1.0, 2.0])
        counts = np.array([4.0, 5.0, 6.0])
        theta.setflags(write=False)
        counts.setflags(write=False)
        scan = FringeScan(theta, counts, "ingested")
        assert scan.delta_theta is theta and scan.counts is counts

    def test_simulated_arrays_are_read_only(self):
        scan = noiseless_scan(2, 1, points=8)
        assert not scan.delta_theta.flags.writeable and not scan.counts.flags.writeable


BLOCK = analytic._BLOCK
CHUNK_SIZES = [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]
# Mean counts 1.5 to 5.5, and 300 to 1100: numpy draws Poisson variates below
# a mean of 10 and above it by two different methods.
CHUNK_CONFIGS = [
    pytest.param("poisson", 0.5, id="poisson-below-10"),
    pytest.param("poisson", 100.0, id="poisson-above-10"),
    pytest.param("none", 0.5, id="none-below-10"),
    pytest.param("none", 100.0, id="none-above-10"),
]


def chunk_config(points, noise, scale):
    return FringeConfig(SeedPair(2, 1), scale, points, 1.0, 11, noise)


def whole_array_sums(theta, y):
    """The fit's normal equations and residuals over the whole scan at once."""
    weights = 1.0 / np.maximum(y, 1.0)
    design = np.column_stack([np.ones_like(theta), np.sin(theta), np.cos(theta)])
    normal = design.T @ (weights[:, None] * design)
    moment = design.T @ (weights * y)
    beta = np.linalg.solve(normal, moment)
    residuals = y - design @ beta
    return beta, np.linalg.inv(normal), float(math.sqrt(np.mean(residuals**2)))


def exactly_summed_fit(theta, y):
    """The same equations with each per-point product rounded as above, summed exactly."""
    weights = 1.0 / np.maximum(y, 1.0)
    design = np.column_stack([np.ones_like(theta), np.sin(theta), np.cos(theta)])
    weighted = weights[:, None] * design
    normal = [[math.fsum(design[:, i] * weighted[:, j]) for j in range(3)] for i in range(3)]
    moment = [math.fsum(design[:, i] * (weights * y)) for i in range(3)]
    beta = np.linalg.solve(np.array(normal), np.array(moment))
    offset, p, q = (float(v) for v in beta)
    residuals = y - design @ beta
    rms = math.sqrt(math.fsum(residuals**2) / len(y))
    return offset, math.hypot(p, q), math.atan2(-q, -p), rms


class TestScanChunks:
    """Simulation and fit work on chunks with the results of whole-scan passes."""

    @pytest.mark.parametrize(("noise", "scale"), CHUNK_CONFIGS)
    @pytest.mark.parametrize("points", CHUNK_SIZES)
    def test_simulation_equals_one_whole_scan_draw(self, points, noise, scale):
        config = chunk_config(points, noise, scale)
        theta = TWO_PI * np.arange(points) / points
        expected = count_rate(config.seeds, theta, scale) * config.integration_time
        if noise == "poisson":
            expected = np.random.default_rng(config.rng_seed).poisson(expected).astype(float)
        scan = simulate_fringe(config)
        assert scan.delta_theta.tobytes() == theta.tobytes()
        assert scan.counts.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(("noise", "scale"), CHUNK_CONFIGS)
    @pytest.mark.parametrize("points", CHUNK_SIZES[:2])
    def test_one_chunk_fit_equals_the_whole_array_fit(self, points, noise, scale):
        scan = simulate_fringe(chunk_config(points, noise, scale))
        fit = fit_fringe(scan)
        beta, covariance, rms = whole_array_sums(scan.delta_theta, scan.counts)
        offset, p, q = (float(v) for v in beta)
        assert fit.offset == offset
        assert fit.amplitude == math.hypot(p, q)
        assert fit.phase0 == math.atan2(-q, -p)
        assert fit.offset_stderr == math.sqrt(float(covariance[0, 0]))
        assert fit.coherence_estimate == math.hypot(p, q) / offset
        assert fit.residual_rms == rms

    @pytest.mark.parametrize(("noise", "scale"), CHUNK_CONFIGS)
    @pytest.mark.parametrize("points", CHUNK_SIZES[2:])
    def test_many_chunk_fit_equals_the_exactly_summed_fit(self, points, noise, scale):
        scan = simulate_fringe(chunk_config(points, noise, scale))
        fit = fit_fringe(scan)
        offset, amplitude, phase0, rms = exactly_summed_fit(scan.delta_theta, scan.counts)
        assert fit.offset == pytest.approx(offset, rel=1e-12)
        assert fit.amplitude == pytest.approx(amplitude, rel=1e-12)
        assert fit.coherence_estimate == pytest.approx(amplitude / offset, rel=1e-12)
        # a noiseless scan's residuals are rounding errors of the counts
        assert fit.residual_rms == pytest.approx(rms, rel=1e-12, abs=1e-12 * offset)
        # phase0 sits near 0, where only an absolute bound means anything
        assert fit.phase0 == pytest.approx(phase0, rel=0, abs=1e-12)


class TestExtractCoherenceMinmax:
    def test_noiseless_unit_seeds(self):
        # 4-point grid hits both extrema exactly
        assert extract_coherence_minmax(noiseless_scan(1, 1, points=4)) == 0.5

    def test_grid_resolution_error_bound(self):
        # 63 points put both extrema strictly between grid nodes
        points = 63
        got = extract_coherence_minmax(noiseless_scan(1, 1, points=points))
        assert got != 0.5
        assert abs(got - 0.5) < (2 * math.pi / points) ** 2

    def test_flat_scan(self):
        assert extract_coherence_minmax(noiseless_scan(0, 0, points=8)) == 0.0

    def test_single_point_rejected(self):
        scan = FringeScan([1.0], [5.0], "ingested")
        with pytest.raises(ValueError, match="two scan points"):
            extract_coherence_minmax(scan)

    def test_all_zero_rejected(self):
        scan = FringeScan([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], "ingested")
        with pytest.raises(ValueError, match="all-zero"):
            extract_coherence_minmax(scan)


class TestFitFringe:
    def test_noiseless_recovers_analytic_coherence(self):
        fit = fit_fringe(noiseless_scan(2, 1, points=32))
        assert fit.coherence_estimate == pytest.approx(4 / 7, abs=1e-10)
        assert fit.phase0 == pytest.approx(0.0, abs=1e-12)
        assert fit.residual_rms < 1e-10

    def test_noiseless_random_seeds(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            a, b = rng.uniform(0.0, 3.0, 2)
            fit = fit_fringe(noiseless_scan(a, b, points=24))
            expected = complementarity_measures(SeedPair(a, b)).C
            assert abs(fit.coherence_estimate - expected) < 1e-9

    def test_flat_scan(self):
        fit = fit_fringe(noiseless_scan(0, 0, points=16))
        assert fit.amplitude == pytest.approx(0.0, abs=1e-12)
        assert fit.coherence_estimate == pytest.approx(0.0, abs=1e-12)

    def test_counts_past_the_fit_bound_rejected(self):
        theta = 2 * math.pi * np.arange(16) / 16
        shape = 3.0 - np.sin(theta)
        fit = fit_fringe(FringeScan(theta, FIT_VALUE_MAX / 4 * shape, "ingested"))
        assert fit.coherence_estimate == pytest.approx(1 / 3, abs=1e-9)
        assert math.isfinite(fit.phase0_stderr)
        with pytest.raises(ValueError, match="counts too large to fit: 4e\\+198"):
            fit_fringe(FringeScan(theta, 1e198 * shape, "ingested"))

    def test_counts_past_underflow_rejected(self):
        theta = 2 * math.pi * np.arange(16) / 16
        shape = 3.0 - np.sin(theta)
        fit = fit_fringe(FringeScan(theta, 1e-70 * shape, "ingested"))
        assert fit.coherence_estimate == pytest.approx(1 / 3, abs=1e-9)
        assert math.isfinite(fit.phase0_stderr)
        # amplitude**4 underflows at 1e-100, offset**2 as well at 1e-200
        for scale in (1e-100, 1e-200):
            with pytest.raises(ValueError, match="counts too small to fit"):
                fit_fringe(FringeScan(theta, scale * shape, "ingested"))

    def test_too_few_points(self):
        with pytest.raises(ValueError, match=">= 8"):
            fit_fringe(noiseless_scan(1, 1, points=6))

    def test_poisson_estimate_within_errors(self):
        config = FringeConfig(
            SeedPair(2, 2),
            pump_rate_scale=5e5,
            phase_points=100,
            integration_time=0.01,
            rng_seed=17,
            noise="poisson",
        )
        fit = fit_fringe(simulate_fringe(config))
        assert abs(fit.coherence_estimate - 0.8) < 3 * fit.coherence_stderr
        assert fit.coherence_stderr < 0.01

    def test_error_model_calibration(self):
        # empirical spread across replicates within 1.5x of reported stderr
        estimates = []
        stderrs = []
        for seed in range(150):
            config = FringeConfig(
                SeedPair(2, 1),
                pump_rate_scale=2e5,
                phase_points=50,
                integration_time=0.01,
                rng_seed=seed,
                noise="poisson",
            )
            fit = fit_fringe(simulate_fringe(config))
            estimates.append(fit.coherence_estimate)
            stderrs.append(fit.coherence_stderr)
        empirical = float(np.std(estimates))
        reported = float(np.mean(stderrs))
        assert reported / 1.5 < empirical < reported * 1.5

    def test_degenerate_phase_grid_rejected(self):
        scan = noiseless_scan(1, 1, points=16)
        theta = np.full(16, 1.0)
        object.__setattr__(scan, "delta_theta", theta)  # bypass scan validation
        with pytest.raises(ValueError, match="singular|degenerate"):
            fit_fringe(scan)

    def test_recovers_injected_phase(self):
        # shift the grid labels; fitted phase0 must follow the offset
        base = noiseless_scan(2, 1, points=64)
        shift = 0.3
        theta = (np.asarray(base.delta_theta) + shift) % (2 * math.pi)
        order = np.argsort(theta)
        scan = FringeScan(theta[order], np.asarray(base.counts)[order], "ingested")
        fit = fit_fringe(scan)
        assert fit.phase0 == pytest.approx(-shift, abs=1e-9)
