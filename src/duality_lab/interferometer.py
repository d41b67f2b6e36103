"""Count-rate model and shot-noise Monte Carlo of the double-path fringe.

Scanning the aggregate interferometer phase (pump + signal + idler path
phases enter only through their sum, so one knob stands in for all three)
sweeps the signal-photon count rate through a sinusoidal fringe

    rate(dtheta) = scale * [2 + |a1|^2 + |a2|^2 - 2 |a1||a2| sin(dtheta)],

whose contrast (max - min) / (max + min) equals the coherence C of the
closed-form measures — not the visibility V.  The constant term 2 is the
spontaneous-pair floor that keeps the contrast below one at finite seed
power; it is kept exactly and no background subtraction is offered.

Simulated scans draw Poisson counts per phase point from a seeded generator,
and the fit recovers the contrast with a linear least-squares estimator that
also reports standard errors.  Its Neyman weights 1/max(counts, 1) bias the
contrast high at low counts and at C near 1.

Both work on chunks of ``analytic._BLOCK`` points, so a scan costs its two
arrays and one chunk's temporaries, whatever its length.  The simulation
fills its counts a chunk at a time from the one generator, which draws the
same numbers as one whole-scan draw; the fit sums its normal equations and
residuals over the chunks.  A ``FringeScan`` holds read-only arrays and
copies an input only when its caller could still write to it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analytic import SeedPair, _blocks

logger = logging.getLogger(__name__)

NOISE_MODES = ("none", "poisson")

# Detector integration time per phase point, seconds.
DEFAULT_INTEGRATION_TIME = 0.010

# Deep single-photon-regime budget: peak signal rate, counts per second.
PEAK_RATE_BUDGET = 5.0e6

TWO_PI = 2.0 * math.pi

# The largest Poisson mean numpy's generator draws from, as numpy computes it;
# above it ``Generator.poisson`` raises "lam value too large".
POISSON_MEAN_MAX = float(np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10)

# The fit divides by amplitude**4, which overflows past about 1.2e77: counts,
# offsets and amplitudes above this bound are refused.
FIT_VALUE_MAX = 1e75

def count_rate(seeds: SeedPair, delta_theta, pump_rate_scale: float):
    """Signal count rate at aggregate phase ``delta_theta`` (scalar or array).

    ``pump_rate_scale`` absorbs the pump power and all collection constants
    and sets the units (counts per second).  Strictly positive whenever the
    two detector states are not perfectly overlapping.
    """
    if not pump_rate_scale > 0.0:
        raise ValueError(f"pump_rate_scale must be > 0, got {pump_rate_scale}")
    a = abs(seeds.alpha1)
    b = abs(seeds.alpha2)
    return pump_rate_scale * (
        2.0 + a * a + b * b - 2.0 * a * b * np.sin(delta_theta)
    )


def pump_scale_for_peak(seeds: SeedPair) -> float:
    """Scale that puts the fringe maximum at ``PEAK_RATE_BUDGET`` counts per second."""
    a = abs(seeds.alpha1)
    b = abs(seeds.alpha2)
    return PEAK_RATE_BUDGET / (2.0 + (a + b) ** 2)


@dataclass(frozen=True)
class FringeConfig:
    """One fringe-scan acquisition: seeds, units, grid and noise model.

    The noise model is ideal photon counting (unit quantum efficiency, no
    dark counts): integrated counts per point are Poisson with mean
    rate * integration_time.  A scan whose expected counts dip below one
    per point still runs, but the fit is meaningless there, so construction
    logs a warning.
    """

    seeds: SeedPair
    pump_rate_scale: float
    phase_points: int
    integration_time: float = DEFAULT_INTEGRATION_TIME
    rng_seed: int = 0
    noise: str = "none"

    def __post_init__(self):
        if not 0.0 < self.pump_rate_scale < math.inf:
            raise ValueError(
                f"pump_rate_scale (--scale) must be finite and > 0, got {self.pump_rate_scale!r}"
            )
        if self.phase_points < 4:
            raise ValueError(f"phase_points (--points) must be >= 4, got {self.phase_points}")
        if not 0.0 < self.integration_time < math.inf:
            raise ValueError(
                f"integration_time (--tint) must be finite and > 0, got {self.integration_time!r}"
            )
        if self.noise not in NOISE_MODES:
            raise ValueError(f"noise must be one of {NOISE_MODES}, got {self.noise!r}")
        # a noiseless scan draws no number, so its seed is never read
        if self.noise == "poisson" and self.rng_seed < 0:
            raise ValueError(f"rng_seed (--seed) must be >= 0, got {self.rng_seed}")
        a = abs(self.seeds.alpha1)
        b = abs(self.seeds.alpha2)
        # count_rate at sin(dtheta) = -1, in its own order of operations, so
        # no point of any phase grid expects more
        peak = self.pump_rate_scale * (2.0 + a * a + b * b + 2.0 * a * b) * self.integration_time
        if not peak <= POISSON_MEAN_MAX:
            raise ValueError(
                f"expected counts at the fringe peak, pump_rate_scale (--scale) x "
                f"integration_time (--tint) x (2 + (|alpha1| + |alpha2|)^2) = {peak:.4g}, "
                f"exceed {POISSON_MEAN_MAX:.4g}, the largest Poisson mean numpy draws from"
            )
        if self.noise == "poisson":
            floor = self.pump_rate_scale * (2.0 + (a - b) ** 2) * self.integration_time
            if floor < 1.0:
                logger.warning(
                    "expected counts per point dip to %.3g < 1; "
                    "a fringe fit on this scan will be meaningless",
                    floor,
                )


def _read_only(values) -> np.ndarray:
    """``values`` as a read-only float array that its caller cannot write to.

    A read-only float array that owns its data is kept as it is.  Anything
    else is copied: a writeable array, and a view whose base the caller may
    still write through.
    """
    if (
        type(values) is np.ndarray
        and values.dtype == np.float64
        and values.flags.owndata
        and not values.flags.writeable
    ):
        return values
    array = np.array(values, dtype=float)
    array.setflags(write=False)
    return array


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array`` made read-only, so that a ``FringeScan`` keeps it without a copy."""
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class FringeScan:
    """Phase grid and observed counts, either simulated or ingested from disk."""

    delta_theta: np.ndarray
    counts: np.ndarray
    provenance: str
    config: Optional[FringeConfig] = None

    def __post_init__(self):
        theta = _read_only(self.delta_theta)
        counts = _read_only(self.counts)
        if self.provenance not in ("simulated", "ingested"):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if theta.ndim != 1 or theta.shape != counts.shape or theta.size == 0:
            raise ValueError("delta_theta and counts must be equal-length 1-d arrays")
        if not np.all(np.isfinite(theta)) or not np.all(np.isfinite(counts)):
            raise ValueError("scan values must be finite")
        if theta[0] < 0.0 or theta[-1] >= TWO_PI:
            raise ValueError("delta_theta must lie within [0, 2*pi)")
        if not np.all(theta[1:] > theta[:-1]):
            raise ValueError("delta_theta must be strictly increasing")
        if np.any(counts < 0.0):
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "delta_theta", theta)
        object.__setattr__(self, "counts", counts)

    def __len__(self) -> int:
        return int(self.delta_theta.size)


def simulate_fringe(config: FringeConfig) -> FringeScan:
    """Scan the fringe over one full phase period.

    The phase grid is uniform over [0, 2*pi).  With ``noise="none"`` the
    counts are exactly rate * integration_time; with ``noise="poisson"``
    they are drawn from a generator seeded by ``config.rng_seed``, so a
    fixed config reproduces the identical scan.

    The counts are filled ``analytic._BLOCK`` points at a time.  The generator
    draws each point's count in turn, so the chunks' draws are those of one
    whole-scan draw, and the scan is the same bit for bit.
    """
    k = config.phase_points
    theta = np.arange(k, dtype=float)
    theta *= TWO_PI
    theta /= k
    counts = np.empty(k)
    rng = np.random.default_rng(config.rng_seed) if config.noise == "poisson" else None
    for theta_block, counts_block in _blocks((theta, counts)):
        expected = (
            count_rate(config.seeds, theta_block, config.pump_rate_scale)
            * config.integration_time
        )
        counts_block[:] = expected if rng is None else rng.poisson(expected)
    return FringeScan(_frozen(theta), _frozen(counts), "simulated", config)


def extract_coherence_minmax(scan: FringeScan) -> float:
    """Fringe contrast (max - min) / (max + min) over the observed counts.

    Faithful to the defining expression but sensitive to shot noise at the
    extrema; prefer ``fit_fringe`` for noisy scans.
    """
    if len(scan) < 2:
        raise ValueError("contrast needs at least two scan points")
    highest = float(scan.counts.max())
    lowest = float(scan.counts.min())
    if highest + lowest == 0.0:
        raise ValueError("all-zero scan has no defined contrast")
    return (highest - lowest) / (highest + lowest)


@dataclass(frozen=True)
class FringeFit:
    """Sinusoid fit counts ~ offset - amplitude * sin(dtheta + phase0).

    ``coherence_estimate`` is amplitude/offset, the fitted counterpart of the
    min/max contrast.  Standard errors come from the weighted linear model
    with per-point variance max(counts, 1), the Poisson choice;
    ``phase0_stderr`` is infinite when the amplitude is zero.  The fields
    are declared in the order ``fit --json`` prints them.
    """

    offset: float
    offset_stderr: float
    amplitude: float
    amplitude_stderr: float
    phase0: float
    phase0_stderr: float
    coherence_estimate: float
    coherence_stderr: float
    residual_rms: float

    def __post_init__(self):
        if not self.offset > 0.0:
            raise ValueError("fitted offset must be positive")
        if self.amplitude < 0.0:
            raise ValueError("fitted amplitude must be non-negative")
        allowed = 1.0 + 3.0 * self.coherence_stderr + 1e-12
        if not 0.0 <= self.coherence_estimate <= allowed:
            raise ValueError(
                f"coherence estimate {self.coherence_estimate!r} outside "
                f"[0, {allowed!r}]"
            )

    def summary(self) -> str:
        return (
            f"offset={self.offset:.6g} +- {self.offset_stderr:.2g}, "
            f"amplitude={self.amplitude:.6g} +- {self.amplitude_stderr:.2g}, "
            f"phase0={self.phase0:.6g} +- {self.phase0_stderr:.2g}, "
            f"coherence={self.coherence_estimate:.9g} +- {self.coherence_stderr:.2g}, "
            f"residual_rms={self.residual_rms:.6g}"
        )


def _design_chunks(scan: FringeScan):
    """The scan's counts and design matrix (1, sin, cos), a block of points at a time."""
    for theta, counts in _blocks((scan.delta_theta, scan.counts)):
        design = np.column_stack([np.ones_like(theta), np.sin(theta), np.cos(theta)])
        yield counts, design


def fit_fringe(scan: FringeScan) -> FringeFit:
    """Weighted least-squares fit of one sinusoidal fringe period.

    The model offset - amplitude * sin(dtheta + phase0) is linear in the
    basis (1, sin, cos), so the normal equations are solved in closed form:
    counts = offset + p sin + q cos with amplitude = hypot(p, q) and
    phase0 = atan2(-q, -p).  Standard errors propagate from the linear
    covariance with Poisson weights.  Needs at least 8 points spanning
    most of a period; a phase grid that cannot pin down all three basis
    functions raises.

    The normal matrix, the moments and the residual sum of squares are summed
    over chunks of ``analytic._BLOCK`` points, in two passes: the residuals need
    the solution.  So the fit holds one chunk's design matrix, whatever the
    scan's length, and a scan of one chunk gets the bits of the whole-array
    expressions.
    """
    if len(scan) < 8:
        raise ValueError(f"fit needs >= 8 points, got {len(scan)}")
    # -0.0 + x is x for every x, so the first chunk's sums are kept bit for bit
    normal = moment = squares = -0.0
    for y, design in _design_chunks(scan):
        weights = 1.0 / np.maximum(y, 1.0)
        normal = normal + design.T @ (weights[:, None] * design)
        moment = moment + design.T @ (weights * y)
    try:
        if np.linalg.cond(normal) > 1e12:
            raise np.linalg.LinAlgError
        beta = np.linalg.solve(normal, moment)
        covariance = np.linalg.inv(normal)
    except np.linalg.LinAlgError:
        raise ValueError("singular normal equations: phase grid is degenerate") from None
    offset, p, q = (float(v) for v in beta)
    if offset <= 0.0:
        raise ValueError("fit collapsed to a non-positive offset (all-zero scan?)")
    amplitude = math.hypot(p, q)
    largest = max(float(scan.counts.max()), offset, amplitude)
    if not largest <= FIT_VALUE_MAX:
        raise ValueError(
            f"counts too large to fit: {largest:.4g} exceeds {FIT_VALUE_MAX:.4g}, "
            "past which the error propagation overflows"
        )
    if offset**2 == 0.0 or (amplitude > 0.0 and amplitude**4 == 0.0):
        raise ValueError(
            f"counts too small to fit: offset {offset:.4g}, amplitude {amplitude:.4g}, "
            "below which the error propagation underflows"
        )
    for y, design in _design_chunks(scan):
        residuals = y - design @ beta
        squares = squares + np.sum(residuals**2)
    residual_rms = float(math.sqrt(squares / len(scan)))

    var_a = float(covariance[0, 0])
    var_p = float(covariance[1, 1])
    var_q = float(covariance[2, 2])
    cov_ap = float(covariance[0, 1])
    cov_aq = float(covariance[0, 2])
    cov_pq = float(covariance[1, 2])
    if amplitude > 0.0:
        phase0 = math.atan2(-q, -p)
        var_b = (p * p * var_p + 2.0 * p * q * cov_pq + q * q * var_q) / amplitude**2
        var_phase = (
            p * p * var_q - 2.0 * p * q * cov_pq + q * q * var_p
        ) / amplitude**4
        # coherence = hypot(p, q) / offset; first-order propagation over (a, p, q)
        g_a = -amplitude / offset**2
        g_p = p / (amplitude * offset)
        g_q = q / (amplitude * offset)
        var_c = (
            g_a * g_a * var_a
            + g_p * g_p * var_p
            + g_q * g_q * var_q
            + 2.0 * g_a * g_p * cov_ap
            + 2.0 * g_a * g_q * cov_aq
            + 2.0 * g_p * g_q * cov_pq
        )
    else:
        phase0 = 0.0
        var_b = max(var_p, var_q)
        var_phase = math.inf
        var_c = var_b / offset**2
    return FringeFit(
        offset=offset,
        offset_stderr=math.sqrt(max(var_a, 0.0)),
        amplitude=amplitude,
        amplitude_stderr=math.sqrt(max(var_b, 0.0)),
        phase0=phase0,
        phase0_stderr=math.sqrt(var_phase) if math.isfinite(var_phase) else math.inf,
        coherence_estimate=amplitude / offset,
        coherence_stderr=math.sqrt(max(var_c, 0.0)),
        residual_rms=residual_rms,
    )

