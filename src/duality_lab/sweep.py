"""Parameter sweeps over the seed amplitudes, matching the standard figures.

Three canned grids cover the interesting landscape:

  * ``fig2a``  — equal seeds, alpha_1 = alpha_2 = |alpha|;
  * ``fig2b``  — fixed 2:1 ratio, alpha_1 = |alpha| = 2 alpha_2;
  * ``surface`` — two axes, the seed ratio gamma = |alpha_2|/|alpha_1| and
    the magnitude |alpha| = |alpha_2|, so |alpha_1| = |alpha| / gamma.

A sweep expands its grid into magnitude columns, evaluates the closed forms
over all points in one call and returns a ``SweepTable``, which validates
the measures when it is built; the emitters in ``output`` write its columns.
An optional oracle check re-evaluates eligible points through the
Fock-space route and records the worst per-field deviation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .analytic import (
    _SEED_MAGNITUDE_MAX,
    MEASURE_FIELDS,
    ComplementarityMeasures,
    SeedPair,
    closed_form_measures,
    validate_measures,
)
from .oracle import ORACLE_ALPHA_MAX, route_residuals

logger = logging.getLogger(__name__)

SWEEP_MODES = ("fig2a", "fig2b", "surface", "explicit")

MAX_GRID_POINTS = 1_000_000

DEFAULT_FIG2_ALPHA_MAX = 6.0
DEFAULT_FIG2_ALPHA_STEP = 0.05
DEFAULT_SURFACE_ALPHA_MAX = 10.0
DEFAULT_SURFACE_ALPHA_STEP = 0.1
DEFAULT_SURFACE_GAMMA_STEP = 0.02


@dataclass(frozen=True)
class AxisSpec:
    """Inclusive arithmetic grid start, start+step, ..., capped at stop."""

    start: float
    stop: float
    step: float

    def __post_init__(self):
        for name in ("start", "stop", "step"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.step <= 0.0:
            raise ValueError(f"step must be > 0, got {self.step}")
        if self.stop < self.start:
            raise ValueError("stop must be >= start")

    def points(self) -> float:
        """``count()`` as a float: inf where the number of steps overflows."""
        return float(np.floor((self.stop - self.start) / self.step + 1e-9)) + 1.0

    def count(self) -> int:
        return int(self.points())

    def values(self) -> np.ndarray:
        vals = self.start + np.arange(self.count()) * self.step
        # the last point may overshoot stop by rounding; pin it back
        return np.minimum(vals, self.stop)

    def last(self) -> float:
        """``values()[-1]``, without expanding the axis."""
        return min(self.start + (self.count() - 1) * self.step, self.stop)


@dataclass(frozen=True)
class SweepGrid:
    mode: str
    alpha_axis: Optional[AxisSpec] = None
    gamma_axis: Optional[AxisSpec] = None
    seeds: tuple = ()
    oracle_check: bool = False

    def __post_init__(self):
        if self.mode not in SWEEP_MODES:
            raise ValueError(f"mode must be one of {SWEEP_MODES}, got {self.mode!r}")
        if self.mode == "explicit":
            if not self.seeds:
                raise ValueError("explicit mode needs at least one seed pair")
            object.__setattr__(self, "seeds", tuple(self.seeds))
        else:
            if self.alpha_axis is None:
                raise ValueError(f"{self.mode} mode needs an alpha axis")
            if self.mode == "surface" and self.gamma_axis is None:
                raise ValueError("surface mode needs a gamma axis")
            axes = {"--amax / --astep": self.alpha_axis}
            if self.mode == "surface":
                axes["--gstep"] = self.gamma_axis
            for flags, axis in axes.items():
                # refused before count() turns an overflowing float into an int
                if not axis.points() <= MAX_GRID_POINTS:
                    raise ValueError(
                        f"the grid axis set by {flags} has {axis.points():.12g} points, "
                        f"above the {MAX_GRID_POINTS} limit"
                    )
            # checked here because expansion builds no SeedPair per point
            largest = self.alpha_axis.last()
            flags = "--amax"
            if self.mode == "surface":
                largest /= self.gamma_axis.start
                flags = "--amax / --gstep"
            if not largest <= _SEED_MAGNITUDE_MAX:
                raise ValueError(
                    f"largest |alpha1| = {largest:.6g} exceeds the sanity bound "
                    f"{_SEED_MAGNITUDE_MAX:g} (set by {flags})"
                )

    def point_count(self) -> int:
        if self.mode == "explicit":
            return len(self.seeds)
        count = self.alpha_axis.count()
        if self.mode == "surface":
            count *= self.gamma_axis.count()
        return count


def _alpha_axis(alpha_max: float, alpha_step: float) -> AxisSpec:
    """The |alpha| axis 0, alpha_step, ..., alpha_max; errors name the CLI flag."""
    if not (math.isfinite(alpha_max) and alpha_max >= 0.0):
        raise ValueError(f"--amax must be finite and >= 0, got {alpha_max:g}")
    if not (math.isfinite(alpha_step) and alpha_step > 0.0):
        raise ValueError(f"--astep must be finite and > 0, got {alpha_step:g}")
    return AxisSpec(0.0, alpha_max, alpha_step)


def fig2a_grid(
    alpha_max: float = DEFAULT_FIG2_ALPHA_MAX,
    alpha_step: float = DEFAULT_FIG2_ALPHA_STEP,
    oracle_check: bool = False,
) -> SweepGrid:
    """Equal-seed sweep alpha_1 = alpha_2 = |alpha|."""
    return SweepGrid(
        "fig2a", alpha_axis=_alpha_axis(alpha_max, alpha_step), oracle_check=oracle_check
    )


def fig2b_grid(
    alpha_max: float = DEFAULT_FIG2_ALPHA_MAX,
    alpha_step: float = DEFAULT_FIG2_ALPHA_STEP,
    oracle_check: bool = False,
) -> SweepGrid:
    """Fixed-ratio sweep alpha_1 = |alpha| = 2 alpha_2."""
    return SweepGrid(
        "fig2b", alpha_axis=_alpha_axis(alpha_max, alpha_step), oracle_check=oracle_check
    )


def surface_grid(
    alpha_max: float = DEFAULT_SURFACE_ALPHA_MAX,
    alpha_step: float = DEFAULT_SURFACE_ALPHA_STEP,
    gamma_step: float = DEFAULT_SURFACE_GAMMA_STEP,
    oracle_check: bool = False,
) -> SweepGrid:
    """Two-axis sweep over gamma in (0, 1] and |alpha| = |alpha_2| in [0, alpha_max]."""
    if not 0.0 < gamma_step <= 1.0:
        raise ValueError(f"--gstep must lie in (0, 1], got {gamma_step:g}")
    return SweepGrid(
        "surface",
        alpha_axis=_alpha_axis(alpha_max, alpha_step),
        gamma_axis=AxisSpec(gamma_step, 1.0, gamma_step),
        oracle_check=oracle_check,
    )


def explicit_grid(seed_pairs: Sequence[SeedPair], oracle_check: bool = False) -> SweepGrid:
    return SweepGrid("explicit", seeds=tuple(seed_pairs), oracle_check=oracle_check)


# Emitted columns: coordinates, then the plotted measures.
ROW_FIELDS = ("alpha1_abs", "alpha2_abs", "gamma", "D2", "P2", "E2", "C2", "F_abs", "mu_s2", "V")
ORACLE_RESIDUAL_FIELD = "oracle_residual"


@dataclass(frozen=True, eq=False)
class SweepTable:
    """A sweep's result as columns, one entry per grid point in row-major order.

    Construction validates ``measures`` (see ``validate_measures``), so a
    table that exists holds mutually consistent measures at every point.
    ``columns`` maps each emitted column name (``ROW_FIELDS``, then
    ``oracle_residual`` when the sweep ran its oracle check on at least one
    point) to a read-only array.  ``oracle_residual`` is the worst per-field
    deviation of the Fock-space route, NaN where a point was above the
    oracle's seed-magnitude cap.
    """

    alpha1_abs: np.ndarray
    alpha2_abs: np.ndarray
    gamma: np.ndarray
    measures: ComplementarityMeasures
    oracle_residual: Optional[np.ndarray] = None
    columns: dict = field(init=False, repr=False)

    def __post_init__(self):
        m = validate_measures(self.measures)
        values = (
            self.alpha1_abs, self.alpha2_abs, self.gamma,
            m.D * m.D, m.P * m.P, m.E * m.E, m.C * m.C, m.F_abs, m.mu_s * m.mu_s, m.V,
        )
        columns = dict(zip(ROW_FIELDS, values))
        if self.oracle_residual is not None:
            columns[ORACLE_RESIDUAL_FIELD] = self.oracle_residual
        shape = np.shape(self.gamma)
        for name, column in columns.items():
            column = np.array(column, dtype=float)
            if column.ndim != 1 or column.shape != shape:
                raise ValueError(f"column {name} has shape {column.shape}, want {shape}")
            column.setflags(write=False)
            columns[name] = column
        object.__setattr__(self, "columns", columns)

    def __len__(self) -> int:
        return len(self.gamma)


def _grid_columns(grid: SweepGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand the grid to (|alpha_1|, |alpha_2|, gamma) in row-major axis order."""
    if grid.mode == "explicit":
        a1 = np.array([abs(pair.alpha1) for pair in grid.seeds])
        a2 = np.array([abs(pair.alpha2) for pair in grid.seeds])
        gamma = np.full_like(a1, math.nan)
        np.divide(a2, a1, out=gamma, where=a1 > 0.0)
        return a1, a2, gamma
    alphas = grid.alpha_axis.values()
    if grid.mode == "fig2a":
        return alphas, alphas, np.full_like(alphas, 1.0)
    if grid.mode == "fig2b":
        return alphas, alphas / 2.0, np.full_like(alphas, 0.5)
    # surface: gamma outer, |alpha| inner; |alpha_1| = |alpha| / gamma is
    # undefined at |alpha| = 0, so those points are skipped with a notice.
    gammas = grid.gamma_axis.values()
    kept = alphas[alphas != 0.0]
    skipped = (len(alphas) - len(kept)) * len(gammas)
    if skipped:
        logger.warning(
            "skipped %d surface grid points with |alpha_1| = 0 "
            "(seed ratio undefined there)",
            skipped,
        )
    a2 = np.tile(kept, len(gammas))
    gamma = np.repeat(gammas, len(kept))
    return a2 / gamma, a2, gamma


def _oracle_residuals(
    grid: SweepGrid,
    a1: np.ndarray,
    a2: np.ndarray,
    measures: ComplementarityMeasures,
) -> Optional[np.ndarray]:
    """Worst per-field Fock-route deviation, NaN above the oracle cap.

    None when no point is within the cap.
    """
    eligible = np.flatnonzero(np.maximum(a1, a2) <= ORACLE_ALPHA_MAX)
    if not eligible.size:
        return None
    if grid.mode == "explicit":
        seeds = np.array([(s.alpha1, s.alpha2) for s in grid.seeds])[eligible]
    else:
        seeds = np.stack((a1, a2), axis=1)[eligible].astype(complex)
    closed = ComplementarityMeasures(
        **{name: getattr(measures, name)[eligible] for name in MEASURE_FIELDS}
    )
    residuals, _ = route_residuals(seeds, closed)
    worst = np.full(len(a1), math.nan)
    worst[eligible] = np.max([residuals[name] for name in MEASURE_FIELDS], axis=0)
    return worst


def run_sweep(grid: SweepGrid) -> SweepTable:
    """Evaluate the closed-form measures over the grid as one table.

    Points come back in row-major axis order.  With ``grid.oracle_check`` the
    Fock-space route is also evaluated wherever both seed magnitudes are
    within the oracle cap, and the worst per-field deviation is attached.
    """
    if grid.point_count() > MAX_GRID_POINTS:
        raise ValueError(
            f"grid has {grid.point_count()} points, above the "
            f"{MAX_GRID_POINTS} limit"
        )
    a1, a2, gamma = _grid_columns(grid)
    measures = closed_form_measures(a1, a2)
    oracle_residual = None
    if grid.oracle_check:
        oracle_residual = _oracle_residuals(grid, a1, a2, measures)
    return SweepTable(a1, a2, gamma, measures, oracle_residual)
