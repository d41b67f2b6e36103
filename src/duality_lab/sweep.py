"""Parameter sweeps over the seed amplitudes, matching the standard figures.

Three canned grids cover the interesting landscape:

  * ``fig2a``  — equal seeds, alpha_1 = alpha_2 = |alpha|;
  * ``fig2b``  — fixed 2:1 ratio, alpha_1 = |alpha| = 2 alpha_2;
  * ``surface`` — two axes, the seed ratio gamma = |alpha_2|/|alpha_1| and
    the magnitude |alpha| = |alpha_2|, so |alpha_1| = |alpha| / gamma.

An explicit list of seed pairs is a fourth grid.  Each factory checks its
arguments once, naming the CLI flag at fault, and expands its grid into a
``SweepGrid``: the magnitude columns of every point, in row-major axis
order.  A grid describes points only.  ``run_sweep`` evaluates the closed
forms over all points in one call and returns a ``SweepTable``, which
validates the measures when it is built; the emitters in ``output`` write
its columns.  ``run_sweep(grid, oracle_check=True)`` also re-evaluates the
points within the oracle cap through the Fock-space route, in bounded
batches, and records the worst per-field deviation.
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
    _blocks,
    _modulus,
    closed_form_measures,
    validate_measures,
)
from .oracle import ORACLE_ALPHA_MAX, route_residuals

logger = logging.getLogger(__name__)

MAX_GRID_POINTS = 1_000_000

DEFAULT_FIG2_ALPHA_MAX = 6.0
DEFAULT_FIG2_ALPHA_STEP = 0.05
DEFAULT_SURFACE_ALPHA_MAX = 10.0
DEFAULT_SURFACE_ALPHA_STEP = 0.1
DEFAULT_SURFACE_GAMMA_STEP = 0.02


@dataclass(frozen=True, eq=False)
class SweepGrid:
    """A grid's points as magnitude columns, in row-major axis order.

    Built by ``fig2a_grid``, ``fig2b_grid``, ``surface_grid`` and
    ``explicit_grid``, which check their arguments first.  ``seeds`` holds
    an explicit list's (points, 2) complex seed pairs, whose phases the
    oracle check uses, and is None for the canned grids.  ``skipped``
    counts the surface points dropped at |alpha| = 0.
    """

    alpha1_abs: np.ndarray
    alpha2_abs: np.ndarray
    gamma: np.ndarray
    seeds: Optional[np.ndarray] = None
    skipped: int = 0

    def point_count(self) -> int:
        """Points in the grid, the skipped ones included."""
        return len(self.gamma) + self.skipped


def _axis(flags: str, start: float, stop: float, step: float) -> np.ndarray:
    """The inclusive grid start, start + step, ..., capped at stop; errors name ``flags``."""
    points = float(np.floor((stop - start) / step + 1e-9)) + 1.0
    # refused before int() turns an overflowing float count into an int
    if not points <= MAX_GRID_POINTS:
        raise ValueError(
            f"the grid axis set by {flags} has {points:.12g} points, "
            f"above the {MAX_GRID_POINTS} limit"
        )
    values = start + np.arange(int(points)) * step
    # the last point may overshoot stop by rounding; pin it back
    return np.minimum(values, stop)


def _alpha_axis(alpha_max: float, alpha_step: float) -> np.ndarray:
    """The |alpha| axis 0, alpha_step, ..., alpha_max; errors name the CLI flag."""
    if not (math.isfinite(alpha_max) and alpha_max >= 0.0):
        raise ValueError(f"--amax must be finite and >= 0, got {alpha_max:g}")
    if not (math.isfinite(alpha_step) and alpha_step > 0.0):
        raise ValueError(f"--astep must be finite and > 0, got {alpha_step:g}")
    return _axis("--amax / --astep", 0.0, alpha_max, alpha_step)


def _check_seed_bound(largest: float, flags: str) -> None:
    # checked here because expansion builds no SeedPair per point
    if not largest <= _SEED_MAGNITUDE_MAX:
        raise ValueError(
            f"largest |alpha1| = {largest:.6g} exceeds the sanity bound "
            f"{_SEED_MAGNITUDE_MAX:g} (set by {flags})"
        )


def _check_point_count(count: int) -> None:
    if count > MAX_GRID_POINTS:
        raise ValueError(f"grid has {count} points, above the {MAX_GRID_POINTS} limit")


def _ratio_grid(alpha_max: float, alpha_step: float, gamma: float) -> SweepGrid:
    """The one-axis sweep alpha_1 = |alpha|, alpha_2 = gamma |alpha|."""
    alphas = _alpha_axis(alpha_max, alpha_step)
    _check_seed_bound(alphas[-1], "--amax")
    return SweepGrid(alphas, alphas * gamma, np.full_like(alphas, gamma))


def fig2a_grid(
    alpha_max: float = DEFAULT_FIG2_ALPHA_MAX,
    alpha_step: float = DEFAULT_FIG2_ALPHA_STEP,
) -> SweepGrid:
    """Equal-seed sweep alpha_1 = alpha_2 = |alpha|."""
    return _ratio_grid(alpha_max, alpha_step, 1.0)


def fig2b_grid(
    alpha_max: float = DEFAULT_FIG2_ALPHA_MAX,
    alpha_step: float = DEFAULT_FIG2_ALPHA_STEP,
) -> SweepGrid:
    """Fixed-ratio sweep alpha_1 = |alpha| = 2 alpha_2."""
    return _ratio_grid(alpha_max, alpha_step, 0.5)


def surface_grid(
    alpha_max: float = DEFAULT_SURFACE_ALPHA_MAX,
    alpha_step: float = DEFAULT_SURFACE_ALPHA_STEP,
    gamma_step: float = DEFAULT_SURFACE_GAMMA_STEP,
) -> SweepGrid:
    """Two-axis sweep over gamma in (0, 1] and |alpha| = |alpha_2| in [0, alpha_max].

    Gamma is the outer axis and |alpha| the inner one.  |alpha_1| =
    |alpha| / gamma is undefined at |alpha| = 0, so those points are
    skipped with a notice.
    """
    if not 0.0 < gamma_step <= 1.0:
        raise ValueError(f"--gstep must lie in (0, 1], got {gamma_step:g}")
    alphas = _alpha_axis(alpha_max, alpha_step)
    gammas = _axis("--gstep", gamma_step, 1.0, gamma_step)
    _check_seed_bound(alphas[-1] / gammas[0], "--amax / --gstep")
    _check_point_count(len(alphas) * len(gammas))
    kept = alphas[alphas != 0.0]
    if not kept.size:
        raise ValueError(
            f"--amax / --astep must give the surface a point with |alpha| > 0, "
            f"got --amax {alpha_max:g} below --astep {alpha_step:g}"
        )
    skipped = (len(alphas) - len(kept)) * len(gammas)
    if skipped:
        # every surface starts its |alpha| axis at 0, so this is no warning
        logger.info(
            "skipped %d surface grid points with |alpha_1| = 0 "
            "(seed ratio undefined there)",
            skipped,
        )
    a2 = np.tile(kept, len(gammas))
    gamma = np.repeat(gammas, len(kept))
    return SweepGrid(a2 / gamma, a2, gamma, skipped=skipped)


def explicit_grid(seed_pairs: Sequence[SeedPair]) -> SweepGrid:
    """One point per seed pair, in the order given."""
    seed_pairs = tuple(seed_pairs)
    if not seed_pairs:
        raise ValueError("explicit mode needs at least one seed pair")
    _check_point_count(len(seed_pairs))
    seeds = np.array([(pair.alpha1, pair.alpha2) for pair in seed_pairs])
    a1, a2 = _modulus(seeds).T
    gamma = np.full_like(a1, math.nan)
    np.divide(a2, a1, out=gamma, where=a1 > 0.0)
    return SweepGrid(a1, a2, gamma, seeds=seeds)


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


def _oracle_residuals(grid: SweepGrid, measures: ComplementarityMeasures) -> Optional[np.ndarray]:
    """Worst per-field Fock-route deviation, NaN above the oracle cap.

    None when no point is within the cap.
    """
    a1, a2 = grid.alpha1_abs, grid.alpha2_abs
    eligible = np.flatnonzero(np.maximum(a1, a2) <= ORACLE_ALPHA_MAX)
    if not eligible.size:
        return None
    seeds = grid.seeds
    if seeds is None:
        seeds = np.stack((a1, a2), axis=1).astype(complex)
    worst = np.full(len(a1), math.nan)
    # a batch of ``analytic._BLOCK`` pairs takes about 20 MiB at |alpha| <= 4
    for (batch,) in _blocks((eligible,)):
        closed = ComplementarityMeasures(*(column[batch] for column in measures))
        residuals, _ = route_residuals(seeds[batch], closed)
        worst[batch] = np.max([residuals[name] for name in MEASURE_FIELDS], axis=0)
    return worst


def run_sweep(grid: SweepGrid, oracle_check: bool = False) -> SweepTable:
    """Evaluate the closed-form measures over the grid as one table.

    Points come back in the grid's order.  With ``oracle_check`` the
    Fock-space route is also evaluated wherever both seed magnitudes are
    within the oracle cap, and the worst per-field deviation is attached.
    """
    measures = closed_form_measures(grid.alpha1_abs, grid.alpha2_abs)
    oracle_residual = _oracle_residuals(grid, measures) if oracle_check else None
    return SweepTable(grid.alpha1_abs, grid.alpha2_abs, grid.gamma, measures, oracle_residual)
