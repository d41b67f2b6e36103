#!/usr/bin/env python3
"""Sweep the squared measures along the two standard single-axis cuts.

Cut (a): equal seeds alpha_1 = alpha_2 = |alpha|.  Predictability is
identically zero, the visibility pins at one, and the interesting action is
the crossing where entanglement hands dominance over to coherence — at
|alpha|^2 = 1 + sqrt(2), where the squared detector fidelity reaches 1/2.

Cut (b): fixed ratio alpha_1 = |alpha| = 2 alpha_2.  All measures are
strictly between their bounds and every identity still holds row by row.

Writes CSV tables and SVG plots into demo_output/.

Run:  python demos/figure_curves.py
"""

import math
from pathlib import Path

import numpy as np

from duality_lab import emit_outputs, fig2a_grid, fig2b_grid, run_sweep

out_dir = Path("demo_output")
out_dir.mkdir(exist_ok=True)

for name, grid in (("equal_seeds", fig2a_grid()), ("ratio_seeds", fig2b_grid())):
    table = run_sweep(grid)
    for fmt in ("csv", "svg"):
        paths = emit_outputs(table, fmt, out_dir / f"curves_{name}.{fmt}")
        print(f"{name}: wrote {len(table)} rows -> {paths[0]}")

# locate the E^2 / C^2 crossing on a finer grid
fine = run_sweep(fig2a_grid(alpha_max=2.0, alpha_step=0.001)).columns
signs = fine["E2"] - fine["C2"]
k = np.flatnonzero((signs[:-1] > 0) & (signs[1:] <= 0))[0]
exact = math.sqrt(1.0 + math.sqrt(2.0))
print()
print(
    f"E^2/C^2 crossing bracketed in [{fine['alpha1_abs'][k]:.3f}, "
    f"{fine['alpha1_abs'][k + 1]:.3f}]; exact |alpha| = sqrt(1+sqrt(2)) = {exact:.6f}"
)
