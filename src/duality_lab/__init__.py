"""duality-lab: quantitative wave-particle duality for a seeded two-crystal interferometer.

A single signal photon interferes over two down-conversion paths while the
coherently seeded idler fields act as a tunable which-path detector.  This
package evaluates the complementarity measures of that system in closed form,
re-derives them from explicit truncated-Fock-space states as an independent
oracle, simulates shot-noise-limited fringe scans, and sweeps the seed
parameters into figure-ready tables and plots.

The names below are the ones the command line, the demos and the README use;
everything else is imported from its module (``duality_lab.fock``, ...).
"""

from .analytic import MEASURE_FIELDS, SeedPair, complementarity_measures, detector_fidelity
from .interferometer import (
    FringeConfig,
    extract_coherence_minmax,
    fit_fringe,
    pump_scale_for_peak,
    simulate_fringe,
)
from .oracle import (
    build_composite,
    measures_from_state,
    route_residuals,
    verify_identities,
)
from .output import (
    ScanFormatError,
    emit_outputs,
    ingest_scan_csv,
    rows_to_csv_text,
    rows_to_json_text,
    write_scan_csv,
)
from .sweep import (
    SweepTable,
    explicit_grid,
    fig2a_grid,
    fig2b_grid,
    run_sweep,
    surface_grid,
)

__version__ = "0.1.0"

__all__ = [
    "MEASURE_FIELDS",
    "SeedPair",
    "complementarity_measures",
    "detector_fidelity",
    "FringeConfig",
    "extract_coherence_minmax",
    "fit_fringe",
    "pump_scale_for_peak",
    "simulate_fringe",
    "build_composite",
    "measures_from_state",
    "route_residuals",
    "verify_identities",
    "ScanFormatError",
    "emit_outputs",
    "ingest_scan_csv",
    "rows_to_csv_text",
    "rows_to_json_text",
    "write_scan_csv",
    "SweepTable",
    "explicit_grid",
    "fig2a_grid",
    "fig2b_grid",
    "run_sweep",
    "surface_grid",
]
