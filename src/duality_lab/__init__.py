"""duality-lab: quantitative wave-particle duality for a seeded two-crystal interferometer.

A single signal photon interferes over two down-conversion paths while the
coherently seeded idler fields act as a tunable which-path detector.  This
package evaluates the complementarity measures of that system in closed form,
re-derives them from explicit truncated-Fock-space states as an independent
oracle, simulates shot-noise-limited fringe scans, and sweeps the seed
parameters into figure-ready tables and plots.
"""

from .analytic import (
    MEASURE_FIELDS,
    ComplementarityMeasures,
    QuantonAmplitudes,
    QuantonDensityMatrix,
    SeedPair,
    complementarity_measures,
    detector_fidelity,
    quanton_amplitudes,
    quanton_density_closed,
)
from .fock import (
    DEFAULT_POLICY,
    CutoffPolicy,
    FockVector,
    apply_creation,
    choose_cutoff,
    coherent_state,
    inner_product,
    poisson_tail_mass,
    spacs_state,
    tensor_product,
)
from .interferometer import (
    FringeConfig,
    FringeFit,
    FringeScan,
    count_rate,
    extract_coherence_minmax,
    fit_fringe,
    pump_scale_for_peak,
    simulate_fringe,
)
from .oracle import (
    CompositeState,
    IdentityCheck,
    Tolerances,
    VerificationReport,
    build_composite,
    measures_from_state,
    reduce_quanton,
    verify_identities,
)
from .output import (
    ScanFormatError,
    emit_outputs,
    ingest_scan_csv,
    render_curves_svg,
    render_heatmap_svg,
    rows_to_csv_text,
    rows_to_json_text,
    scan_to_csv_text,
    write_scan_csv,
)
from .sweep import (
    AxisSpec,
    SweepGrid,
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
    "ComplementarityMeasures",
    "QuantonAmplitudes",
    "QuantonDensityMatrix",
    "SeedPair",
    "complementarity_measures",
    "detector_fidelity",
    "quanton_amplitudes",
    "quanton_density_closed",
    "DEFAULT_POLICY",
    "CutoffPolicy",
    "FockVector",
    "apply_creation",
    "choose_cutoff",
    "coherent_state",
    "inner_product",
    "poisson_tail_mass",
    "spacs_state",
    "tensor_product",
    "FringeConfig",
    "FringeFit",
    "FringeScan",
    "count_rate",
    "extract_coherence_minmax",
    "fit_fringe",
    "pump_scale_for_peak",
    "simulate_fringe",
    "CompositeState",
    "IdentityCheck",
    "Tolerances",
    "VerificationReport",
    "build_composite",
    "measures_from_state",
    "reduce_quanton",
    "verify_identities",
    "ScanFormatError",
    "emit_outputs",
    "ingest_scan_csv",
    "render_curves_svg",
    "render_heatmap_svg",
    "rows_to_csv_text",
    "rows_to_json_text",
    "scan_to_csv_text",
    "write_scan_csv",
    "AxisSpec",
    "SweepGrid",
    "SweepTable",
    "explicit_grid",
    "fig2a_grid",
    "fig2b_grid",
    "run_sweep",
    "surface_grid",
]
