"""Command-line surface tying the toolkit together.

Subcommands: ``measures`` (closed-form measures at one seed point, with an
optional Fock-space cross-check), ``verify`` (randomized identity suite),
``sweep`` (figure grids to CSV/JSON/SVG), ``fringe`` (simulated fringe scan
to CSV plus a fitted-vs-analytic summary) and ``fit`` (fit a scan file).

Exit codes: 0 success (and, for ``verify``, all checks passed); 1 validation
or verification failure, or an input too large for memory; 2 I/O or parse
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Optional, Sequence

from .analytic import MEASURE_FIELDS, SeedPair, complementarity_measures
from .interferometer import (
    DEFAULT_INTEGRATION_TIME,
    FringeConfig,
    extract_coherence_minmax,
    fit_fringe,
    pump_scale_for_peak,
    simulate_fringe,
)
from .oracle import route_residuals, verify_identities
from .output import ScanFormatError, emit_outputs, ingest_scan_csv, write_scan_csv
from .sweep import fig2a_grid, fig2b_grid, run_sweep, surface_grid


def _complex_arg(text: str) -> complex:
    """Parse 're' or 're,im' into a complex seed amplitude."""
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected 're' or 're,im' with numeric parts, got {text!r}"
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process.

    ``parse_args`` keeps no state between calls: each returns a new
    namespace filled from the parser's immutable defaults.
    """
    parser = argparse.ArgumentParser(
        prog="duality-lab",
        description=(
            "Complementarity measures, Fock-space verification, fringe "
            "simulation and figure sweeps for the seeded double-path "
            "interferometer."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measures", help="closed-form measures at one seed point")
    p.add_argument("--alpha1", type=_complex_arg, required=True, metavar="RE[,IM]")
    p.add_argument("--alpha2", type=_complex_arg, required=True, metavar="RE[,IM]")
    p.add_argument("--oracle", action="store_true", help="add Fock-route residuals")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("verify", help="randomized identity and route-agreement suite")
    p.add_argument("--samples", type=int, default=1000, metavar="N")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.add_argument("--alpha-max", type=float, default=10.0, metavar="X")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("sweep", help="figure grids to csv/json/svg")
    p.add_argument("--mode", choices=("fig2a", "fig2b", "surface"), required=True)
    p.add_argument("--out", required=True, metavar="PATH")
    p.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    p.add_argument("--oracle", action="store_true", help="attach Fock-route residuals")
    p.add_argument("--amax", type=float, default=None, help="|alpha| axis maximum")
    p.add_argument("--astep", type=float, default=None, help="|alpha| axis step")
    p.add_argument("--gstep", type=float, default=None, help="gamma axis step (surface)")

    p = sub.add_parser("fringe", help="simulate a fringe scan and write it as CSV")
    p.add_argument("--alpha1", type=_complex_arg, required=True, metavar="RE[,IM]")
    p.add_argument("--alpha2", type=_complex_arg, required=True, metavar="RE[,IM]")
    p.add_argument("--points", type=int, default=100, metavar="K")
    p.add_argument(
        "--scale",
        type=float,
        default=None,
        metavar="R",
        help="pump rate scale, counts/s (default: peak rate at the "
        "single-photon budget)",
    )
    p.add_argument("--tint", type=float, default=DEFAULT_INTEGRATION_TIME, metavar="T")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.add_argument("--noise", choices=("none", "poisson"), default="poisson")
    p.add_argument("--out", required=True, metavar="PATH")

    p = sub.add_parser("fit", help="fit a simulated or ingested fringe scan")
    p.add_argument("--input", required=True, metavar="PATH")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def _cmd_measures(args) -> int:
    seeds = SeedPair(args.alpha1, args.alpha2)
    closed = complementarity_measures(seeds)
    oracle_block = None
    if args.oracle:
        residuals, cutoffs = route_residuals([(seeds.alpha1, seeds.alpha2)], closed)
        oracle_block = {
            "cutoff": int(cutoffs[0]),
            "residuals": {name: float(residuals[name][0]) for name in MEASURE_FIELDS},
        }
    if args.json:
        payload = {
            "alpha1": [seeds.alpha1.real, seeds.alpha1.imag],
            "alpha2": [seeds.alpha2.real, seeds.alpha2.imag],
            "measures": closed.as_dict(),
        }
        if oracle_block is not None:
            payload["oracle"] = oracle_block
        print(json.dumps(payload, indent=2))
        return 0
    print(f"alpha1 = {seeds.alpha1}")
    print(f"alpha2 = {seeds.alpha2}")
    for name in MEASURE_FIELDS:
        print(f"{name:6s} = {getattr(closed, name):.15f}")
    if oracle_block is not None:
        print(f"fock-route cross-check at cutoff {oracle_block['cutoff']}:")
        for name, residual in oracle_block["residuals"].items():
            print(f"  |delta {name:6s}| = {residual:.3e}")
    return 0


def _cmd_verify(args) -> int:
    report = verify_identities(
        sample_count=args.samples,
        rng_seed=args.seed,
        alpha_max=args.alpha_max,
    )
    print(report.to_json() if args.json else report.to_text())
    return 0 if report.all_passed else 1


def _cmd_sweep(args) -> int:
    factory = {"fig2a": fig2a_grid, "fig2b": fig2b_grid, "surface": surface_grid}[args.mode]
    if args.gstep is not None and args.mode != "surface":
        raise ValueError(f"--gstep applies to --mode surface only, not {args.mode}")
    flags = {"alpha_max": args.amax, "alpha_step": args.astep, "gamma_step": args.gstep}
    given = {name: value for name, value in flags.items() if value is not None}
    table = run_sweep(factory(**given), oracle_check=args.oracle)
    written = emit_outputs(table, args.format, args.out)
    names = ", ".join(str(p) for p in written)
    print(f"wrote {len(table)} rows -> {names}")
    return 0


def _cmd_fringe(args) -> int:
    seeds = SeedPair(args.alpha1, args.alpha2)
    scale = args.scale if args.scale is not None else pump_scale_for_peak(seeds)
    config = FringeConfig(
        seeds=seeds,
        pump_rate_scale=scale,
        phase_points=args.points,
        integration_time=args.tint,
        rng_seed=args.seed,
        noise=args.noise,
    )
    scan = simulate_fringe(config)
    written = write_scan_csv(scan, args.out)
    analytic_c = complementarity_measures(seeds).C
    if len(scan) >= 8:
        fit = fit_fringe(scan)
        print(
            f"wrote {len(scan)} points -> {written} | fitted C = "
            f"{fit.coherence_estimate:.9f} +- {fit.coherence_stderr:.9f} | "
            f"analytic C = {analytic_c:.9f}"
        )
    else:
        contrast = extract_coherence_minmax(scan)
        print(
            f"wrote {len(scan)} points -> {written} | min/max C = "
            f"{contrast:.9f} | analytic C = {analytic_c:.9f}"
        )
    return 0


def _cmd_fit(args) -> int:
    scan = ingest_scan_csv(args.input)
    fit = fit_fringe(scan)
    if args.json:
        def finite_or_none(value: float):
            return value if math.isfinite(value) else None

        payload = {
            "points": len(scan),
            "offset": fit.offset,
            "offset_stderr": fit.offset_stderr,
            "amplitude": fit.amplitude,
            "amplitude_stderr": fit.amplitude_stderr,
            "phase0": fit.phase0,
            "phase0_stderr": finite_or_none(fit.phase0_stderr),
            "coherence_estimate": fit.coherence_estimate,
            "coherence_stderr": fit.coherence_stderr,
            "residual_rms": fit.residual_rms,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"points = {len(scan)}")
        print(fit.summary())
    return 0


_COMMANDS = {
    "measures": _cmd_measures,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "fringe": _cmd_fringe,
    "fit": _cmd_fit,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    # ahead of ValueError: a ScanFormatError is one
    except (ScanFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
