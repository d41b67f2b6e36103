"""File emitters and ingestion: sweep tables and fringe scans.

Formats are deliberately boring: CSV with full-precision floats (``repr``
round-trips exactly), JSON arrays of records with the same field names, and
hand-rolled static SVG for the two figure styles (measure curves versus
|alpha|, and gamma-|alpha| heat maps).  All emitters produce byte-identical
output for identical input.

The fringe-scan CSV format is the toolkit's one wire format::

    # alpha1=(2+0j)          <- optional key=value metadata comments
    # noise=poisson
    delta_theta,counts       <- mandatory header
    0.0,40183.0              <- radians, raw counts per row

Ingestion is strict: a malformed header, non-numeric cell, non-monotone
phase column or empty body is rejected with the offending line number.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Optional, Union

import numpy as np

from .analytic import SeedPair
from .interferometer import FringeConfig, FringeScan
from .sweep import ORACLE_RESIDUAL_FIELD, ROW_FIELDS, SweepTable

SCAN_HEADER = "delta_theta,counts"

_SCAN_META_KEYS = (
    "alpha1",
    "alpha2",
    "pump_rate_scale",
    "integration_time",
    "phase_points",
    "rng_seed",
    "noise",
)

# Default surface heat maps: coherence vs pure-state visibility.
DEFAULT_SURFACE_MEASURES = ("C", "V")

_CURVE_SERIES = (
    ("D2", "D^2", "#1f77b4"),
    ("P2", "P^2", "#ff7f0e"),
    ("E2", "E^2", "#2ca02c"),
    ("C2", "C^2", "#d62728"),
    ("F_abs", "|F|", "#9467bd"),
    ("mu_s2", "mu_s^2", "#8c564b"),
)


class ScanFormatError(ValueError):
    """A fringe-scan file violated the format; ``line`` is 1-based."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# fringe-scan CSV


def scan_to_csv_text(scan: FringeScan) -> str:
    lines = []
    config = scan.config
    if config is not None:
        lines.append(f"# alpha1={config.seeds.alpha1!r}")
        lines.append(f"# alpha2={config.seeds.alpha2!r}")
        lines.append(f"# pump_rate_scale={config.pump_rate_scale!r}")
        lines.append(f"# integration_time={config.integration_time!r}")
        lines.append(f"# phase_points={config.phase_points!r}")
        lines.append(f"# rng_seed={config.rng_seed!r}")
        lines.append(f"# noise={config.noise}")
    lines.append(f"# provenance={scan.provenance}")
    lines.append(SCAN_HEADER)
    for theta, counts in zip(scan.delta_theta, scan.counts):
        lines.append(f"{float(theta)!r},{float(counts)!r}")
    return "\n".join(lines) + "\n"


def write_scan_csv(scan: FringeScan, path) -> Path:
    path = Path(path)
    path.write_text(scan_to_csv_text(scan), encoding="ascii", newline="")
    return path


def _config_from_metadata(metadata: dict) -> Optional[FringeConfig]:
    if not all(key in metadata for key in _SCAN_META_KEYS):
        return None
    try:
        return FringeConfig(
            seeds=SeedPair(complex(metadata["alpha1"]), complex(metadata["alpha2"])),
            pump_rate_scale=float(metadata["pump_rate_scale"]),
            phase_points=int(metadata["phase_points"]),
            integration_time=float(metadata["integration_time"]),
            rng_seed=int(metadata["rng_seed"]),
            noise=metadata["noise"],
        )
    except (ValueError, TypeError):
        return None


def ingest_scan_csv(path) -> FringeScan:
    """Parse a fringe-scan CSV file; metadata comments are optional.

    The returned scan always carries provenance ``"ingested"``; when the
    metadata block is complete it is echoed back as the scan's config.
    """
    path = Path(path)
    text = path.read_text(encoding="ascii")
    metadata: dict = {}
    header_seen = False
    thetas: list[float] = []
    counts: list[float] = []
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                metadata[key.strip()] = value.strip()
            continue
        if not header_seen:
            if line != SCAN_HEADER:
                raise ScanFormatError(
                    f"malformed header: expected {SCAN_HEADER!r}, got {line!r}", lineno
                )
            header_seen = True
            continue
        cells = line.split(",")
        if len(cells) != 2:
            raise ScanFormatError(
                f"expected 2 comma-separated cells, got {len(cells)}", lineno
            )
        try:
            theta = float(cells[0])
            count = float(cells[1])
        except ValueError:
            raise ScanFormatError(f"non-numeric cell in {line!r}", lineno) from None
        if not (math.isfinite(theta) and math.isfinite(count)):
            raise ScanFormatError("non-finite value", lineno)
        if not 0.0 <= theta < 2.0 * math.pi:
            raise ScanFormatError(
                f"delta_theta {theta!r} outside [0, 2*pi)", lineno
            )
        if thetas and theta <= thetas[-1]:
            raise ScanFormatError(
                f"delta_theta {theta!r} not strictly increasing", lineno
            )
        if count < 0.0:
            raise ScanFormatError(f"negative counts {count!r}", lineno)
        thetas.append(theta)
        counts.append(count)
    if not header_seen:
        raise ScanFormatError("missing header", last_line + 1)
    if not thetas:
        raise ScanFormatError("empty body", last_line + 1)
    return FringeScan(thetas, counts, "ingested", _config_from_metadata(metadata))


def scan_to_json_text(scan: FringeScan) -> str:
    payload = {
        "provenance": scan.provenance,
        "points": [
            [float(t), float(c)] for t, c in zip(scan.delta_theta, scan.counts)
        ],
    }
    config = scan.config
    if config is not None:
        payload["config"] = {
            "alpha1": [config.seeds.alpha1.real, config.seeds.alpha1.imag],
            "alpha2": [config.seeds.alpha2.real, config.seeds.alpha2.imag],
            "pump_rate_scale": config.pump_rate_scale,
            "integration_time": config.integration_time,
            "phase_points": config.phase_points,
            "rng_seed": config.rng_seed,
            "noise": config.noise,
        }
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# sweep tables


def _table_columns(table: SweepTable) -> dict:
    if not len(table):
        raise ValueError("no rows to emit")
    return table.columns


def rows_to_csv_text(table: SweepTable) -> str:
    columns = _table_columns(table)
    cells = []
    for name, column in columns.items():
        if name == ORACLE_RESIDUAL_FIELD:  # NaN marks a point above the oracle cap
            cells.append("" if math.isnan(v) else repr(v) for v in column.tolist())
        else:
            cells.append(map(repr, column.tolist()))
    lines = [",".join(columns)]
    lines.extend(map(",".join, zip(*cells)))
    return "\n".join(lines) + "\n"


def _json_safe(value: float) -> Optional[float]:
    return value if math.isfinite(value) else None


def rows_to_json_text(table: SweepTable) -> str:
    columns = _table_columns(table)
    # One expression, so the per-column lists are freed before json.dumps;
    # this emitter sets the peak memory of a sweep.
    records = [
        dict(zip(columns, row))
        for row in zip(*(map(_json_safe, column.tolist()) for column in columns.values()))
    ]
    return json.dumps(records, indent=2) + "\n"


# ---------------------------------------------------------------------------
# SVG rendering (static, dependency-free, deterministic)


def _svg_header(width: int, height: int, title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.2f}" y="24" font-family="monospace" '
        f'font-size="16" text-anchor="middle">{title}</text>',
    ]


def render_curves_svg(table: SweepTable, title: str = "duality measures") -> str:
    """Six measure curves against |alpha_1| with axes and a legend."""
    columns = _table_columns(table)
    width, height = 840, 560
    left, right, top, bottom = 70.0, 660.0, 50.0, 500.0
    xs = columns["alpha1_abs"].tolist()
    x_min, x_max = min(xs), max(xs)
    span = x_max - x_min or 1.0

    def px(x: float) -> float:
        return left + (x - x_min) / span * (right - left)

    def py(y: float) -> float:
        return bottom - y * (bottom - top)

    parts = _svg_header(width, height, title)
    # frame and ticks
    parts.append(
        f'<rect x="{left:.2f}" y="{top:.2f}" width="{right - left:.2f}" '
        f'height="{bottom - top:.2f}" fill="none" stroke="black"/>'
    )
    for k in range(7):
        x = x_min + span * k / 6
        parts.append(
            f'<line x1="{px(x):.2f}" y1="{bottom:.2f}" x2="{px(x):.2f}" '
            f'y2="{bottom + 6:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px(x):.2f}" y="{bottom + 22:.2f}" font-family="monospace" '
            f'font-size="12" text-anchor="middle">{x:.3g}</text>'
        )
    for k in range(6):
        y = k / 5
        parts.append(
            f'<line x1="{left - 6:.2f}" y1="{py(y):.2f}" x2="{left:.2f}" '
            f'y2="{py(y):.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{left - 10:.2f}" y="{py(y) + 4:.2f}" font-family="monospace" '
            f'font-size="12" text-anchor="end">{y:.1f}</text>'
        )
    parts.append(
        f'<text x="{(left + right) / 2:.2f}" y="{bottom + 44:.2f}" '
        f'font-family="monospace" font-size="14" text-anchor="middle">'
        "seed amplitude |alpha|</text>"
    )
    for index, (field_name, label, color) in enumerate(_CURVE_SERIES):
        coords = " ".join(
            f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, columns[field_name].tolist())
        )
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
        ly = top + 18 + 24 * index
        parts.append(
            f'<line x1="{right + 20:.2f}" y1="{ly:.2f}" x2="{right + 50:.2f}" '
            f'y2="{ly:.2f}" stroke="{color}" stroke-width="3"/>'
        )
        parts.append(
            f'<text x="{right + 58:.2f}" y="{ly + 4:.2f}" font-family="monospace" '
            f'font-size="13">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _heat_color(value: float) -> str:
    """A small fixed color ramp from dark blue to yellow over [0, 1]."""
    stops = (
        (0.00, (68, 1, 84)),
        (0.25, (59, 82, 139)),
        (0.50, (33, 145, 140)),
        (0.75, (94, 201, 98)),
        (1.00, (253, 231, 37)),
    )
    value = min(1.0, max(0.0, value))
    for (lo, lo_rgb), (hi, hi_rgb) in zip(stops, stops[1:]):
        if value <= hi:
            frac = (value - lo) / (hi - lo)
            rgb = tuple(
                int(round(c0 + frac * (c1 - c0))) for c0, c1 in zip(lo_rgb, hi_rgb)
            )
            return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"
    return "#fde725"


def render_heatmap_svg(table: SweepTable, measure: str) -> str:
    """One gamma-|alpha| heat map of ``measure`` on the fixed [0, 1] scale."""
    columns = _table_columns(table)
    if measure == "C":
        values = np.sqrt(columns["C2"])
    elif measure in ROW_FIELDS[3:]:
        values = columns[measure]
    else:
        raise ValueError(f"unknown measure {measure!r} for heat map")
    point_gamma = columns["gamma"].tolist()
    point_alpha = columns["alpha2_abs"].tolist()
    gammas = sorted(set(point_gamma))
    alphas = sorted(set(point_alpha))
    if any(math.isnan(g) for g in gammas) or len(table) != len(gammas) * len(alphas):
        raise ValueError("heat map needs a complete rectangular gamma-|alpha| grid")
    lookup = dict(zip(zip(point_gamma, point_alpha), values.tolist()))
    width, height = 760, 620
    left, right, top, bottom = 90.0, 640.0, 50.0, 560.0
    cell_w = (right - left) / len(gammas)
    cell_h = (bottom - top) / len(alphas)
    parts = _svg_header(width, height, f"{measure} over seed ratio and magnitude")
    for i, gamma in enumerate(gammas):
        for j, alpha in enumerate(alphas):
            value = lookup[(gamma, alpha)]
            x = left + i * cell_w
            y = bottom - (j + 1) * cell_h
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{cell_w:.2f}" '
                f'height="{cell_h:.2f}" fill="{_heat_color(value)}"/>'
            )
    parts.append(
        f'<rect x="{left:.2f}" y="{top:.2f}" width="{right - left:.2f}" '
        f'height="{bottom - top:.2f}" fill="none" stroke="black"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        gx = left + frac * (right - left)
        gval = gammas[0] + frac * (gammas[-1] - gammas[0])
        parts.append(
            f'<text x="{gx:.2f}" y="{bottom + 20:.2f}" font-family="monospace" '
            f'font-size="12" text-anchor="middle">{gval:.2f}</text>'
        )
        ay = bottom - frac * (bottom - top)
        aval = alphas[0] + frac * (alphas[-1] - alphas[0])
        parts.append(
            f'<text x="{left - 8:.2f}" y="{ay + 4:.2f}" font-family="monospace" '
            f'font-size="12" text-anchor="end">{aval:.2f}</text>'
        )
    parts.append(
        f'<text x="{(left + right) / 2:.2f}" y="{bottom + 42:.2f}" '
        'font-family="monospace" font-size="14" text-anchor="middle">'
        "seed ratio gamma</text>"
    )
    parts.append(
        f'<text x="20" y="{(top + bottom) / 2:.2f}" font-family="monospace" '
        f'font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 20 {(top + bottom) / 2:.2f})">|alpha_2|</text>'
    )
    # colorbar, fixed [0, 1] scale
    bar_x, bar_w, steps = 680.0, 24.0, 32
    for k in range(steps):
        value = (k + 0.5) / steps
        y = bottom - (k + 1) / steps * (bottom - top)
        parts.append(
            f'<rect x="{bar_x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" '
            f'height="{(bottom - top) / steps:.2f}" fill="{_heat_color(value)}"/>'
        )
    parts.append(
        f'<rect x="{bar_x:.2f}" y="{top:.2f}" width="{bar_w:.2f}" '
        f'height="{bottom - top:.2f}" fill="none" stroke="black"/>'
    )
    parts.append(
        f'<text x="{bar_x + bar_w + 6:.2f}" y="{bottom + 4:.2f}" '
        'font-family="monospace" font-size="12">0.0</text>'
    )
    parts.append(
        f'<text x="{bar_x + bar_w + 6:.2f}" y="{top + 4:.2f}" '
        'font-family="monospace" font-size="12">1.0</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# dispatcher


def emit_outputs(
    data: Union[SweepTable, FringeScan],
    format: str,
    path,
    measures: Iterable[str] = DEFAULT_SURFACE_MEASURES,
) -> list[Path]:
    """Write ``data`` to ``path`` in the requested format; returns paths written.

    Sweep tables support csv, json and svg (svg picks curve or heat-map
    layout from the grid shape; heat maps write one file per selected
    measure, named ``<stem>_<measure>.svg``).  Fringe scans support csv and
    json.  Identical input produces identical bytes.
    """
    if format not in ("csv", "json", "svg"):
        raise ValueError(f"format must be csv, json or svg, got {format!r}")
    path = Path(path)

    if isinstance(data, FringeScan):
        if format == "csv":
            return [write_scan_csv(data, path)]
        if format == "json":
            path.write_text(scan_to_json_text(data), encoding="ascii", newline="")
            return [path]
        raise ValueError("svg output is not defined for fringe scans")

    if format == "csv":
        path.write_text(rows_to_csv_text(data), encoding="ascii", newline="")
        return [path]
    if format == "json":
        path.write_text(rows_to_json_text(data), encoding="ascii", newline="")
        return [path]
    gammas = data.columns["gamma"]
    if np.isnan(gammas).any():
        raise ValueError("svg output needs a regular grid, not explicit seed lists")
    if len(np.unique(gammas)) == 1:
        path.write_text(render_curves_svg(data), encoding="ascii", newline="")
        return [path]
    written = []
    for measure in measures:
        target = path.with_name(f"{path.stem}_{measure}{path.suffix or '.svg'}")
        target.write_text(render_heatmap_svg(data, measure), encoding="ascii", newline="")
        written.append(target)
    return written
