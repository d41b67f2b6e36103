"""File emitters and ingestion: sweep tables and fringe scans.

Formats are deliberately boring: CSV with full-precision floats (``repr``
round-trips exactly), JSON arrays of records with the same field names, and
hand-rolled static SVG for the two figure styles (measure curves versus
|alpha|, and gamma-|alpha| heat maps).  All emitters produce byte-identical
output for identical input.

The sweep emitters work on whole columns.  Each distinct float of a column
is formatted once, JSON records are filled from one template, and heat-map
cells are placed by index arithmetic with colours from one vectorised ramp.
The bytes are those of formatting every cell on its own: ``repr`` per CSV
cell, and ``json.dumps(records, indent=2)`` with non-finite values as null.

The fringe-scan CSV format is the toolkit's one wire format::

    # alpha1=(2+0j)          <- optional key=value metadata comments
    # noise=poisson
    delta_theta,counts       <- mandatory header
    0.0,40183.0              <- radians, raw counts per row

Ingestion is strict: a non-ASCII byte, malformed header, non-numeric cell,
non-monotone phase column or empty body is rejected with the offending line
number.

Both scan ends work on chunks.  The writer formats whole columns a block of
rows at a time, and the reader parses a chunk of lines at a time: it
classifies the lines, parses every cell with ``float`` into one array and
runs each check over the chunk.  The bytes, values, messages and line numbers
are those of handling one row at a time.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .analytic import SeedPair
from .interferometer import TWO_PI, FringeConfig, FringeScan
from .sweep import ORACLE_RESIDUAL_FIELD, ROW_FIELDS, SweepTable

SCAN_HEADER = "delta_theta,counts"

# Rows per block of the scan writer and lines per chunk of the scan reader.
_SCAN_CHUNK = 4096

# Line breaks of str.splitlines other than "\n" and a CRLF pair's "\r"; the
# non-ASCII ones are already rejected as non-ASCII bytes.
_STRAY_LINE_BREAKS = (b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e", b"\r")

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
    """The scan as CSV text: optional metadata comments, the header, then rows.

    Each block of ``_SCAN_CHUNK`` rows is formatted with one ``repr`` of each
    column's values, which gives every cell the text ``repr(float(value))``.
    """
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
    for start in range(0, len(scan), _SCAN_CHUNK):
        block = slice(start, start + _SCAN_CHUNK)
        thetas = repr(scan.delta_theta[block].tolist())[1:-1].split(", ")
        counts = repr(scan.counts[block].tolist())[1:-1].split(", ")
        lines.append("\n".join(map(",".join, zip(thetas, counts))))
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


def _row_fault(theta: float, count: float, previous: float) -> str:
    """The message of a data row that fails a value check, for its first failure."""
    if not (math.isfinite(theta) and math.isfinite(count)):
        return "non-finite value"
    if not 0.0 <= theta < TWO_PI:
        return f"delta_theta {theta!r} outside [0, 2*pi)"
    if theta <= previous:
        return f"delta_theta {theta!r} not strictly increasing"
    return f"negative counts {count!r}"


class _ScanReader:
    """A scan read chunk by chunk, and what it carries from one chunk to the next."""

    def __init__(self):
        self.lines_read = 0
        self.header_seen = False
        self.metadata: dict = {}
        self.last_theta = np.array([-math.inf])  # no row yet: any phase increases
        self.rows: list[np.ndarray] = []

    def read_chunk(self, chunk: bytes) -> None:
        """Check and keep one chunk of whole lines; raise at its earliest fault.

        Each check runs over the whole chunk, on the lines that passed every
        earlier check: a fault found on line ``limit`` cuts the lines that
        later checks see to those before it.  So the line named is the
        earliest faulting one, and its message is that of the first check it
        fails, in the order of the checks below.
        """
        # A line ends at "\n" only, after one "\r" of a CRLF pair.  The file's
        # unterminated last line, the only one that can end a chunk without
        # "\n", also loses one trailing "\r".
        if b"\r" in chunk:
            chunk = chunk.replace(b"\r\n", b"\n")
            if chunk.endswith(b"\r"):
                chunk = chunk[:-1]
        message = None
        stray = min((i for i in map(chunk.find, _STRAY_LINE_BREAKS) if i >= 0), default=-1)
        if stray >= 0:
            message = f"stray line-break character 0x{chunk[stray]:02x}"
            chunk = chunk[: chunk.rfind(b"\n", 0, stray) + 1]
        if not chunk.isascii():
            at = int(np.argmax(np.frombuffer(chunk, np.uint8) >= 0x80))
            message = f"non-ASCII byte 0x{chunk[at]:02x}"
            chunk = chunk[: chunk.rfind(b"\n", 0, at) + 1]
        lines = chunk.decode("ascii").split("\n")
        if not lines[-1]:
            lines.pop()
        limit = len(lines)  # the faulting line, or past the last one
        stripped = list(map(str.strip, lines))

        # Classify the lines by the first byte of each stripped one ("\n" when
        # blank), and count the commas between their line breaks.
        joined = np.frombuffer(("\n" + "\n".join(stripped) + "\n").encode("ascii"), np.uint8)
        breaks = (joined == 0x0A).nonzero()[0]
        head = joined[breaks[:limit] + 1]
        comment = head == 0x23
        data = (head != 0x0A) & ~comment
        commas = np.searchsorted((joined == 0x2C).nonzero()[0], breaks)
        widths = (commas[1:] - commas[:-1] + 1)[:limit]

        if not self.header_seen and data.any():
            k = int(data.argmax())
            if stripped[k] != SCAN_HEADER:
                limit = k
                message = f"malformed header: expected {SCAN_HEADER!r}, got {stripped[k]!r}"
            self.header_seen = True
            data[: k + 1] = False
        data[limit:] = False
        bad = (data & (widths != 2)).nonzero()[0]
        if bad.size:
            limit = int(bad[0])
            message = f"expected 2 comma-separated cells, got {widths[limit]}"
            data[limit:] = False
        at = data.nonzero()[0]

        cells = ",".join(itertools.compress(stripped, data.tolist())).split(",") if at.size else []
        source = iter(cells)
        try:
            values = np.fromiter(map(float, source), np.float64, len(cells))
        except ValueError:
            # the cell that raised is the last one map took from ``source``
            k = (len(cells) - operator.length_hint(source) - 1) // 2
            limit, message = int(at[k]), f"non-numeric cell in {stripped[at[k]]!r}"
            values = np.fromiter(map(float, cells[: 2 * k]), np.float64, 2 * k)
        rows = values.reshape(-1, 2)
        theta, counts = rows[:, 0], rows[:, 1]
        previous = np.concatenate((self.last_theta, theta[:-1]))
        # NaN fails every comparison, and an infinite phase the range
        valid = (
            (theta >= 0.0) & (theta < TWO_PI) & (theta > previous)
            & (counts >= 0.0) & (counts < math.inf)
        )
        if not valid.all():
            k = int(valid.argmin())
            limit = int(at[k])
            message = _row_fault(float(theta[k]), float(counts[k]), float(previous[k]))
        if message is not None:
            raise ScanFormatError(message, self.lines_read + limit + 1)

        if len(rows):
            self.rows.append(rows)
            self.last_theta = theta[-1:]
        for line in itertools.compress(stripped, comment.tolist()):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                self.metadata[key.strip()] = value.strip()
        self.lines_read += len(lines)

    def finish(self) -> FringeScan:
        if not self.header_seen:
            raise ScanFormatError("missing header", self.lines_read + 1)
        if not self.rows:
            raise ScanFormatError("empty body", self.lines_read + 1)
        rows = np.concatenate(self.rows)
        config = _config_from_metadata(self.metadata)
        return FringeScan(rows[:, 0], rows[:, 1], "ingested", config)


def ingest_scan_csv(path) -> FringeScan:
    """Parse a fringe-scan CSV file; metadata comments are optional.

    The file is read ``_SCAN_CHUNK`` lines at a time, and a line ends at
    ``"\\n"`` only.  The earliest faulting line raises ``ScanFormatError``
    with its 1-based number.  The returned scan always carries provenance
    ``"ingested"``; when the metadata block is complete it is echoed back as
    the scan's config.
    """
    reader = _ScanReader()
    with open(path, "rb") as file:
        while lines := list(itertools.islice(file, _SCAN_CHUNK)):
            reader.read_chunk(b"".join(lines))
    return reader.finish()


# ---------------------------------------------------------------------------
# sweep tables


def _table_columns(table: SweepTable) -> dict:
    if not len(table):
        raise ValueError("no rows to emit")
    return table.columns


def _float_cells(column: np.ndarray, marker: str, marked) -> list[str]:
    """The ``repr`` text of each value of ``column``, as the scalar emitters wrote it.

    Each distinct bit pattern is formatted once (so ``-0.0`` and ``0.0`` stay
    apart), and the distinct values for which ``marked`` holds read ``marker``.
    """
    keys, inverse = np.unique(column.view(np.int64), return_inverse=True)
    values = keys.view(np.float64)
    texts = np.array(repr(values.tolist())[1:-1].split(", "), dtype=object)
    if marked is not None:
        texts[marked(values)] = marker
    return texts[inverse].tolist()


def _nonfinite(values: np.ndarray) -> np.ndarray:
    return ~np.isfinite(values)


def rows_to_csv_text(table: SweepTable) -> str:
    columns = _table_columns(table)
    cells = [
        # NaN marks a point above the oracle cap: an empty cell
        _float_cells(column, "", np.isnan if name == ORACLE_RESIDUAL_FIELD else None)
        for name, column in columns.items()
    ]
    lines = [",".join(columns)]
    lines.extend(map(",".join, zip(*cells)))
    return "\n".join(lines) + "\n"


def rows_to_json_text(table: SweepTable) -> str:
    """The table as ``json.dumps(records, indent=2)`` writes it, non-finite as null."""
    columns = _table_columns(table)
    record = (
        "  {\n"
        + ",\n".join(f"    {json.dumps(name)}: %s" for name in columns)
        + "\n  }"
    )
    cells = [_float_cells(column, "null", _nonfinite) for column in columns.values()]
    return "[\n" + ",\n".join(map(record.__mod__, zip(*cells))) + "\n]\n"


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


def render_curves_svg(table: SweepTable) -> str:
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

    parts = _svg_header(width, height, "duality measures")
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


# A small fixed color ramp from dark blue to yellow over [0, 1].
_HEAT_STOPS = np.array((0.00, 0.25, 0.50, 0.75, 1.00))
_HEAT_RGB = np.array(
    ((68, 1, 84), (59, 82, 139), (33, 145, 140), (94, 201, 98), (253, 231, 37))
)


def _heat_colors(values: np.ndarray) -> list[str]:
    """``#rrggbb`` of each value on the ramp; values are clamped to [0, 1], NaN to 0."""
    values = np.fmin(np.fmax(values, 0.0), 1.0)
    # segment k spans stops k..k+1; a value on a stop takes the lower segment
    k = np.maximum(np.searchsorted(_HEAT_STOPS, values) - 1, 0)
    lo, hi = _HEAT_STOPS[k], _HEAT_STOPS[k + 1]
    frac = ((values - lo) / (hi - lo))[:, None]
    lo_rgb, hi_rgb = _HEAT_RGB[k], _HEAT_RGB[k + 1]
    rgb = np.rint(lo_rgb + frac * (hi_rgb - lo_rgb)).astype(np.int64)
    codes, inverse = np.unique(rgb @ (65536, 256, 1), return_inverse=True)
    texts = np.array([f"#{code:06x}" for code in codes.tolist()], dtype=object)
    return texts[inverse].tolist()


def render_heatmap_svg(table: SweepTable, measure: str) -> str:
    """One gamma-|alpha| heat map of ``measure`` on the fixed [0, 1] scale."""
    columns = _table_columns(table)
    if measure == "C":
        values = np.sqrt(columns["C2"])
    elif measure in ROW_FIELDS[3:]:
        values = columns[measure]
    else:
        raise ValueError(f"unknown measure {measure!r} for heat map")
    point_gamma = columns["gamma"]
    point_alpha = columns["alpha2_abs"]
    gammas, gamma_index = np.unique(point_gamma, return_inverse=True)
    alphas, alpha_index = np.unique(point_alpha, return_inverse=True)
    cell = gamma_index * len(alphas) + alpha_index
    if (
        np.isnan(point_gamma).any()
        or len(table) != len(gammas) * len(alphas)
        or np.unique(cell).size != len(cell)
    ):
        raise ValueError("heat map needs a complete rectangular gamma-|alpha| grid")
    grid = np.empty(len(cell))
    grid[cell] = values
    gammas = gammas.tolist()
    alphas = alphas.tolist()
    width, height = 760, 620
    left, right, top, bottom = 90.0, 640.0, 50.0, 560.0
    cell_w = (right - left) / len(gammas)
    cell_h = (bottom - top) / len(alphas)
    parts = _svg_header(width, height, f"{measure} over seed ratio and magnitude")
    # gamma-major, |alpha| minor, as the cells of ``grid``
    x_open = [f'<rect x="{left + i * cell_w:.2f}" y="' for i in range(len(gammas))]
    y_fill = [
        f'{bottom - (j + 1) * cell_h:.2f}" width="{cell_w:.2f}" '
        f'height="{cell_h:.2f}" fill="'
        for j in range(len(alphas))
    ]
    parts.extend(
        x + y + color + '"/>'
        for (x, y), color in zip(itertools.product(x_open, y_fill), _heat_colors(grid))
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
    bar_colors = _heat_colors((np.arange(steps) + 0.5) / steps)
    for k, color in enumerate(bar_colors):
        y = bottom - (k + 1) / steps * (bottom - top)
        parts.append(
            f'<rect x="{bar_x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" '
            f'height="{(bottom - top) / steps:.2f}" fill="{color}"/>'
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
    data: SweepTable,
    format: str,
    path,
    measures: Iterable[str] = DEFAULT_SURFACE_MEASURES,
) -> list[Path]:
    """Write the sweep table ``data`` to ``path`` as csv, json or svg.

    Returns the paths written.  svg picks curve or heat-map layout from the
    grid shape; heat maps write one file per selected measure, named
    ``<stem>_<measure>.svg``.  Identical input produces identical bytes.
    """
    if format not in ("csv", "json", "svg"):
        raise ValueError(f"format must be csv, json or svg, got {format!r}")
    path = Path(path)

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
