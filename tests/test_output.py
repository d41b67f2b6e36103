import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from duality_lab import output
from duality_lab.analytic import SeedPair
from duality_lab.interferometer import TWO_PI, FringeConfig, FringeScan, simulate_fringe
from duality_lab.output import (
    _SCAN_META_KEYS,
    SCAN_HEADER,
    ScanFormatError,
    _config_from_metadata,
    _heat_colors,
    emit_outputs,
    ingest_scan_csv,
    render_curves_svg,
    render_heatmap_svg,
    rows_to_csv_text,
    rows_to_json_text,
    scan_to_csv_text,
    write_scan_csv,
)
from duality_lab.sweep import SweepTable, explicit_grid, fig2a_grid, run_sweep, surface_grid


# Scalar, per-cell references for the column-wise emitters: the code the
# emitters replaced, kept to check them byte for byte.


def reference_csv_text(table):
    columns = table.columns
    cells = []
    for name, column in columns.items():
        if name == "oracle_residual":
            cells.append(["" if math.isnan(v) else repr(v) for v in column.tolist()])
        else:
            cells.append([repr(v) for v in column.tolist()])
    lines = [",".join(columns)] + [",".join(row) for row in zip(*cells)]
    return "\n".join(lines) + "\n"


def reference_json_text(table):
    columns = table.columns
    records = [
        {name: value if math.isfinite(value) else None for name, value in zip(columns, row)}
        for row in zip(*(column.tolist() for column in columns.values()))
    ]
    return json.dumps(records, indent=2) + "\n"


def reference_heat_color(value):
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


# Per-line references for the chunked scan writer and reader: the code they
# replaced, kept to check them byte for byte and message for message.


def reference_scan_csv_text(scan):
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


def reference_ingest_scan_csv(path):
    text = path.read_bytes().decode("ascii", errors="surrogateescape")
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if text.endswith("\r"):
            text = text[:-1]
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    stray = min((i for i in map(text.find, "\x0b\x0c\x1c\x1d\x1e\r") if i >= 0), default=-1)
    if stray >= 0:
        del lines[text.count("\n", 0, stray) :]
    metadata = {}
    header_seen = False
    thetas, counts = [], []
    last_line = 0
    for lineno, raw in enumerate(lines, start=1):
        last_line = lineno
        if not raw.isascii():
            byte = next(ord(c) - 0xDC00 for c in raw if not c.isascii())
            raise ScanFormatError(f"non-ASCII byte 0x{byte:02x}", lineno)
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
            raise ScanFormatError(f"expected 2 comma-separated cells, got {len(cells)}", lineno)
        try:
            theta = float(cells[0])
            count = float(cells[1])
        except ValueError:
            raise ScanFormatError(f"non-numeric cell in {line!r}", lineno) from None
        if not (math.isfinite(theta) and math.isfinite(count)):
            raise ScanFormatError("non-finite value", lineno)
        if not 0.0 <= theta < 2.0 * math.pi:
            raise ScanFormatError(f"delta_theta {theta!r} outside [0, 2*pi)", lineno)
        if thetas and theta <= thetas[-1]:
            raise ScanFormatError(f"delta_theta {theta!r} not strictly increasing", lineno)
        if count < 0.0:
            raise ScanFormatError(f"negative counts {count!r}", lineno)
        thetas.append(theta)
        counts.append(count)
    if stray >= 0:
        raise ScanFormatError(
            f"stray line-break character 0x{ord(text[stray]):02x}", len(lines) + 1
        )
    if not header_seen:
        raise ScanFormatError("missing header", last_line + 1)
    if not thetas:
        raise ScanFormatError("empty body", last_line + 1)
    return FringeScan(thetas, counts, "ingested", _config_from_metadata(metadata))


def read_outcome(reader, path):
    """What ``reader`` makes of ``path``: the scan's bits and config, or its error."""
    try:
        scan = reader(path)
    except ScanFormatError as exc:
        return ("error", str(exc), exc.line)
    return ("scan", scan.delta_theta.tobytes(), scan.counts.tobytes(), scan.config)


def assert_readers_agree(path):
    """Both readers give the same outcome on ``path``; returns it."""
    outcome = read_outcome(ingest_scan_csv, path)
    assert outcome == read_outcome(reference_ingest_scan_csv, path)
    return outcome


# Values no golden output holds: non-finite, signed zeros, the smallest
# subnormal, NaNs with other payloads and signs, and floats whose shortest
# repr is long or switches to exponent form.
ADVERSARIAL = np.array(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2,
     1.0, -1.5, 1e300, 123456789.123, 1e-300, 2.0**53 + 2.0]
    + np.array([0x7FF8000000000001, -0x0008000000000000], dtype=np.int64)
    .view(np.float64).tolist()
)


def adversarial_table(rng_seed):
    """A valid table whose coordinate and residual columns hold ADVERSARIAL values."""
    rng = np.random.default_rng(rng_seed)
    n = 3 * len(ADVERSARIAL)
    valid = run_sweep(explicit_grid([SeedPair(1 + k / n, 2 - k / n) for k in range(n)]))
    draw = [rng.permutation(np.tile(ADVERSARIAL, 3)) for _ in range(4)]
    return SweepTable(draw[0], draw[1], draw[2], valid.measures, oracle_residual=draw[3])


@pytest.fixture
def small_rows():
    return run_sweep(fig2a_grid(alpha_max=1.0, alpha_step=0.25))


@pytest.fixture
def poisson_scan():
    config = FringeConfig(
        SeedPair(2, 1),
        pump_rate_scale=1e6,
        phase_points=24,
        integration_time=0.01,
        rng_seed=99,
        noise="poisson",
    )
    return simulate_fringe(config)


class TestRowEmitters:
    def test_csv_header_and_shape(self, small_rows):
        text = rows_to_csv_text(small_rows)
        lines = text.splitlines()
        assert lines[0] == "alpha1_abs,alpha2_abs,gamma,D2,P2,E2,C2,F_abs,mu_s2,V"
        assert len(lines) == 1 + len(small_rows)

    def test_single_row_sweep(self):
        rows = run_sweep(explicit_grid([SeedPair(2, 1)]))
        lines = rows_to_csv_text(rows).splitlines()
        assert len(lines) == 2

    def test_csv_roundtrips_at_full_precision(self, small_rows):
        lines = rows_to_csv_text(small_rows).splitlines()
        cells = lines[2].split(",")
        assert float(cells[3]) == small_rows.columns["D2"][1]

    def test_oracle_column_only_when_present(self, small_rows):
        assert "oracle_residual" not in rows_to_csv_text(small_rows)
        rows = run_sweep(explicit_grid([SeedPair(1, 1), SeedPair(9, 9)]), oracle_check=True)
        text = rows_to_csv_text(rows)
        lines = text.splitlines()
        assert lines[0].endswith(",oracle_residual")
        assert lines[2].endswith(",")  # above the cap: empty cell

    def test_json_matches_values(self, small_rows):
        records = json.loads(rows_to_json_text(small_rows))
        assert len(records) == len(small_rows)
        assert records[0]["D2"] == small_rows.columns["D2"][0]
        assert records[3]["V"] == small_rows.columns["V"][3]

    def test_json_nan_gamma_becomes_null(self):
        rows = run_sweep(explicit_grid([SeedPair(0, 1)]))
        records = json.loads(rows_to_json_text(rows))
        assert records[0]["gamma"] is None

    def test_emitters_fail_closed(self, small_rows):
        # an inconsistent table cannot be built, and a built one cannot be edited
        measures = small_rows.measures
        forged = dataclasses.replace(measures, E=measures.E * (1.0 - 1e-6))
        with pytest.raises(ValueError, match="identity"):
            dataclasses.replace(small_rows, measures=forged)
        with pytest.raises(ValueError, match="read-only"):
            small_rows.columns["E2"][0] += 1e-6
        assert rows_to_csv_text(small_rows) == rows_to_csv_text(run_sweep(fig2a_grid(1.0, 0.25)))

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError, match="no rows"):
            rows_to_csv_text([])


class TestColumnEmittersMatchScalarReference:
    @pytest.mark.parametrize("rng_seed", range(4))
    def test_csv_and_json_on_adversarial_columns(self, rng_seed):
        table = adversarial_table(rng_seed)
        assert rows_to_csv_text(table) == reference_csv_text(table)
        assert rows_to_json_text(table) == reference_json_text(table)

    def test_csv_keeps_nan_in_other_columns_and_inf_in_the_residual(self):
        text = rows_to_csv_text(adversarial_table(0))
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert {"nan", "inf", "-inf", "-0.0", "5e-324", "1e+16", "1e-05"} <= {
            row[2] for row in rows
        }
        residuals = {row[-1] for row in rows}
        assert "" in residuals and "inf" in residuals and "nan" not in residuals

    @pytest.mark.parametrize(("grid", "oracle_check"), [
        (fig2a_grid(alpha_max=2.0, alpha_step=0.1), True),
        (surface_grid(alpha_max=3.0, alpha_step=0.25, gamma_step=0.1), False),
    ], ids=["fig2a-oracle", "surface"])
    def test_csv_and_json_on_sweeps(self, grid, oracle_check):
        table = run_sweep(grid, oracle_check=oracle_check)
        assert rows_to_csv_text(table) == reference_csv_text(table)
        assert rows_to_json_text(table) == reference_json_text(table)

    def test_heat_colors(self):
        stops = [0.0, 0.25, 0.5, 0.75, 1.0]
        midpoints = [0.125, 0.375, 0.625, 0.875]  # odd channel steps land on .5
        clamped = [-math.inf, -1.0, -1e-300, -0.0, 1.0 + 1e-16, 1.5, math.inf, math.nan]
        values = stops + midpoints + clamped + np.linspace(-0.1, 1.1, 4801).tolist()
        expected = [reference_heat_color(v) for v in values]
        assert _heat_colors(np.array(values)) == expected
        assert len(set(expected)) > 200


def _scan_like_bytes():
    """Files near the scan format: metadata, header, ordered rows and stray lines,
    so the fuzzer reaches the body and metadata parsers as well as the header.
    Rows may be padded with whitespace and have blank and comment lines among
    them."""
    number = st.one_of(
        st.floats().map(repr),
        st.integers(-(10**20), 10**20).map(str),
        st.text("0123456789.e+-_ nainfINF", max_size=8),
    )
    value = st.one_of(
        number,
        st.complex_numbers().map(repr),
        st.sampled_from(["poisson", "none"]),
        st.text(max_size=8),
    )
    metadata = st.lists(value, min_size=7, max_size=7).map(
        lambda values: [f"# {k}={v}" for k, v in zip(_SCAN_META_KEYS, values)]
    )
    rows = st.dictionaries(
        st.floats(0.0, 6.3), st.one_of(st.floats(0.0, 1e12), st.just(-0.0)), max_size=6
    ).map(lambda points: [f"{t!r},{c!r}" for t, c in sorted(points.items())])
    pad = st.sampled_from(["", " ", "\t", "\x1f"])
    among = st.lists(
        st.tuples(
            st.integers(0, 6),
            st.sampled_from(["", "  ", "#", "# note", "\t# noise = none ", "#x=1,2"]),
        ),
        max_size=3,
    )

    def mix(rows, left, right, among):
        rows = [left + row + right for row in rows]
        for at, line in among:
            rows.insert(at, line)
        return rows

    rows = st.builds(mix, rows, pad, pad, among)
    stray = st.lists(
        st.one_of(st.builds("{},{}".format, number, number), st.text(max_size=12)),
        max_size=4,
    )
    head = st.one_of(st.just([]), metadata)
    body = st.one_of(st.just([]), st.just([SCAN_HEADER]))
    return st.builds(
        lambda *parts: parts[-1].join(sum(parts[:-1], [])).encode("utf-8", "surrogatepass"),
        head, body, rows, stray, st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x1c"]),
    )


def long_scan_lines(rows):
    """The header and ``rows`` valid data rows: row k is on line k + 2."""
    theta = (TWO_PI * np.arange(rows) / rows).tolist()
    return [SCAN_HEADER] + [f"{t!r},{float(k % 7)!r}" for k, t in enumerate(theta)]


def write_lines(path, lines, newline="\n"):
    path.write_bytes((newline.join(lines) + newline).encode("ascii", "surrogateescape"))
    return path


class TestScanCsv:
    def test_roundtrip_points_identical(self, poisson_scan, tmp_path):
        path = tmp_path / "scan.csv"
        write_scan_csv(poisson_scan, path)
        back = ingest_scan_csv(path)
        assert np.array_equal(back.delta_theta, poisson_scan.delta_theta)
        assert np.array_equal(back.counts, poisson_scan.counts)
        assert back.provenance == "ingested"

    def test_metadata_echoed_into_config(self, poisson_scan, tmp_path):
        path = tmp_path / "scan.csv"
        write_scan_csv(poisson_scan, path)
        back = ingest_scan_csv(path)
        assert back.config is not None
        assert back.config.seeds == poisson_scan.config.seeds
        assert back.config.rng_seed == 99
        assert back.config.noise == "poisson"

    def test_reemission_is_byte_identical_on_points(self, poisson_scan, tmp_path):
        path = tmp_path / "scan.csv"
        write_scan_csv(poisson_scan, path)
        back = ingest_scan_csv(path)
        original_rows = scan_to_csv_text(poisson_scan).splitlines()
        round_rows = scan_to_csv_text(back).splitlines()
        header = original_rows.index("delta_theta,counts")
        assert original_rows[header:] == round_rows[round_rows.index("delta_theta,counts"):]

    def test_metadata_optional(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("delta_theta,counts\n0.0,3.0\n1.0,4.0\n")
        scan = ingest_scan_csv(path)
        assert scan.config is None
        assert len(scan) == 2

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("theta,counts\n0.0,3.0\n")
        with pytest.raises(ScanFormatError, match="line 1: malformed header"):
            ingest_scan_csv(path)

    def test_non_numeric_cell_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("delta_theta,counts\n0.0,3.0\n0.5,oops\n")
        with pytest.raises(ScanFormatError, match="line 3: non-numeric"):
            ingest_scan_csv(path)

    def test_crlf_scan_round_trips(self, poisson_scan, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_bytes(scan_to_csv_text(poisson_scan).replace("\n", "\r\n").encode("ascii"))
        back = ingest_scan_csv(path)
        assert np.array_equal(back.delta_theta, poisson_scan.delta_theta)
        assert np.array_equal(back.counts, poisson_scan.counts)
        assert back.config == poisson_scan.config

    @pytest.mark.parametrize("text, line, byte", [
        (b"delta_theta,counts\n0.0,1.0\x0b0.5,x\n", 2, 0x0B),
        (b"delta_theta,counts\n0.0,1.0\r0.5,2.0\n", 2, 0x0D),
        (b"delta_theta,counts\r\n0.0,1.0\r\n0.5,2.0\x0c\r\n", 3, 0x0C),
        (b"# note=a\x1cb\ndelta_theta,counts\n0.0,1.0\n", 1, 0x1C),
        (b"delta_theta,counts\n0.0,1.0\n\x1d\n0.5,2.0\n", 3, 0x1D),
        (b"delta_theta,counts\n0.0,1.0\n0.5,2.0\x1e", 3, 0x1E),
    ])
    def test_stray_line_break_names_its_line(self, tmp_path, text, line, byte):
        # only "\n" ends a line, after one "\r" of a CRLF pair
        path = tmp_path / "bad.csv"
        path.write_bytes(text)
        message = f"line {line}: stray line-break character 0x{byte:02x}"
        with pytest.raises(ScanFormatError, match=message):
            ingest_scan_csv(path)

    def test_fault_before_a_stray_line_break_is_named_first(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"delta_theta,counts\n0.5,oops\n0.7,1.0\x0b\n")
        with pytest.raises(ScanFormatError, match="line 2: non-numeric"):
            ingest_scan_csv(path)

    def test_non_monotone_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("delta_theta,counts\n1.0,3.0\n0.5,4.0\n")
        with pytest.raises(ScanFormatError, match="line 3: .*increasing"):
            ingest_scan_csv(path)

    def test_header_only_is_empty_body(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("delta_theta,counts\n")
        with pytest.raises(ScanFormatError, match="empty body"):
            ingest_scan_csv(path)

    def test_wrong_cell_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("delta_theta,counts\n0.0,3.0,9.0\n")
        with pytest.raises(ScanFormatError, match="line 2: expected 2"):
            ingest_scan_csv(path)

    def test_negative_counts_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("delta_theta,counts\n0.0,-3.0\n")
        with pytest.raises(ScanFormatError, match="negative"):
            ingest_scan_csv(path)

    @settings(
        max_examples=400,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.one_of(st.binary(), _scan_like_bytes()), chunk=st.sampled_from([1, 2, 3, 4096]))
    @example(data=(
        b"# alpha1=(1.7e308+1.7e308j)\n# alpha2=1\n# pump_rate_scale=1\n"
        b"# integration_time=1\n# phase_points=4\n# rng_seed=0\n# noise=none\n"
        b"delta_theta,counts\n0.0,1.0\n"
    ), chunk=4096)
    def test_fuzzed_bytes_give_a_valid_scan_or_a_format_error(
        self, tmp_path, monkeypatch, data, chunk
    ):
        # small chunks put chunk boundaries between every few lines
        monkeypatch.setattr(output, "_SCAN_CHUNK", chunk)
        path = tmp_path / "fuzz.csv"
        path.write_bytes(data)
        outcome = assert_readers_agree(path)
        if outcome[0] == "error":
            assert outcome[2] >= 1
            return
        scan = ingest_scan_csv(path)
        theta, counts = scan.delta_theta, scan.counts
        assert scan.provenance == "ingested" and len(scan) >= 1
        assert np.all(np.isfinite(theta)) and np.all(np.isfinite(counts))
        assert theta[0] >= 0.0 and theta[-1] < TWO_PI
        assert np.all(np.diff(theta) > 0.0) and np.all(counts >= 0.0)
        assert scan.config is None or isinstance(scan.config, FringeConfig)


CHUNK = output._SCAN_CHUNK


class TestChunkedScanReader:
    """Pinned cases at chunk boundaries; each also matches the per-line reference."""

    @pytest.mark.parametrize("line", [CHUNK, CHUNK + 1])
    @pytest.mark.parametrize("fault, message", [
        ("0.5,x", "non-numeric cell in '0.5,x'"),
        ("0.5", "expected 2 comma-separated cells, got 1"),
        ("0.5,1,2", "expected 2 comma-separated cells, got 3"),
        ("inf,1.0", "non-finite value"),
        ("6.5,1.0", "delta_theta 6.5 outside [0, 2*pi)"),
        ("0.0,1.0", "delta_theta 0.0 not strictly increasing"),
        ("{theta},-2.0", "negative counts -2.0"),
        ("{theta},1.0\udce9", "non-ASCII byte 0xe9"),
    ], ids=["non-numeric", "one-cell", "three-cells", "non-finite", "range",
            "increasing", "negative", "non-ascii"])
    def test_fault_on_the_last_and_first_line_of_a_chunk(self, tmp_path, line, fault, message):
        lines = long_scan_lines(2 * CHUNK)
        theta = lines[line - 1].split(",")[0]
        lines[line - 1] = fault.format(theta=theta)
        path = write_lines(tmp_path / "scan.csv", lines)
        assert assert_readers_agree(path) == ("error", f"line {line}: {message}", line)

    @pytest.mark.parametrize("line", [1, CHUNK, CHUNK + 1])
    def test_header_on_a_chunk_boundary(self, tmp_path, line):
        head = ["# note"] * (line - 1)
        path = write_lines(tmp_path / "scan.csv", head + long_scan_lines(CHUNK))
        assert assert_readers_agree(path)[0] == "scan"
        bad = write_lines(tmp_path / "bad.csv", head + ["theta,counts"])
        expected = f"line {line}: malformed header: expected 'delta_theta,counts', got 'theta,counts'"
        assert assert_readers_agree(bad) == ("error", expected, line)

    def test_blank_and_comment_lines_inside_the_body(self, tmp_path):
        lines = long_scan_lines(3 * CHUNK)
        plain = read_outcome(ingest_scan_csv, write_lines(tmp_path / "plain.csv", lines))
        for at in (3 * CHUNK, 2 * CHUNK + 1, CHUNK + 1, CHUNK, CHUNK - 1, 5, 2):
            lines.insert(at, ("", "   ", "# noise=none", "#", "\t#k=v\x1f")[at % 5])
        mixed = write_lines(tmp_path / "mixed.csv", lines)
        assert assert_readers_agree(mixed)[:3] == plain[:3]

    def test_crlf_scan_longer_than_a_chunk(self, tmp_path):
        config = FringeConfig(SeedPair(2, 1), 1e6, 2 * CHUNK + 5, 0.01, 3, "poisson")
        scan = simulate_fringe(config)
        path = tmp_path / "scan.csv"
        path.write_bytes(scan_to_csv_text(scan).replace("\n", "\r\n").encode("ascii"))
        assert assert_readers_agree(path) == (
            "scan", scan.delta_theta.tobytes(), scan.counts.tobytes(), config
        )
        # a final "\r" with no "\n" after it is dropped as well
        path.write_bytes(path.read_bytes()[:-1])
        assert assert_readers_agree(path)[0] == "scan"

    def test_stray_vertical_tab_in_a_later_chunk(self, tmp_path):
        lines = long_scan_lines(3 * CHUNK)
        line = 2 * CHUNK + 3
        lines[line - 1] += "\x0b"
        path = write_lines(tmp_path / "scan.csv", lines, "\r\n")
        expected = f"line {line}: stray line-break character 0x0b"
        assert assert_readers_agree(path) == ("error", expected, line)
        # an earlier fault, in an earlier chunk, is named first
        lines[CHUNK - 1] = "oops"
        path = write_lines(tmp_path / "scan.csv", lines, "\r\n")
        assert assert_readers_agree(path)[2] == CHUNK

    def test_phase_stops_increasing_at_a_chunk_boundary(self, tmp_path):
        lines = long_scan_lines(2 * CHUNK)
        # line CHUNK ends chunk 1; line CHUNK + 1 repeats its phase
        theta = lines[CHUNK - 1].split(",")[0]
        lines[CHUNK] = f"{theta},3.0"
        path = write_lines(tmp_path / "scan.csv", lines)
        expected = f"line {CHUNK + 1}: delta_theta {theta} not strictly increasing"
        assert assert_readers_agree(path) == ("error", expected, CHUNK + 1)

    def test_count_fault_in_chunk_one_before_non_ascii_in_chunk_two(self, tmp_path):
        lines = long_scan_lines(2 * CHUNK)
        theta = lines[CHUNK - 4].split(",")[0]
        lines[CHUNK - 4] = f"{theta},-1.0"
        lines[CHUNK + 1] = "caf\udce9"
        path = write_lines(tmp_path / "scan.csv", lines)
        expected = f"line {CHUNK - 3}: negative counts -1.0"
        assert assert_readers_agree(path) == ("error", expected, CHUNK - 3)


class TestChunkedScanWriter:
    @pytest.mark.parametrize("points", [1, CHUNK - 1, CHUNK, CHUNK + 1, 100_000])
    def test_bytes_match_the_per_line_reference(self, points):
        rng = np.random.default_rng(points)
        theta = TWO_PI * np.arange(points) / points
        # signed zeros, integers and non-integers, tiny and huge counts
        counts = rng.choice([-0.0, 0.0, 1.0, 40183.0, 0.1 + 0.2, 5e-324, 1e300], points)
        scan = FringeScan(theta, counts, "simulated")
        assert scan_to_csv_text(scan) == reference_scan_csv_text(scan)

    @pytest.mark.parametrize("noise", ["none", "poisson"])
    def test_simulated_scans_match_the_per_line_reference(self, noise):
        config = FringeConfig(SeedPair(1.5 - 0.5j, 0.7), 1e6, CHUNK + 1, 0.01, 4, noise)
        scan = simulate_fringe(config)
        assert scan_to_csv_text(scan) == reference_scan_csv_text(scan)


class TestSvg:
    def test_curves_have_six_polylines(self, small_rows):
        svg = render_curves_svg(small_rows)
        assert svg.count("<polyline") == 6
        for label in ("D^2", "P^2", "E^2", "C^2", "|F|", "mu_s^2"):
            assert label in svg

    def test_curve_output_deterministic(self, small_rows):
        assert render_curves_svg(small_rows) == render_curves_svg(small_rows)

    def test_heatmap_complete_grid_required(self, small_rows):
        rows = run_sweep(
            explicit_grid([SeedPair(1, 1), SeedPair(2, 1), SeedPair(2, 0.5)])
        )
        with pytest.raises(ValueError, match="rectangular"):
            render_heatmap_svg(rows, "C")
        surf = run_sweep(surface_grid(alpha_max=1.0, alpha_step=0.5, gamma_step=0.25))
        svg = render_heatmap_svg(surf, "C")
        assert svg.count("<rect") > len(surf)

    def test_heatmap_rejects_a_repeated_cell(self):
        # 2 gammas x 2 alphas and 4 rows, but (0.5, 1.0) twice and (1.0, 2.0) missing
        valid = run_sweep(explicit_grid([SeedPair(k + 1, 1) for k in range(4)]))
        table = SweepTable(
            valid.columns["alpha1_abs"],
            np.array([1.0, 2.0, 1.0, 1.0]),
            np.array([0.5, 0.5, 1.0, 1.0]),
            valid.measures,
        )
        with pytest.raises(ValueError, match=r"complete rectangular gamma-\|alpha\| grid"):
            render_heatmap_svg(table, "C")

    def test_unknown_measure_rejected(self):
        surf = run_sweep(surface_grid(alpha_max=1.0, alpha_step=0.5, gamma_step=0.5))
        with pytest.raises(ValueError, match="unknown measure"):
            render_heatmap_svg(surf, "alpha1_abs")


class TestEmitOutputs:
    def test_rows_csv_and_json(self, small_rows, tmp_path):
        for fmt in ("csv", "json"):
            out = tmp_path / f"rows.{fmt}"
            written = emit_outputs(small_rows, fmt, out)
            assert written == [out]
            assert out.read_bytes()

    def test_rows_svg_curves(self, small_rows, tmp_path):
        out = tmp_path / "curves.svg"
        assert emit_outputs(small_rows, "svg", out) == [out]

    def test_rows_svg_surface_writes_one_file_per_measure(self, tmp_path):
        rows = run_sweep(surface_grid(alpha_max=1.0, alpha_step=0.5, gamma_step=0.5))
        written = emit_outputs(rows, "svg", tmp_path / "surface.svg")
        assert [p.name for p in written] == ["surface_C.svg", "surface_V.svg"]

    def test_explicit_rows_svg_rejected(self, tmp_path):
        rows = run_sweep(explicit_grid([SeedPair(0, 1), SeedPair(2, 1)]))
        with pytest.raises(ValueError, match="regular grid"):
            emit_outputs(rows, "svg", tmp_path / "x.svg")

    def test_unknown_format(self, small_rows, tmp_path):
        with pytest.raises(ValueError, match="format"):
            emit_outputs(small_rows, "xml", tmp_path / "rows.xml")

    def test_determinism_byte_identical(self, small_rows, poisson_scan, tmp_path):
        for fmt in ("csv", "json", "svg"):
            a = tmp_path / f"a.{fmt}"
            b = tmp_path / f"b.{fmt}"
            emit_outputs(small_rows, fmt, a)
            emit_outputs(small_rows, fmt, b)
            assert a.read_bytes() == b.read_bytes()
        a = tmp_path / "scan_a.csv"
        b = tmp_path / "scan_b.csv"
        write_scan_csv(poisson_scan, a)
        write_scan_csv(poisson_scan, b)
        assert a.read_bytes() == b.read_bytes()
