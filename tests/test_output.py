import dataclasses
import json
import math

import numpy as np
import pytest

from duality_lab.analytic import SeedPair
from duality_lab.interferometer import FringeConfig, FringeScan, simulate_fringe
from duality_lab.output import (
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
from duality_lab.sweep import explicit_grid, fig2a_grid, run_sweep, surface_grid


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
        rows = run_sweep(explicit_grid([SeedPair(1, 1), SeedPair(9, 9)], oracle_check=True))
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
