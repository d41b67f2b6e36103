"""Working-set guards: the bulk paths' traced peaks stay bounded by their input.

``build_composite`` builds each seed's factors at that seed's own cutoff;
``verify_identities`` keeps its draws whole (32 B a sample) and takes the
closed forms a block at a time; the sweep emitters format a block of rows at a
time and join the blocks' texts once.  The file writers write each block's
text before they make the next, so their peaks are a fraction of the file.
The fringe path simulates, reads and fits a scan a chunk at a time, so a scan
costs its two arrays and one chunk.  A pass that builds its temporaries, or a
file's text, for the whole input at once breaks these bounds several times
over.
"""

import tokenize
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from duality_lab import output
from duality_lab.analytic import SeedPair
from duality_lab.fock import cutoffs_for_means
from duality_lab.interferometer import FringeConfig, fit_fringe, simulate_fringe
from duality_lab.oracle import build_composite, verify_identities
from duality_lab.output import (
    emit_outputs,
    ingest_scan_csv,
    rows_to_csv_text,
    rows_to_json_text,
    write_scan_csv,
)
from duality_lab.sweep import fig2a_grid, run_sweep, surface_grid


def traced_peak(call):
    """``call()``'s result and the peak bytes it held under ``tracemalloc``."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def test_verify_peaks_within_48_bytes_a_sample():
    samples = 1_000_000
    verify_identities(100, rng_seed=1)  # lazy imports and caches first
    report, peak = traced_peak(lambda: verify_identities(samples, rng_seed=1))
    assert report.all_passed
    assert peak <= 48 * samples, f"{peak / samples:.1f} B a sample"


@pytest.mark.parametrize(
    ("pair", "bound"),
    [
        # a seed beside |alpha| = 1000 holds its own 17 levels, not 1,007,045
        ((1000, 0.5), 3.5),
        # two such seeds: ``Segments.levels`` spans both seeds' levels, and
        # the peak reads 2.53 times the factors
        ((1000, 999.5), 2.55),
    ],
)
def test_oracle_peaks_within_a_bound_times_its_per_seed_factors(pair, bound):
    # two rows, coherent and photon-added, of 16 B levels 0 .. each seed's cutoff
    factor_bytes = 2 * 16 * int(np.sum(cutoffs_for_means(np.square(pair)) + 1))
    build_composite([pair])  # the Stirling heads' cache first
    _, peak = traced_peak(lambda: build_composite([pair]))
    assert peak <= bound * factor_bytes, f"{peak / factor_bytes:.2f} times the factors"


@pytest.fixture(scope="module")
def surface_table():
    return run_sweep(surface_grid(8.0, 0.04, 0.01))


@pytest.mark.parametrize("emit", [rows_to_csv_text, rows_to_json_text])
def test_sweep_emitters_peak_within_3_5_times_their_text(emit, surface_table):
    emit(run_sweep(surface_grid(1.0, 0.5, 0.5)))  # lazy set-up first
    text, peak = traced_peak(lambda: emit(surface_table))
    assert peak <= 3.5 * len(text), f"{peak / len(text):.2f} times the text"


def written_peak(write, warm_up):
    """The peak bytes ``write()`` held, over the size of the largest file it wrote."""
    warm_up()  # lazy set-up first
    paths, peak = traced_peak(write)
    return peak / max(path.stat().st_size for path in paths)


@pytest.mark.parametrize(("fmt", "bound"), [("csv", 0.75), ("json", 0.75), ("svg", 2.5)])
def test_sweep_files_peak_within_a_bound_times_their_size(fmt, bound, surface_table, tmp_path):
    small = run_sweep(surface_grid(1.0, 0.5, 0.5))
    ratio = written_peak(
        lambda: emit_outputs(surface_table, fmt, tmp_path / f"surface.{fmt}"),
        lambda: emit_outputs(small, fmt, tmp_path / f"small.{fmt}"),
    )
    assert ratio <= bound, f"{ratio:.2f} times the file"


def test_curve_svg_peaks_within_its_size(tmp_path):
    table = run_sweep(fig2a_grid(6.0, 6e-4))
    small = run_sweep(fig2a_grid(1.0, 0.5))
    ratio = written_peak(
        lambda: emit_outputs(table, "svg", tmp_path / "curves.svg"),
        lambda: emit_outputs(small, "svg", tmp_path / "small.svg"),
    )
    assert ratio <= 1.0, f"{ratio:.2f} times the file"


def test_scan_csv_peaks_within_0_75_times_its_size(tmp_path):
    def scan(points):
        return simulate_fringe(FringeConfig(SeedPair(2, 1), 1e6, points, 0.01, 3, "poisson"))

    long_scan, short_scan = scan(100_000), scan(10)
    ratio = written_peak(
        lambda: [write_scan_csv(long_scan, tmp_path / "long.csv")],
        lambda: [write_scan_csv(short_scan, tmp_path / "short.csv")],
    )
    assert ratio <= 0.75, f"{ratio:.2f} times the file"


def poisson_scan(points):
    return simulate_fringe(FringeConfig(SeedPair(3 + 1j, 0.2 - 0.1j), 1e6, points, 0.01, 9, "poisson"))


def scan_bytes(scan):
    return scan.delta_theta.nbytes + scan.counts.nbytes


SCAN_POINTS = [100_000, 400_000]


@pytest.mark.parametrize("points", SCAN_POINTS)
def test_simulation_peaks_within_1_25_times_its_arrays(points):
    poisson_scan(10)  # lazy set-up first
    scan, peak = traced_peak(lambda: poisson_scan(points))
    assert peak <= 1.25 * scan_bytes(scan), f"{peak / scan_bytes(scan):.2f} times the arrays"


@pytest.mark.parametrize("points", SCAN_POINTS)
def test_ingest_peaks_within_2_25_times_its_arrays(points, tmp_path):
    path = write_scan_csv(poisson_scan(points), tmp_path / "long.csv")
    ingest_scan_csv(write_scan_csv(poisson_scan(10), tmp_path / "short.csv"))  # lazy set-up first
    scan, peak = traced_peak(lambda: ingest_scan_csv(path))
    assert peak <= 2.25 * scan_bytes(scan), f"{peak / scan_bytes(scan):.2f} times the arrays"


@pytest.mark.parametrize("points", SCAN_POINTS)
def test_fit_peaks_within_half_a_megabyte_whatever_the_length(points):
    scan = poisson_scan(points)
    fit_fringe(poisson_scan(10))  # lazy set-up first
    _, peak = traced_peak(lambda: fit_fringe(scan))
    assert peak <= 500_000, f"{peak / 1e6:.2f} MB"


MODULES = sorted(Path(output.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("module", MODULES, ids=[module.name for module in MODULES])
def test_module_stays_under_the_parser_step(module):
    # CPython 3.11 compiles a module of more than about 4,096 tokens with
    # 0.24 MB more peak memory, which every CLI process pays when no bytecode
    # cache is written; it showed in peak RSS (see CHANGES.md).
    with open(module, "rb") as file:
        kinds = [token.type for token in tokenize.tokenize(file.readline)]
    count = sum(kind not in (tokenize.NL, tokenize.COMMENT) for kind in kinds)
    assert count < 4096, f"{count} tokens"
