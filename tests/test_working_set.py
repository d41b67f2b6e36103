"""Working-set guards: the bulk paths' traced peaks stay bounded by their input.

``verify_identities`` keeps its draws whole (32 B a sample) and takes the
closed forms a block at a time; the sweep emitters format a block of rows at a
time and join the blocks' texts once.  A pass that builds its temporaries
for the whole input at once breaks these bounds several times over.
"""

import tracemalloc

import pytest

from duality_lab.oracle import verify_identities
from duality_lab.output import rows_to_csv_text, rows_to_json_text
from duality_lab.sweep import run_sweep, surface_grid


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


@pytest.fixture(scope="module")
def surface_table():
    return run_sweep(surface_grid(8.0, 0.04, 0.01))


@pytest.mark.parametrize("emit", [rows_to_csv_text, rows_to_json_text])
def test_sweep_emitters_peak_within_3_5_times_their_text(emit, surface_table):
    emit(run_sweep(surface_grid(1.0, 0.5, 0.5)))  # lazy set-up first
    text, peak = traced_peak(lambda: emit(surface_table))
    assert peak <= 3.5 * len(text), f"{peak / len(text):.2f} times the text"
