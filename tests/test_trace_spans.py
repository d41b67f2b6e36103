"""The benchmark's traced runs find every function they look up by name.

``perfbench/spans.py`` derives its per-layer metrics from spans named after
the package's public functions (``fock.coherent_state``, ``oracle.build_composite``
and others) and raises ``KeyError`` when one of them is renamed or removed.
"""

import importlib
from pathlib import Path

import pytest

from duality_lab import oracle, sweep

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def test_every_metric_finds_its_spans(spans):
    metrics = spans.Recorder().metrics(1)
    assert set(metrics) <= set(spans.PER_LAYER_UNITS)
    assert all(value == 0.0 for value in metrics.values())


def test_the_oracle_builds_its_states_in_traced_functions(spans):
    recorder = spans.Recorder()
    recorder.install()
    try:
        oracle.build_composite([(1.0, 2.0), (0.5j, 3.0)])
    finally:
        recorder.uninstall()
    metrics = recorder.metrics(1)
    assert metrics["fock.states.self_s"] > 0.0
    assert metrics["oracle.build_composite.self_s"] > 0.0


def test_the_sweep_counts_its_rows_and_skipped_points(spans):
    # the counter reads the grid's point_count(); gamma 0.5 and 1 against
    # |alpha| 0, 0.5 and 1, where the two |alpha| = 0 points are skipped
    grid = sweep.surface_grid(alpha_max=1.0, alpha_step=0.5, gamma_step=0.5)
    recorder = spans.Recorder()
    recorder.install()
    try:
        sweep.run_sweep(grid)
    finally:
        recorder.uninstall()
    metrics = recorder.metrics(1)
    assert (metrics["sweep.rows"], metrics["sweep.skipped_points"]) == (4, 2)
