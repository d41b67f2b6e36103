"""The benchmark's traced runs find every function they look up by name.

``perfbench/spans.py`` derives its per-layer metrics from spans named after
the package's public functions (``fock.coherent_state``, ``oracle.build_composite``
and others) and raises ``KeyError`` when one of them is renamed or removed.
"""

import importlib
from pathlib import Path

import pytest

from duality_lab import oracle

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
