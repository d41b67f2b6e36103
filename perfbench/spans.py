"""Traced runs: spans around the package's public functions, and the per-layer
metrics derived from them.

``Recorder.install`` replaces every public function of the traced modules by
a wrapper, under its own module attribute and under every name another module
of the package imported it as (``cli`` imports ``run_sweep``, ``sweep``
imports ``complementarity_measures``).  Calls inside a module go through its
globals, so they are traced too.  Spans are kept in flat arrays in memory and
written out when the run ends.  A span's self time is its duration minus the
durations of its direct children; calls are synchronous, so children nest.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import re
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("cli", "sweep", "analytic", "oracle", "fock", "interferometer", "output")

# Per-layer metrics, in report order, with their units.  Times and counts are
# per traced round; cutoff_max, ratios and import time are not.
PER_LAYER_UNITS = {
    "cli.calls": "count",
    "cli.self_s": "s",
    "sweep.run_sweep.self_s": "s",
    "sweep.rows": "count",
    "sweep.skipped_points": "count",
    "analytic.complementarity_measures.calls": "count",
    "analytic.complementarity_measures.self_s": "s",
    "oracle.build_composite.self_s": "s",
    "oracle.measures_from_state.self_s": "s",
    "oracle.verify_identities.self_s": "s",
    "oracle.points_failed": "count",
    "fock.choose_cutoff.self_s": "s",
    "fock.cutoff_candidates": "count",
    "fock.cutoff_useful_ratio": "ratio",
    "fock.cutoff_max": "count",
    "fock.states.self_s": "s",
    "fock.tensor_product.self_s": "s",
    "fock.tensor_bytes": "bytes",
    "fock.inner_product.self_s": "s",
    "fock.import_s": "s",
    "interferometer.simulate_fringe.self_s": "s",
    "interferometer.fit_fringe.self_s": "s",
    "interferometer.points": "count",
    "output.rows_to_csv_text.self_s": "s",
    "output.rows_to_json_text.self_s": "s",
    "output.render_heatmap_svg.self_s": "s",
    "output.scan_to_csv_text.self_s": "s",
    "output.ingest_scan_csv.self_s": "s",
    "output.bytes_written": "bytes",
    "output.bytes_read": "bytes",
    "trace.overhead_ratio": "ratio",
}

FOCK_STATES = ("fock.coherent_state", "fock.spacs_state", "fock.apply_creation")
COMPLEX_BYTES = 16


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Recorder:
    """Spans and counts of the traced rounds of one run."""

    def __init__(self):
        self.modules = {layer: importlib.import_module(f"duality_lab.{layer}") for layer in LAYERS}
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.request_id = -1
        self.counts: Counter = Counter()
        self.cutoff_max = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (module, attribute, original, wrapper)
        wrappers = {}
        for layer, module in self.modules.items():
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrappers[fn] = self._wrap(fn, f"{layer}.{attr}")
        package = [m for n, m in sys.modules.items() if n == "duality_lab" or n.startswith("duality_lab.")]
        for module in package:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((module, attr, value, wrappers[value]))

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def _wrap(self, fn, span_name: str):
        name_id = len(self.names)
        self.names.append(span_name)
        count = getattr(self, "_count_" + span_name.replace(".", "_"), None)
        if count is None and span_name.startswith("output."):
            count = self._count_output_text
        stack, perf_counter = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.request_id)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(index)
            result, ok = None, False
            began = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                self.end[index] = perf_counter()
                self.start[index] = began
                stack.pop()
                if count is not None:
                    count(args, kwargs, result, ok)

        return traced

    # Counts computed from the calls' arguments and results ----------------

    def _count_sweep_run_sweep(self, args, kwargs, rows, ok):
        if ok:
            grid = _arg(args, kwargs, 0, "grid")
            self.counts["sweep.rows"] += len(rows)
            self.counts["sweep.skipped_points"] += grid.point_count() - len(rows)

    def _count_fock_choose_cutoff(self, args, kwargs, cutoff, ok):
        policy = _arg(args, kwargs, 1, "policy", self.modules["fock"].DEFAULT_POLICY)
        self.counts["fock.cutoff_candidates"] += policy.ceiling - policy.floor + 1
        if ok:
            self.counts["fock.cutoffs_chosen"] += 1
            self.cutoff_max = max(self.cutoff_max, cutoff)

    def _count_fock_tensor_product(self, args, kwargs, result, ok):
        a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
        self.counts["fock.tensor_bytes"] += COMPLEX_BYTES * a.dim ** a.modes * b.dim ** b.modes

    def _count_oracle_build_composite(self, args, kwargs, result, ok):
        if not ok:
            self.counts["oracle.points_failed"] += 1

    def _count_interferometer_simulate_fringe(self, args, kwargs, scan, ok):
        self.counts["interferometer.points"] += _arg(args, kwargs, 0, "config").phase_points

    def _count_interferometer_fit_fringe(self, args, kwargs, fit, ok):
        self.counts["interferometer.points"] += len(_arg(args, kwargs, 0, "scan"))

    def _count_output_ingest_scan_csv(self, args, kwargs, scan, ok):
        self.counts["output.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    def _count_output_text(self, args, kwargs, result, ok):
        if ok and isinstance(result, str):
            self.counts["output.bytes_written"] += len(result)  # the writers emit ASCII

    # Derived metrics --------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Per span name: total self seconds and number of calls."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        self_s = duration - children
        size = len(self.names)
        return (np.bincount(name, weights=self_s, minlength=size),
                np.bincount(name, minlength=size))

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics over ``rounds`` traced rounds (all but two are per round)."""
        self_s, calls = self.self_times()
        index = {span: k for k, span in enumerate(self.names)}

        def span_self(*spans):
            return float(sum(self_s[index[s]] for s in spans)) / rounds

        def span_calls(span):
            return float(calls[index[span]]) / rounds

        per_round = {key: value / rounds for key, value in self.counts.items()}
        candidates = self.counts["fock.cutoff_candidates"]
        return {
            "cli.calls": span_calls("cli.main"),
            "cli.self_s": span_self(*(s for s in self.names if s.startswith("cli."))),
            "sweep.run_sweep.self_s": span_self("sweep.run_sweep"),
            "sweep.rows": per_round.get("sweep.rows", 0.0),
            "sweep.skipped_points": per_round.get("sweep.skipped_points", 0.0),
            "analytic.complementarity_measures.calls": span_calls("analytic.complementarity_measures"),
            "analytic.complementarity_measures.self_s": span_self("analytic.complementarity_measures"),
            "oracle.build_composite.self_s": span_self("oracle.build_composite"),
            "oracle.measures_from_state.self_s": span_self("oracle.measures_from_state"),
            "oracle.verify_identities.self_s": span_self("oracle.verify_identities"),
            "oracle.points_failed": per_round.get("oracle.points_failed", 0.0),
            "fock.choose_cutoff.self_s": span_self("fock.choose_cutoff"),
            "fock.cutoff_candidates": per_round.get("fock.cutoff_candidates", 0.0),
            "fock.cutoff_useful_ratio": (self.counts["fock.cutoffs_chosen"] / candidates
                                         if candidates else 0.0),
            "fock.cutoff_max": float(self.cutoff_max),
            "fock.states.self_s": span_self(*FOCK_STATES),
            "fock.tensor_product.self_s": span_self("fock.tensor_product"),
            "fock.tensor_bytes": per_round.get("fock.tensor_bytes", 0.0),
            "fock.inner_product.self_s": span_self("fock.inner_product"),
            "interferometer.simulate_fringe.self_s": span_self("interferometer.simulate_fringe"),
            "interferometer.fit_fringe.self_s": span_self("interferometer.fit_fringe"),
            "interferometer.points": per_round.get("interferometer.points", 0.0),
            "output.rows_to_csv_text.self_s": span_self("output.rows_to_csv_text"),
            "output.rows_to_json_text.self_s": span_self("output.rows_to_json_text"),
            "output.render_heatmap_svg.self_s": span_self("output.render_heatmap_svg"),
            "output.scan_to_csv_text.self_s": span_self("output.scan_to_csv_text"),
            "output.ingest_scan_csv.self_s": span_self("output.ingest_scan_csv"),
            "output.bytes_written": per_round.get("output.bytes_written", 0.0),
            "output.bytes_read": per_round.get("output.bytes_read", 0.0),
        }

    def write(self, path: Path) -> Path:
        """Write every span: name table, name id, parent index, call id, times."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            np.savez(
                handle,
                names=np.array(self.names),
                name=np.frombuffer(self.name, dtype=np.int32),
                parent=np.frombuffer(self.parent, dtype=np.int32),
                request=np.frombuffer(self.request, dtype=np.int32),
                start=np.frombuffer(self.start),
                end=np.frombuffer(self.end),
            )
        return path


_IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)")


def import_seconds(src: Path, module: str = "duality_lab.fock", repeats: int = 3) -> float:
    """Median cumulative import time of ``module`` under ``python -X importtime``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import duality_lab.cli"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        for line in proc.stderr.splitlines():
            match = _IMPORT_LINE.match(line)
            if match and match.group(3) == module:
                samples.append(int(match.group(2)) * 1e-6)
    if len(samples) != repeats:
        raise RuntimeError(f"-X importtime did not report {module}")
    return statistics.median(samples)
