"""Tests of the benchmark itself: tiny runs, and checkers that catch bad outputs.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import checks
import run
import workloads
from harness import BENCH_DIR, ROOT, invoke, load_cli


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_completes(workload, trace):
    result = run.measure(workload, seed=7, seconds=0.0, trace=trace, size="tiny", probes=1)
    assert result["correct"], result["error"]
    assert result["rounds"] >= run.MIN_ROUNDS
    assert result["attempted"] == result["rounds"] * result["calls_per_round"]
    faults = len(workloads.FAULT_PAIRS) if workload == "oracle-check" else 0
    assert result["failed"] == faults * result["rounds"]
    names = run._units(trace)
    assert set(result["values"]) == set(names)
    if trace:
        assert result["values"]["cli.calls"] == result["calls_per_round"]
        assert result["trace_file"].is_file()
    else:
        assert all(value > 0 for value in result["values"].values())


def _one_round(workload, tmp_path):
    cli = load_cli()
    plan = workloads.build_plan(workload, 5, tmp_path, "tiny")
    results = [invoke(cli.main, call)[0] for call in plan.calls]
    checks.CHECKERS[workload](plan, results)  # untouched outputs pass
    return plan, results


def test_csv_cell_moved_is_rejected(tmp_path):
    plan, results = _one_round("surface-sweep", tmp_path)
    path = plan.spec["csv"]
    lines = path.read_text().splitlines()
    column = lines[0].split(",").index("C2")
    cells = lines[3].split(",")
    cells[column] = repr(float(cells[column]) + 1e-9)
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError, match="C2"):
        checks.check_surface_sweep(plan, results)


def test_svg_missing_cell_is_rejected(tmp_path):
    plan, results = _one_round("surface-sweep", tmp_path)
    path = plan.spec["svgs"][0]
    lines = path.read_text().splitlines()
    first_cell = next(k for k, line in enumerate(lines) if line.startswith('<rect x="'))
    del lines[first_cell]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError, match="cells"):
        checks.check_surface_sweep(plan, results)


def test_fit_ten_stderr_off_is_rejected(tmp_path):
    plan, results = _one_round("fringe-fit", tmp_path)
    scan = plan.spec["scans"][0]
    a, b = abs(scan["alpha1"]), abs(scan["alpha2"])
    fit = json.loads(results[1].stdout)
    fit["coherence_estimate"] = 2 * a * b / (2 + a * a + b * b) + 10 * fit["coherence_stderr"]
    results[1] = dataclasses.replace(results[1], stdout=json.dumps(fit))
    with pytest.raises(checks.CheckError, match="stderr from"):
        checks.check_fringe_fit(plan, results)


def test_cutoff_one_below_minimum_is_rejected(tmp_path):
    plan, results = _one_round("oracle-check", tmp_path)
    index = max(
        (k for k, call in enumerate(plan.calls) if not call.expect_fault),
        key=lambda k: json.loads(results[k].stdout)["oracle"]["cutoff"],
    )
    payload = json.loads(results[index].stdout)
    assert payload["oracle"]["cutoff"] > checks.CUTOFF_FLOOR
    payload["oracle"]["cutoff"] -= 1
    results[index] = dataclasses.replace(results[index], stdout=json.dumps(payload))
    with pytest.raises(checks.CheckError, match="leaves tail"):
        checks.check_oracle_check(plan, results)


def test_unexpected_failure_is_rejected(tmp_path):
    plan, results = _one_round("oracle-check", tmp_path)
    results[0] = dataclasses.replace(results[0], code=1, stdout="", stderr="error: boom")
    with pytest.raises(checks.CheckError, match="exited 1"):
        checks.check_oracle_check(plan, results)


def test_run_without_sources_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "oracle-check",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for key, trace in (("end_to_end", False), ("per_layer", True)):
        assert {m["name"]: m["unit"] for m in spec[key]} == run._units(trace)
