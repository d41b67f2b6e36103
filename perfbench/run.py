"""Benchmark of the duality-lab CLI on four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

One run drives ``duality_lab.cli.main(argv)`` in this process, repeating one
round of CLI calls until ``--seconds`` have passed, and checks every output
with the independent checkers in ``checks.py``.  With ``--trace 0`` it prints
the end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
rounds and prints the per-layer metrics.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.  See
README.md for the workloads and the meaning of each metric.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

from harness import BLAS_THREADS, ROOT, SRC, WORK_ROOT, SetupError, invoke, load_cli, pin_threads

pin_threads()  # before numpy loads with workloads, checks or the package

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 5
MIN_ROUNDS = 2
END_TO_END_UNITS = {"setup_s": "s", "points_per_s": "points/s", "peak_rss_mb": "MB"}


def probe_setup(workload: str, seed: int, workdir: Path, size: str) -> float:
    """Seconds from starting a fresh process to the point of its first timed call."""
    cmd = [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed), str(workdir), size]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise SetupError(f"set-up probe failed ({proc.returncode}): {err[-800:]}")
    return elapsed


def _round_digest(plan, results) -> str:
    digest = hashlib.sha256()
    for call, res in zip(plan.calls, results):
        digest.update(f"{res.code}\0{res.stdout}\0{res.stderr}\0".encode())
        for path in call.outputs:
            digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def run_rounds(cli, plan, seconds: float, recorder=None) -> dict:
    """Repeat the plan's round until ``seconds`` have passed (at least MIN_ROUNDS).

    gc.collect() runs before each round.  Every call's time is kept, apart for
    untraced and traced rounds; with a recorder every second round is traced.
    Every round must reproduce the outputs of the first round of its kind
    exactly (tracing shifts the source line that warnings name, so traced and
    untraced rounds are compared among themselves).
    """
    calls = plan.calls
    samples = {False: [], True: []}  # per round: each call's seconds
    rounds = {False: 0, True: 0}
    reference = {}
    failed = 0
    mismatch = results = None
    start = time.perf_counter()
    while sum(rounds.values()) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        traced = recorder is not None and sum(rounds.values()) % 2 == 1
        gc.collect()
        if traced:
            recorder.install()
        results, times = [], []
        try:
            for index, call in enumerate(calls):
                if traced:
                    recorder.request_id = rounds[True] * len(calls) + index
                result, elapsed = invoke(cli.main, call)  # the wrapper when traced
                results.append(result)
                times.append(elapsed)
        finally:
            if traced:
                recorder.uninstall()
        samples[traced].append(times)
        failed += sum(1 for res in results if res.code != 0)
        digest = _round_digest(plan, results)
        if reference.setdefault(traced, digest) != digest and mismatch is None:
            mismatch = f"round {sum(rounds.values())} outputs differ from an earlier round"
        rounds[traced] += 1
    return {
        "rounds": rounds[False], "traced_rounds": rounds[True],
        "samples": samples[False], "samples_traced": samples[True],
        "attempted": sum(rounds.values()) * len(calls), "failed": failed,
        "results": results, "mismatch": mismatch,
    }


def round_seconds(samples) -> float:
    """Typical seconds of one round: the median over rounds of each round's total."""
    return statistics.median(sum(times) for times in samples)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full", probes: int = SETUP_PROBES) -> dict:
    """One run of one workload; returns the result object and run details."""
    from checks import CHECKERS, CheckError
    from workloads import build_plan

    cli = load_cli()
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    try:
        setup = [] if trace else [
            probe_setup(workload, seed, workdir / f"probe{k}", size) for k in range(probes)
        ]
        plan = build_plan(workload, seed, workdir / "run", size)
        warnings.simplefilter("always")  # each call warns as a fresh process would
        warm, _ = invoke(cli.main, plan.warmup)
        if warm.code != 0:
            raise SetupError(f"warm-up call exited {warm.code}: {warm.stderr[-800:]}")
        recorder = None
        if trace:
            from spans import Recorder

            recorder = Recorder()
        timing = run_rounds(cli, plan, seconds, recorder)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        error = timing["mismatch"]
        if error is None:
            try:
                CHECKERS[workload](plan, timing["results"])
            except CheckError as exc:
                error = str(exc)
        points_per_s = plan.points / round_seconds(timing["samples"])
        if trace:
            from spans import import_seconds

            values = recorder.metrics(timing["traced_rounds"])
            values["fock.import_s"] = import_seconds(SRC)
            values["trace.overhead_ratio"] = (round_seconds(timing["samples_traced"])
                                              / round_seconds(timing["samples"]))
            trace_file = recorder.write(
                WORK_ROOT / "traces" / f"{workload}-seed{seed}-{os.getpid()}.npz")
        else:
            values = {"setup_s": statistics.median(setup), "points_per_s": points_per_s,
                      "peak_rss_mb": peak_rss_mb}
            trace_file = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": error is None,
        "attempted": timing["attempted"],
        "failed": timing["failed"],
        "values": values,
        "error": error,
        "rounds": timing["rounds"] + timing["traced_rounds"],
        "calls_per_round": len(plan.calls),
        "points_per_round": plan.points,
        "setup_samples": setup,
        "trace_file": trace_file,
    }


def _units(trace: bool) -> dict:
    if trace:
        from spans import PER_LAYER_UNITS

        return PER_LAYER_UNITS
    return END_TO_END_UNITS


def run_one(args) -> int:
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    units = _units(bool(args.trace))
    env = dict(environment(), workload=args.workload, seed=args.seed,
               seconds=args.seconds, trace=args.trace)
    print("env " + json.dumps(env))
    print("ops " + json.dumps({
        "workload": args.workload, "attempted": run["attempted"], "failed": run["failed"],
        "rounds": run["rounds"], "calls_per_round": run["calls_per_round"],
        "points_per_round": run["points_per_round"],
        "setup_samples_s": [round(s, 4) for s in run["setup_samples"]],
    }))
    if run["trace_file"] is not None:
        print(f"spans written to {run['trace_file'].relative_to(ROOT)}")
    if run["error"] is not None:
        print(f"CHECK FAILED: {run['error']}")
    for name, unit in units.items():
        print(f"  {name:44s} {run['values'][name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": run["values"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if run["correct"] else 1


def run_all(args) -> int:
    """Every workload, each in its own process; one summary at the end."""
    from workloads import WORKLOADS

    metrics, attempted, failed, correct = {}, 0, 0, True
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(f"== {workload}\n{proc.stdout}")
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{workload}: run failed with exit code {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"== {workload}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for name, metric in result["metrics"].items():
            metrics[f"{workload}.{name}"] = metric
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
