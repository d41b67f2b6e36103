"""Seeded inputs for the four workloads, as lists of CLI invocations.

A workload is one round of calls that the benchmark repeats unchanged for the
length of a run.  Everything a round feeds the program is drawn here from the
benchmark seed; the checkers in ``checks`` get the same description (``spec``)
and recompute what the outputs must contain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from harness import Call

WORKLOADS = ("surface-sweep", "identity-verify", "oracle-check", "fringe-fit")

# Full sizes are what the benchmark measures; tiny sizes keep its tests fast.
SIZES = {
    "full": {
        "surface-sweep": {"alpha_points": 201, "gamma_points": 100},
        "identity-verify": {"samples": 100_000},
        "oracle-check": {"pairs": 120},
        "fringe-fit": {"short_scans": 150, "long_scans": 2, "long_points": 100_000},
    },
    "tiny": {
        "surface-sweep": {"alpha_points": 11, "gamma_points": 5},
        "identity-verify": {"samples": 300},
        "oracle-check": {"pairs": 6},
        "fringe-fit": {"short_scans": 3, "long_scans": 1, "long_points": 2_000},
    },
}

VERIFY_ALPHA_MAX = 10.0
ORACLE_MAX_ALPHA = 19.0
SHORT_SCAN_POINTS = 100  # the CLI default

# Seed pairs above |alpha| ~ 19.4 fail today: fock.choose_cutoff finds no
# cutoff <= 512 there although SeedPair accepts |alpha| <= 1000.  They do not
# depend on the benchmark seed, so every run fails the same share of calls.
FAULT_PAIRS = (
    (complex(20.5, 0.0), complex(3.0, 0.0)),
    (complex(24.0, 7.0), complex(0.0, 9.0)),
    (complex(1.5, -2.0), complex(-29.5, 0.5)),
)


@dataclass
class Plan:
    """One workload at one seed: a warm-up call, a round of calls, the inputs."""

    workload: str
    warmup: Call
    calls: list
    points: int  # points completed per round when nothing fails
    spec: dict = field(default_factory=dict)


def _alpha_arg(flag: str, z: complex) -> str:
    # '--flag=value' keeps argparse from reading a leading minus as an option
    return f"--{flag}={z.real!r},{z.imag!r}"


def _random_phase(rng: np.random.Generator, magnitude: float) -> complex:
    return complex(magnitude * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))


def _surface_sweep(rng, size, workdir: Path) -> Plan:
    n_alpha, n_gamma = size["alpha_points"], size["gamma_points"]
    # |alpha_1| = |alpha| / gamma tops out at amax * n_gamma, within 1000
    amax = float(rng.uniform(6.0, 10.0))
    astep = amax / (n_alpha - 1)
    gstep = 1.0 / n_gamma

    def sweep(fmt: str, out: Path, alpha_step: float, gamma_step: float) -> list:
        return [
            "sweep", "--mode", "surface", "--format", fmt, "--out", str(out),
            f"--amax={amax!r}", f"--astep={alpha_step!r}", f"--gstep={gamma_step!r}",
        ]

    base = workdir / "surface"
    calls = [
        Call(tuple(sweep("csv", base.with_suffix(".csv"), astep, gstep)),
             (base.with_suffix(".csv"),)),
        Call(tuple(sweep("json", base.with_suffix(".json"), astep, gstep)),
             (base.with_suffix(".json"),)),
        Call(tuple(sweep("svg", base.with_suffix(".svg"), astep, gstep)),
             (workdir / "surface_C.svg", workdir / "surface_V.svg")),
    ]
    warm = workdir / "warmup.csv"
    warmup = Call(tuple(sweep("csv", warm, amax / 10.0, 0.2)), (warm,))
    rows = (n_alpha - 1) * n_gamma  # the |alpha| = 0 column is skipped
    spec = {
        "amax": amax, "astep": astep, "gstep": gstep,
        "alpha_points": n_alpha, "gamma_points": n_gamma, "rows": rows,
        "csv": base.with_suffix(".csv"), "json": base.with_suffix(".json"),
        "svgs": calls[2].outputs,
    }
    return Plan("surface-sweep", warmup, calls, rows * len(calls), spec)


def _identity_verify(rng, size, workdir: Path) -> Plan:
    samples = size["samples"]
    verify_seed = int(rng.integers(0, 2**31 - 1))

    def verify(n: int) -> tuple:
        return ("verify", "--samples", str(n), "--seed", str(verify_seed),
                f"--alpha-max={VERIFY_ALPHA_MAX!r}", "--json")

    oracle_samples = min(samples, 200)
    spec = {"samples": samples, "oracle_samples": oracle_samples,
            "alpha_max": VERIFY_ALPHA_MAX, "oracle_alpha_max": 4.0}
    return Plan("identity-verify", Call(verify(100)), [Call(verify(samples))],
                samples + oracle_samples, spec)


def _oracle_check(rng, size, workdir: Path) -> Plan:
    count = size["pairs"]
    pairs = []
    for k in range(count):
        # stratified so every run covers max |alpha| from 0 to 19 evenly
        top = ORACLE_MAX_ALPHA * (k + rng.uniform()) / count
        other = top * rng.uniform()
        a, b = _random_phase(rng, top), _random_phase(rng, other)
        pairs.append((a, b) if rng.integers(2) == 0 else (b, a))

    def measures(a: complex, b: complex) -> tuple:
        return ("measures", _alpha_arg("alpha1", a), _alpha_arg("alpha2", b),
                "--oracle", "--json")

    calls = [Call(measures(a, b)) for a, b in pairs]
    calls += [Call(measures(a, b), expect_fault=True) for a, b in FAULT_PAIRS]
    spec = {"pairs": pairs + list(FAULT_PAIRS)}
    return Plan("oracle-check", Call(measures(*pairs[0])), calls, count, spec)


def _fringe_fit(rng, size, workdir: Path) -> Plan:
    scans = []
    for _ in range(size["short_scans"]):
        a, b = rng.uniform(0.5, 5.0, size=2)
        scans.append((SHORT_SCAN_POINTS, _random_phase(rng, a), _random_phase(rng, b)))
    for _ in range(size["long_scans"]):
        # Long scans keep C <= 0.2 (|alpha_2| <= |alpha_1| / 10): at 1e5 points
        # the fit's bias grows to 3-6 stderr when C nears 1 (see CHANGES.md).
        a = rng.uniform(1.0, 5.0)
        b = a * rng.uniform(0.02, 0.1)
        scans.append((size["long_points"], _random_phase(rng, a), _random_phase(rng, b)))
    calls, spec_scans = [], []
    for index, (points, a, b) in enumerate(scans):
        noise_seed = int(rng.integers(0, 2**31 - 1))
        path = workdir / f"scan_{index:03d}.csv"
        calls.append(Call(("fringe", _alpha_arg("alpha1", a), _alpha_arg("alpha2", b),
                           "--points", str(points), "--seed", str(noise_seed),
                           "--out", str(path)), (path,)))
        calls.append(Call(("fit", "--input", str(path), "--json")))
        spec_scans.append({"points": points, "alpha1": a, "alpha2": b, "path": path})
    warm = workdir / "warmup.csv"
    points, a, b = scans[0]
    warmup = Call(("fringe", _alpha_arg("alpha1", a), _alpha_arg("alpha2", b),
                   "--points", str(points), "--out", str(warm)), (warm,))
    total = sum(scan[0] for scan in scans)
    return Plan("fringe-fit", warmup, calls, total, {"scans": spec_scans})


_BUILDERS = {
    "surface-sweep": _surface_sweep,
    "identity-verify": _identity_verify,
    "oracle-check": _oracle_check,
    "fringe-fit": _fringe_fit,
}


def build_plan(workload: str, seed: int, workdir: Path, size: str = "full") -> Plan:
    """Draw the inputs of ``workload`` from ``seed``; outputs go to ``workdir``."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[workload](rng, SIZES[size][workload], workdir)
