"""Independent output checkers, one per workload.

Each checker recomputes what the program's outputs must contain from the
workload's inputs, with closed forms written here rather than imported from
the package, and raises ``CheckError`` on the first disagreement.

The four measures that the program forms as square roots of a radicand
(D, P, E, mu_s) are compared through their squares: near zero a rounding
error e in the radicand becomes an error of about sqrt(e) in the root, so the
printed roots agree with exact values only to ~1e-8 there (see CHANGES.md).
"""

from __future__ import annotations

import json
import math
import re
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import numpy as np

CLOSED_TOL = 1e-12
ORACLE_TOL = 1e-8
CUTOFF_FLOOR = 16
CUTOFF_TAIL = 1e-12
CEILING_MESSAGE = "no cutoff <= ceiling 512"
PEAK_RATE = 5.0e6  # fringe --scale default: peak rate at the single-photon budget
INTEGRATION_TIME = 0.010  # fringe --tint default, seconds
FIT_PULL_MAX = 5.0

ROW_COLUMNS = ("alpha1_abs", "alpha2_abs", "gamma", "D2", "P2", "E2", "C2",
               "F_abs", "mu_s2", "V")
MEASURES = ("D", "P", "E", "V", "C", "F_abs", "mu_s")
ROOT_MEASURES = ("D", "P", "E", "mu_s")
IDENTITIES = ("D^2 = P^2 + E^2", "P^2 + E^2 + C^2 = 1", "P^2 + C^2 = mu_s^2",
              "mu_s^2 + E^2 = 1", "C = V |F|", "V^2 + P^2 = 1")


class CheckError(AssertionError):
    """An output disagrees with the benchmark's own computation."""


def _require(condition, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _require_close(name: str, got, want, atol: float, rtol: float = 0.0) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    want = np.broadcast_to(want, got.shape) if want.ndim == 0 else want
    _require(got.shape == want.shape, f"{name}: shape {got.shape} != {want.shape}")
    excess = np.abs(got - want) - (atol + rtol * np.abs(want))
    if excess.size and not np.all(excess <= 0.0):
        k = int(np.argmax(excess))
        raise CheckError(
            f"{name}: {got.flat[k]!r} differs from {want.flat[k]!r} at index {k} "
            f"(atol {atol:g}, rtol {rtol:g})"
        )


def closed_forms(a, b) -> dict:
    """All seven measures from the seed magnitudes |alpha_1| = a, |alpha_2| = b.

    With n_j = 1 + |alpha_j|^2: C = 2ab/(n1+n2), V = 2 sqrt(n1 n2)/(n1+n2),
    |F| = ab/sqrt(n1 n2), P = |n1-n2|/(n1+n2), E = V sqrt(1-|F|^2),
    D = sqrt(P^2+E^2), mu_s = sqrt(P^2+C^2).
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    n1, n2 = 1.0 + a * a, 1.0 + b * b
    total = n1 + n2
    V = 2.0 * np.sqrt(n1 * n2) / total
    F = a * b / np.sqrt(n1 * n2)
    C = 2.0 * a * b / total
    P = np.abs(n1 - n2) / total
    E = V * np.sqrt((n1 + n2 - 1.0) / (n1 * n2))  # 1 - |F|^2 without cancellation
    return {"D": np.sqrt(P * P + E * E), "P": P, "E": E, "V": V, "C": C,
            "F_abs": F, "mu_s": np.sqrt(P * P + C * C)}


def identity_residuals(m: dict) -> dict:
    sq = {k: m[k] * m[k] for k in MEASURES}
    return {
        IDENTITIES[0]: np.abs(sq["D"] - sq["P"] - sq["E"]),
        IDENTITIES[1]: np.abs(sq["P"] + sq["E"] + sq["C"] - 1.0),
        IDENTITIES[2]: np.abs(sq["P"] + sq["C"] - sq["mu_s"]),
        IDENTITIES[3]: np.abs(sq["mu_s"] + sq["E"] - 1.0),
        IDENTITIES[4]: np.abs(m["C"] - m["V"] * m["F_abs"]),
        IDENTITIES[5]: np.abs(sq["V"] + sq["P"] - 1.0),
    }


def _require_codes(plan, results) -> None:
    for call, res in zip(plan.calls, results):
        _require(res.code == 0, f"{' '.join(call.argv)} exited {res.code}: {res.stderr[-300:]}")


# ---------------------------------------------------------------------------
# surface-sweep


def _read_rows_csv(path: Path) -> tuple:
    lines = Path(path).read_text(encoding="ascii").splitlines()
    header = tuple(lines[0].split(","))
    table = np.array([line.split(",") for line in lines[1:]], dtype=float)
    return header, table


def _svg_cells(path: Path) -> int:
    """Heat-map cells: the rects of the most common size."""
    root = ET.parse(path).getroot()
    sizes = Counter(
        (el.get("width"), el.get("height"))
        for el in root.iter()
        if el.tag.rsplit("}", 1)[-1] == "rect"
    )
    return sizes.most_common(1)[0][1] if sizes else 0


def check_surface_sweep(plan, results) -> None:
    spec = plan.spec
    rows = spec["rows"]
    _require_codes(plan, results)
    for res in results:
        _require(res.stdout.startswith(f"wrote {rows} rows"), f"unexpected summary {res.stdout!r}")
    header, table = _read_rows_csv(spec["csv"])
    _require(header == ROW_COLUMNS, f"csv header {header} != {ROW_COLUMNS}")
    _require(table.shape == (rows, len(ROW_COLUMNS)), f"csv has shape {table.shape}, want {rows} rows")
    col = dict(zip(header, table.T))

    n_alpha, n_gamma = spec["alpha_points"], spec["gamma_points"]
    gammas = spec["gstep"] * np.arange(1, n_gamma + 1)
    alphas = spec["astep"] * np.arange(1, n_alpha)
    alphas[-1] = spec["amax"]
    _require_close("gamma axis", col["gamma"], np.repeat(gammas, n_alpha - 1), 0.0, 1e-12)
    _require_close("|alpha| axis", col["alpha2_abs"], np.tile(alphas, n_gamma), 0.0, 1e-12)
    _require_close("gamma*|alpha1| = |alpha2|", col["gamma"] * col["alpha1_abs"],
                   col["alpha2_abs"], 0.0, 1e-12)

    own = closed_forms(col["alpha1_abs"], col["alpha2_abs"])
    _require_close("C2", col["C2"], own["C"] ** 2, CLOSED_TOL)
    _require_close("V", col["V"], own["V"], CLOSED_TOL)
    _require_close("F_abs", col["F_abs"], own["F_abs"], CLOSED_TOL)
    for name in ROOT_MEASURES:
        _require_close(f"{name}2", col[f"{name}2"], own[name] ** 2, CLOSED_TOL)
    _require_close("D2 = P2 + E2", col["D2"], col["P2"] + col["E2"], CLOSED_TOL)
    _require_close("P2 + E2 + C2 = 1", col["P2"] + col["E2"] + col["C2"], 1.0, CLOSED_TOL)
    _require_close("P2 + C2 = mu_s2", col["P2"] + col["C2"], col["mu_s2"], CLOSED_TOL)

    records = json.loads(Path(spec["json"]).read_text(encoding="ascii"))
    _require(len(records) == rows, f"json has {len(records)} records, want {rows}")
    _require(all(tuple(rec) == ROW_COLUMNS for rec in records), "json record keys differ from csv header")
    from_json = np.array([[rec[name] for name in ROW_COLUMNS] for rec in records], dtype=float)
    _require(np.array_equal(from_json, table), "csv and json carry different numbers")

    for path in spec["svgs"]:
        cells = _svg_cells(path)
        _require(cells == rows, f"{Path(path).name} has {cells} cells, want {rows}")


# ---------------------------------------------------------------------------
# identity-verify


def check_identity_verify(plan, results) -> None:
    spec = plan.spec
    _require_codes(plan, results)
    report = json.loads(results[0].stdout)
    checks = report["checks"]
    _require(report["all_passed"] is True, "report does not pass")
    _require(len(checks) == 14, f"{len(checks)} checks, want 14")
    expected = [(name, spec["samples"], CLOSED_TOL, spec["alpha_max"]) for name in IDENTITIES]
    expected += [(None, spec["oracle_samples"], ORACLE_TOL, spec["oracle_alpha_max"])] * 8
    for check, (name, samples, tol, alpha_max) in zip(checks, expected):
        label = check["identity"]
        _require(name is None or label == name, f"check {label!r}, want {name!r}")
        _require(check["samples"] == samples, f"{label}: {check['samples']} samples, want {samples}")
        _require(check["tolerance"] == tol, f"{label}: tolerance {check['tolerance']}, want {tol}")
        _require(check["pass"] is True and check["worst_residual"] <= tol,
                 f"{label}: worst residual {check['worst_residual']} above {tol}")
        pair = [complex(*z) for z in check["worst_seed_pair"]]
        _require(all(abs(z) <= alpha_max for z in pair),
                 f"{label}: worst seed pair {pair} outside |alpha| <= {alpha_max}")
        own = closed_forms(abs(pair[0]), abs(pair[1]))
        for identity, residual in identity_residuals(own).items():
            _require(residual <= CLOSED_TOL, f"{label}: '{identity}' fails at {pair} by {residual}")


# ---------------------------------------------------------------------------
# oracle-check


def poisson_sf(k: int, mean: float) -> float:
    from scipy.stats import poisson  # imported only when checking

    return float(poisson.sf(k, mean))


def check_cutoff(cutoff: int, lam: float) -> None:
    """The cutoff must bound the Poisson(lam) tail and be the smallest that does."""
    _require(isinstance(cutoff, int) and cutoff >= CUTOFF_FLOOR,
             f"cutoff {cutoff!r} below the floor {CUTOFF_FLOOR}")
    tail = poisson_sf(cutoff - 1, lam)
    _require(tail < CUTOFF_TAIL, f"cutoff {cutoff} leaves tail {tail:.3e} at |alpha|^2 = {lam}")
    if cutoff > CUTOFF_FLOOR:
        below = poisson_sf(cutoff - 2, lam)
        _require(below >= CUTOFF_TAIL,
                 f"cutoff {cutoff} is not minimal: {cutoff - 1} leaves tail {below:.3e}")


def check_oracle_check(plan, results) -> None:
    for call, res, (a, b) in zip(plan.calls, results, plan.spec["pairs"]):
        if res.code != 0:
            _require(call.expect_fault and res.code == 1 and CEILING_MESSAGE in res.stderr,
                     f"{' '.join(call.argv)} exited {res.code}: {res.stderr[-300:]}")
            continue
        payload = json.loads(res.stdout)
        _require(payload["alpha1"] == [a.real, a.imag] and payload["alpha2"] == [b.real, b.imag],
                 f"seed echo {payload['alpha1']}, {payload['alpha2']} != {a}, {b}")
        printed = payload["measures"]
        own = closed_forms(abs(a), abs(b))
        for name in MEASURES:
            if name in ROOT_MEASURES:
                _require_close(f"{name}^2 at {a}, {b}", printed[name] ** 2, own[name] ** 2, CLOSED_TOL)
            else:
                _require_close(f"{name} at {a}, {b}", printed[name], own[name], CLOSED_TOL)
        oracle = payload["oracle"]
        _require(sorted(oracle["residuals"]) == sorted(MEASURES), "oracle residuals incomplete")
        for name, residual in oracle["residuals"].items():
            _require(residual <= ORACLE_TOL, f"oracle residual {name} = {residual} at {a}, {b}")
        check_cutoff(oracle["cutoff"], max(abs(a), abs(b)) ** 2)


# ---------------------------------------------------------------------------
# fringe-fit


def _read_scan(path: Path) -> tuple:
    meta, body = {}, []
    for line in Path(path).read_text(encoding="ascii").splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
        else:
            body.append(line)
    _require(body and body[0] == "delta_theta,counts", f"{path}: bad header")
    data = np.array([line.split(",") for line in body[1:]], dtype=float).reshape(-1, 2)
    return meta, data[:, 0], data[:, 1]


_SUMMARY_C = re.compile(r"fitted C = ([0-9.]+) \+- ")


def check_fringe_fit(plan, results) -> None:
    _require_codes(plan, results)
    for index, scan in enumerate(plan.spec["scans"]):
        fringe_out, fit_out = results[2 * index], results[2 * index + 1]
        k = scan["points"]
        a, b = abs(scan["alpha1"]), abs(scan["alpha2"])
        meta, theta, counts = _read_scan(scan["path"])
        _require(theta.size == k, f"scan {index}: {theta.size} points, want {k}")
        _require(theta[0] >= 0.0 and theta[-1] < 2.0 * math.pi and np.all(np.diff(theta) > 0.0),
                 f"scan {index}: phases not strictly increasing in [0, 2pi)")
        own_theta = 2.0 * math.pi * np.arange(k) / k
        _require_close(f"scan {index} phases", theta, own_theta, 1e-12)
        scale = PEAK_RATE / (2.0 + (a + b) ** 2)
        _require_close(f"scan {index} pump_rate_scale", float(meta["pump_rate_scale"]), scale, 0.0, 1e-12)
        mu = float(np.sum(scale * (2.0 + a * a + b * b - 2.0 * a * b * np.sin(own_theta))
                          * INTEGRATION_TIME))
        total = float(counts.sum())
        _require(abs(total - mu) <= 5.0 * math.sqrt(mu),
                 f"scan {index}: total counts {total} not within 5 sqrt(mu) of {mu}")

        fit = json.loads(fit_out.stdout)
        _require(fit["points"] == k, f"scan {index}: fit saw {fit['points']} points")
        c_fit, stderr = fit["coherence_estimate"], fit["coherence_stderr"]
        c_own = 2.0 * a * b / (2.0 + a * a + b * b)
        _require(abs(c_fit - c_own) <= FIT_PULL_MAX * stderr,
                 f"scan {index}: fitted C {c_fit} is {abs(c_fit - c_own) / stderr:.1f} stderr "
                 f"from {c_own}")
        match = _SUMMARY_C.search(fringe_out.stdout)
        _require(match is not None, f"scan {index}: no fitted C in {fringe_out.stdout!r}")
        _require(abs(float(match.group(1)) - c_fit) <= 5e-10 + 1e-15,
                 f"scan {index}: summary C {match.group(1)} != fit C {c_fit}")


CHECKERS = {
    "surface-sweep": check_surface_sweep,
    "identity-verify": check_identity_verify,
    "oracle-check": check_oracle_check,
    "fringe-fit": check_fringe_fit,
}
