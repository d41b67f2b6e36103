"""Byte-level pins on the sweep, verify, measures, fringe and fit outputs.

Each digest is the SHA-256 of a file the CLI writes (or of its stdout).  Any
change to the numbers, their formatting or the layout changes a digest, so a
refactor that keeps these digests keeps every output byte.  Default grid
flags unless shown.

The outputs that carry route residuals (fig2a-oracle, verify,
measures-oracle and the explicit grid) are pinned in two parts.  A route
residual is |Fock route - closed form| for one measure: rounding and
truncation noise below the 1e-12 tail tolerance, whose last bits move with
the summation order and with the SIMD paths numpy takes (they differ with
and without AVX-512).  So every byte outside those fields is pinned by
SHA-256, with the residuals masked, and every residual is bounded by
``ROUTE_RESIDUAL_BOUND``.  verify's oracle checks also leave out their
``worst_seed_pair``: it is the arg-max of that noise.  A standing check
reruns these pins with numpy's AVX-512 paths disabled.
"""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from duality_lab import SeedPair, explicit_grid, rows_to_csv_text, rows_to_json_text, run_sweep
from duality_lab.analytic import IDENTITY_NAMES, closed_form_measures, validated_identity_residuals
from duality_lab.cli import main
from duality_lab.oracle import ORACLE_ALPHA_MAX, _polar_draw

# The largest route residual these outputs carry is 3.84e-12 (fig2a-oracle),
# with AVX-512 and without it.
ROUTE_RESIDUAL_BOUND = 1e-11
MASK = "<route residual>"

FIG2A_CSV = "5d06eb6af0c92f6d0bf88b0b82cc92f3f0c811eac45463844d64c0ed751ad0dd"
FIG2A_JSON = "9f624eae4f0ffe50129157e848c10ca2de665c3a968f19a4cf2f49ccc4e10edf"

SWEEP_FILES = [
    pytest.param(["--mode", "fig2a", "--format", "csv"], "out.csv", FIG2A_CSV, id="fig2a.csv"),
    pytest.param(["--mode", "fig2a", "--format", "json"], "out.json", FIG2A_JSON, id="fig2a.json"),
    pytest.param(["--mode", "fig2a", "--format", "svg"], "out.svg",
                 "cf58af3694023ac92cc2251a97519c50498b3eea79b0b91de5cff659703e924b", id="fig2a.svg"),
    pytest.param(["--mode", "fig2b", "--format", "csv"], "out.csv",
                 "2e7a19856b1744e511932c5a7fbc0dae1a3da6935327c6d2560ea1fe6a6c76ae", id="fig2b.csv"),
    pytest.param(["--mode", "fig2b", "--format", "json"], "out.json",
                 "97ba05b20f1649503238c7f78e4f8d128fddb0fd235e77c5a15a5bb88187c716", id="fig2b.json"),
    pytest.param(["--mode", "fig2b", "--format", "svg"], "out.svg",
                 "d8d3c82e57c79a10c09141fcbcf5829b01b438fd845e9a0f01ba7c3f9110fb9d", id="fig2b.svg"),
    pytest.param(["--mode", "surface", "--format", "csv"], "out.csv",
                 "050977411288843d6166f415d9a4a757702b5858a857aa13514d96fa2b3f9321", id="surface.csv"),
    pytest.param(["--mode", "surface", "--format", "json"], "out.json",
                 "00188170e781d3762c75c60f9c25adf7d99be5af0d89f0fc78de90ee890c0ef8", id="surface.json"),
    pytest.param(["--mode", "surface", "--format", "svg"], "out_C.svg",
                 "a40f69c36294a0045d1cc88d5b0eb93ec80a0dacd6b2948367c1cddfd8ed0565", id="surface_C.svg"),
    pytest.param(["--mode", "surface", "--format", "svg"], "out_V.svg",
                 "6ba093ff94e68a28c84321ca6c8469b132d36997073fe1747c60f1698aa0066e", id="surface_V.svg"),
    pytest.param(["--mode", "surface", "--amax", "8", "--astep", "0.04", "--gstep", "0.01",
                  "--format", "csv"], "out.csv",
                 "5217efef39618811858d65a0d2b4134569c7b1210dc2aefaee93f6dec4d77ded", id="surface-fine.csv"),
]

STDOUTS = [
    pytest.param(["measures", "--alpha1=3,4", "--alpha2=-1,0.5", "--json"],
                 "01a4627ce859cce60eba9ddf49d343fec8e00a6b04e2129867006162ef1fec9b",
                 id="measures-complex"),
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(("args", "written", "digest"), SWEEP_FILES)
def test_sweep_file_digest(tmp_path, capsys, args, written, digest):
    suffix = written.rsplit(".", 1)[1]
    assert main(["sweep", *args, "--out", str(tmp_path / f"out.{suffix}")]) == 0
    assert sha256((tmp_path / written).read_bytes()) == digest


def assert_route_residuals_bounded(residuals: list) -> None:
    assert residuals and all(0.0 <= r <= ROUTE_RESIDUAL_BOUND for r in residuals), residuals


def masked_json(text: str, mask) -> tuple[str, list]:
    """``text``, a JSON document, with its route residuals masked, and those residuals.

    ``mask(doc)`` replaces the residual fields of the parsed document by
    ``MASK`` and returns their values.  ``text`` must be the document as
    ``json.dumps(doc, indent=2)`` writes it, so the masked text keeps every
    other byte.
    """
    doc = json.loads(text)
    assert json.dumps(doc, indent=2) + "\n" == text
    residuals = mask(doc)
    return json.dumps(doc, indent=2) + "\n", residuals


def take(container, key):
    """``container[key]``, replaced there by ``MASK``."""
    value, container[key] = container[key], MASK
    return value


def mask_sweep_records(rows: list) -> list:
    # a row outside the oracle's reach keeps its null
    return [take(row, "oracle_residual") for row in rows if row["oracle_residual"] is not None]


def mask_measures(doc: dict) -> list:
    residuals = doc["oracle"]["residuals"]
    return [take(residuals, name) for name in list(residuals)]


def mask_verify(doc: dict) -> list:
    # the closed-form identity checks come first and keep every byte
    oracle_checks = doc["checks"][len(IDENTITY_NAMES):]
    for check in oracle_checks:
        check["worst_seed_pair"] = MASK
    return [take(check, "worst_residual") for check in oracle_checks]


def oracle_and_plain_outputs(tmp_path, fmt: str) -> tuple[str, str]:
    """``sweep --mode fig2a`` written with and without ``--oracle``."""
    texts = []
    for extra in (["--oracle"], []):
        out = tmp_path / f"out{len(texts)}.{fmt}"
        assert main(["sweep", "--mode", "fig2a", *extra, "--format", fmt, "--out", str(out)]) == 0
        texts.append(out.read_text())
    return texts[0], texts[1]


def assert_residuals_where_the_oracle_reaches(alphas: list, residuals: list) -> None:
    # fig2a has alpha1 = alpha2: the points within the oracle cap carry a
    # residual, the rest none
    assert [r is not None for r in residuals] == [a <= ORACLE_ALPHA_MAX for a in alphas]
    assert any(r is None for r in residuals)
    assert_route_residuals_bounded([r for r in residuals if r is not None])


# The oracle adds its residual column and leaves every other byte alone:
# fig2a-oracle is the pinned plain fig2a sweep plus bounded residuals.
def test_oracle_sweep_csv_is_the_plain_sweep_plus_residuals(tmp_path, capsys):
    oracle_csv, plain_csv = oracle_and_plain_outputs(tmp_path, "csv")
    assert sha256(plain_csv.encode()) == FIG2A_CSV
    oracle_lines, plain_lines = oracle_csv.splitlines(), plain_csv.splitlines()
    assert len(oracle_lines) == len(plain_lines)
    assert oracle_lines[0] == plain_lines[0] + ",oracle_residual"
    alphas, residuals = [], []
    for oracle_line, plain_line in zip(oracle_lines[1:], plain_lines[1:]):
        kept, residual = oracle_line.rsplit(",", 1)
        assert kept == plain_line
        alphas.append(float(kept.split(",", 1)[0]))
        residuals.append(float(residual) if residual else None)
    assert oracle_csv.endswith("\n") == plain_csv.endswith("\n")
    assert_residuals_where_the_oracle_reaches(alphas, residuals)


def test_oracle_sweep_json_is_the_plain_sweep_plus_residuals(tmp_path, capsys):
    oracle_json, plain_json = oracle_and_plain_outputs(tmp_path, "json")
    assert sha256(plain_json.encode()) == FIG2A_JSON
    residual_entry = re.compile(r',\n\s*"oracle_residual": ([^\n]*)')
    assert residual_entry.sub("", oracle_json) == plain_json
    rows = json.loads(oracle_json)
    residuals = [json.loads(value) for value in residual_entry.findall(oracle_json)]
    assert residuals == [row["oracle_residual"] for row in rows]
    assert_residuals_where_the_oracle_reaches([row["alpha1_abs"] for row in rows], residuals)


@pytest.mark.parametrize(("args", "digest"), STDOUTS)
def test_stdout_digest(capsys, args, digest):
    main(args)
    assert sha256(capsys.readouterr().out.encode()) == digest


ORACLE_STDOUTS = [
    pytest.param(["verify", "--samples", "10000", "--seed", "0", "--json"], mask_verify,
                 "a4f982d02359abb653b881c2b49d7028595a2e04a49d7de909f512c1f29fe8eb", id="verify"),
    pytest.param(["measures", "--alpha1", "2", "--alpha2", "1", "--oracle", "--json"], mask_measures,
                 "24f77931ead6fdc036e492e1e9c815b36070d399d44453112e9296fdc6a040cb", id="measures-oracle"),
]


@pytest.mark.parametrize(("args", "mask", "digest"), ORACLE_STDOUTS)
def test_oracle_stdout_digest_and_residuals(capsys, args, mask, digest):
    main(args)
    masked, residuals = masked_json(capsys.readouterr().out, mask)
    assert sha256(masked.encode()) == digest
    assert_route_residuals_bounded(residuals)


def test_verify_identity_checks_are_those_of_the_drawn_magnitudes(capsys):
    # the pinned verify run's identity checks: each names the last of its
    # identity's worst samples at the drawn magnitudes, its worst residual is,
    # bit for bit, that of the closed forms at that sample's drawn magnitudes,
    # and each reported seed's modulus is that magnitude to within an ulp
    main(["verify", "--samples", "10000", "--seed", "0", "--json"])
    checks = json.loads(capsys.readouterr().out)["checks"][: len(IDENTITY_NAMES)]
    mags, phases = _polar_draw(np.random.default_rng(0), 10000, 10.0)
    identity_rows = validated_identity_residuals(closed_form_measures(mags[:, 0], mags[:, 1]))
    for row, check in enumerate(checks):
        k = len(mags) - 1 - int(np.argmax(identity_rows[row, ::-1]))
        pair = [complex(*z) for z in check["worst_seed_pair"]]
        residuals = validated_identity_residuals(closed_form_measures(*mags[k]))
        assert check["identity"] == IDENTITY_NAMES[row]
        assert check["worst_residual"] == residuals[row, 0]
        assert pair == list(mags[k] * np.exp(1j * phases[k]))
        for z, m in zip(pair, mags[k]):
            assert abs(abs(z) - m) <= math.ulp(m)


def test_explicit_grid_digests_and_residuals():
    # NaN gamma, a missing oracle residual, and complex seeds
    seeds = [SeedPair(0, 1), SeedPair(2, 1), SeedPair(3 + 4j, -1 + 0.5j), SeedPair(8, 1)]
    table = run_sweep(explicit_grid(seeds), oracle_check=True)
    lines, residuals = rows_to_csv_text(table).split("\n"), []
    for k, line in enumerate(lines[1:-1], 1):
        kept, residual = line.rsplit(",", 1)
        if residual:
            residuals.append(float(residual))
            lines[k] = f"{kept},{MASK}"
    assert sha256("\n".join(lines).encode()) == (
        "c5499f9f98fb9592cdb3e25ed74dd69ca4a955812bd5c291875b3302af923208"
    )
    masked, json_residuals = masked_json(rows_to_json_text(table), mask_sweep_records)
    assert sha256(masked.encode()) == (
        "cae50c8ccd8752f7944f78347b4c76d79151d4306644cb2f30d4b32d161d1026"
    )
    assert json_residuals == residuals and len(residuals) == 2
    assert_route_residuals_bounded(residuals)


# numpy's SIMD paths move the residuals' last bits.  The pins above must hold
# on either path, so they run again with the AVX-512 paths disabled, where
# this CPU has them.
ORACLE_PINS = [
    test_oracle_sweep_csv_is_the_plain_sweep_plus_residuals,
    test_oracle_sweep_json_is_the_plain_sweep_plus_residuals,
    test_oracle_stdout_digest_and_residuals,
    test_explicit_grid_digests_and_residuals,
]
WITHOUT_AVX512 = "X86_V4 AVX512_ICL"


def numpy_cpu_features() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


_PINS_WITHOUT_AVX512 = """
import sys
import pytest
from test_golden_outputs import WITHOUT_AVX512, numpy_cpu_features
assert not any(numpy_cpu_features()[name] for name in WITHOUT_AVX512.split())
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]]))
"""


@pytest.mark.skipif(
    not all(numpy_cpu_features().get(name) for name in WITHOUT_AVX512.split()),
    reason="numpy reports no AVX-512 paths to disable",
)
def test_oracle_pins_hold_without_avx512():
    here = Path(__file__).resolve()
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": WITHOUT_AVX512}
    env["PYTHONPATH"] = os.pathsep.join([str(here.parent), str(here.parents[1] / "src")])
    run = subprocess.run(
        [sys.executable, "-c", _PINS_WITHOUT_AVX512,
         *(f"{here}::{test.__name__}" for test in ORACLE_PINS)],
        cwd=here.parents[1], env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert " passed" in run.stdout and "skipped" not in run.stdout, run.stdout


# The fringe-scan path: the CSV that ``fringe`` writes, its stdout, and the
# stdout of ``fit --json`` and plain ``fit`` on that file.  Recorded from the
# per-line writer and reader that preceded the chunked column-wise ones.
SCANS = [
    pytest.param(["--alpha1", "2", "--alpha2", "1", "--points", "100", "--seed", "5"],
                 ("dbeca4c06c732f15cb60aee45f7b914c71638b2ed60faf728ba9777e74b5f009",
                  "fbd7d7826bbc188678658fb8a02969e3d8f6ac384b191ae4f59314bc028792cb",
                  "33adbe46e60498cf06d03f5ac83487d8b9b5e3f62d4a9216b27e81ed14ab902a",
                  "864467dd3ceab9cedd66b1a652759ed68efc8bd85c3eb385286e10946b927b69"),
                 id="poisson-100"),
    pytest.param(["--alpha1=1.5,-0.5", "--alpha2", "0.7", "--points", "100",
                  "--scale", "1e6", "--tint", "0.01", "--noise", "none"],
                 ("b1998b5600f38c6fd6bc088f73dfb93d40127df2caba6bae786bdbaaf4949a92",
                  "68a943c68a6fc3db287ce5f683b706e2f27cbaeecfc1a497bbfde01baa5540d6",
                  "e40b1683f9aa5ecf7c8cf3d6f12d8ae094a83c1c2b7de22d2af7a679087a5e04",
                  "11dabe4eedc1258f38f3a764cabac0c7f23343c8608d9fd2ded53d1a8c9fa3f6"),
                 id="none-100"),
    pytest.param(["--alpha1=3,1", "--alpha2=0.2,-0.1", "--points", "100000", "--seed", "9"],
                 ("8ca6fa170b185268f831fb8906ccd7dc7d7043367005aa04c018ed16d713ce96",
                  "140bbed9ad8f7d596a4072791b88156be1e5167b007ae992265d121ae9402590",
                  # fit --json from the chunked fit, whose offset, amplitude and C
                  # equal those of the exactly summed normal equations
                  "4cafaf107325f61539bb067c2208acfcaf63a943bf635cb4f5d25ba269b5714a",
                  "b445180c03644df23b07316639915e6edd6ffe5fc196d1bd84c49cf205894703"),
                 id="poisson-1e5"),
]


@pytest.mark.parametrize(("args", "digests"), SCANS)
def test_scan_digests(tmp_path, monkeypatch, capsys, args, digests):
    monkeypatch.chdir(tmp_path)  # fringe prints the path it wrote
    csv, fringe_out, fit_json, fit_text = digests
    assert main(["fringe", *args, "--out", "scan.csv"]) == 0
    assert sha256(capsys.readouterr().out.encode()) == fringe_out
    assert sha256((tmp_path / "scan.csv").read_bytes()) == csv
    assert main(["fit", "--input", "scan.csv", "--json"]) == 0
    assert sha256(capsys.readouterr().out.encode()) == fit_json
    assert main(["fit", "--input", "scan.csv"]) == 0
    assert sha256(capsys.readouterr().out.encode()) == fit_text
