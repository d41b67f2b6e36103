"""Byte-level pins on the sweep, verify, measures, fringe and fit outputs.

Each digest is the SHA-256 of a file the CLI writes (or of its stdout),
recorded from the scalar per-point implementation that preceded the
columnar kernel.  The outputs that carry oracle residuals (fig2a-oracle,
verify, measures-oracle and the explicit grid) were re-recorded when the
oracle moved to factorised single-mode overlaps: only residual fields
changed, each by at most 2.7e-15, with the same worst seed pairs.  They
were re-recorded again when the Poisson log-pmf kernel replaced scipy's
gammaln in the coherent amplitudes: only ``oracle_residual`` and verify's
worst residuals moved (by at most 2.3e-15; the same worst seed pairs and
the same cutoffs), and measures-oracle kept its bytes.  They were
re-recorded once more when D, P, E and mu_s took subtraction-free closed
forms and the Fock route took P, D and mu_s from |rho11 - rho22| and
hypot: only those four measures (as D2, P2, E2, mu_s2 in the sweeps)
and ``oracle_residual``, by at most 2.2e-15, and verify's worst residuals
and their seed pairs moved (its worst Fock-route P residual fell from
2.0e-14 to 1.0e-15); every SVG, V, C2, F_abs, coordinate column and cutoff
kept its value.  Any change to the numbers, their formatting or the column layout
changes a digest.  Default grid flags unless shown.
"""

import hashlib

import pytest

from duality_lab import SeedPair, explicit_grid, rows_to_csv_text, rows_to_json_text, run_sweep
from duality_lab.cli import main

SWEEP_FILES = [
    pytest.param(["--mode", "fig2a", "--format", "csv"], "out.csv",
                 "5d06eb6af0c92f6d0bf88b0b82cc92f3f0c811eac45463844d64c0ed751ad0dd", id="fig2a.csv"),
    pytest.param(["--mode", "fig2a", "--format", "json"], "out.json",
                 "9f624eae4f0ffe50129157e848c10ca2de665c3a968f19a4cf2f49ccc4e10edf", id="fig2a.json"),
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
    # 40 rows above the oracle cap carry an empty residual
    pytest.param(["--mode", "fig2a", "--oracle", "--format", "csv"], "out.csv",
                 "dc67a3460c5754d31d56cc7660fc451a4b1953dbfa60d5e6ac70af4d72caba6c", id="fig2a-oracle.csv"),
    pytest.param(["--mode", "fig2a", "--oracle", "--format", "json"], "out.json",
                 "e85b39d6d7d57ece9dd85517c801799fe0a20fcaa126793033152fd1866d7f23", id="fig2a-oracle.json"),
    pytest.param(["--mode", "surface", "--amax", "8", "--astep", "0.04", "--gstep", "0.01",
                  "--format", "csv"], "out.csv",
                 "5217efef39618811858d65a0d2b4134569c7b1210dc2aefaee93f6dec4d77ded", id="surface-fine.csv"),
]

STDOUTS = [
    pytest.param(["verify", "--samples", "10000", "--seed", "0", "--json"],
                 "25e9c05a2b2415ea86e6a6df03ec8566700fbfc85543c93d9db2a94536613261",
                 id="verify"),
    pytest.param(["measures", "--alpha1", "2", "--alpha2", "1", "--oracle", "--json"],
                 "d2e22c81741f6b20e5b3c8592eda0e0fd7ccf00cb226dc624d26cea2337bc395",
                 id="measures-oracle"),
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


@pytest.mark.parametrize(("args", "digest"), STDOUTS)
def test_stdout_digest(capsys, args, digest):
    main(args)
    assert sha256(capsys.readouterr().out.encode()) == digest


def test_explicit_grid_digests():
    # NaN gamma, a missing oracle residual, and complex seeds
    seeds = [SeedPair(0, 1), SeedPair(2, 1), SeedPair(3 + 4j, -1 + 0.5j), SeedPair(8, 1)]
    table = run_sweep(explicit_grid(seeds), oracle_check=True)
    assert sha256(rows_to_csv_text(table).encode()) == (
        "f74284d2e72232075a248b86107466ebbbc89e57caddc98fcc90c232ac4029ba"
    )
    assert sha256(rows_to_json_text(table).encode()) == (
        "76399e31f51479ec5d1f16c391f0b3933b41f41c372d072820a11137e7035b91"
    )


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
                  "d96dc0e53ec047574b68d21d285a750ce25af275b115dc5cc3da2108c50f694a",
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
