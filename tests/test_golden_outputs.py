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
the same cutoffs), and measures-oracle kept its bytes.  Any
change to the numbers, their formatting or the column layout changes a
digest.  Default grid flags unless shown.
"""

import hashlib

import pytest

from duality_lab import SeedPair, explicit_grid, rows_to_csv_text, rows_to_json_text, run_sweep
from duality_lab.cli import main

SWEEP_FILES = [
    pytest.param(["--mode", "fig2a", "--format", "csv"], "out.csv",
                 "1c89c1bf18a249b68ca28583070ff3e9d61731318b8b08c4e9ec5d955e9e0ede", id="fig2a.csv"),
    pytest.param(["--mode", "fig2a", "--format", "json"], "out.json",
                 "ed126461cc88848aff72a1e28dd67da521900542d9fdf93541e2cde175e16f5a", id="fig2a.json"),
    pytest.param(["--mode", "fig2a", "--format", "svg"], "out.svg",
                 "cf58af3694023ac92cc2251a97519c50498b3eea79b0b91de5cff659703e924b", id="fig2a.svg"),
    pytest.param(["--mode", "fig2b", "--format", "csv"], "out.csv",
                 "5b886f1845c1109a50cba766416749c3b9945aacf79fd48f18ae77050f0595bc", id="fig2b.csv"),
    pytest.param(["--mode", "fig2b", "--format", "json"], "out.json",
                 "da4743c6e6df7288737518f98b78eed377e5de3ca03807d61e6fd52d2fd4fb18", id="fig2b.json"),
    pytest.param(["--mode", "fig2b", "--format", "svg"], "out.svg",
                 "d8d3c82e57c79a10c09141fcbcf5829b01b438fd845e9a0f01ba7c3f9110fb9d", id="fig2b.svg"),
    pytest.param(["--mode", "surface", "--format", "csv"], "out.csv",
                 "ee411ec28c00c9be1954e23e6a3e8115fee4452e5f3056965a949852c609c11d", id="surface.csv"),
    pytest.param(["--mode", "surface", "--format", "json"], "out.json",
                 "8b0731ffd5c7b3668e0033433b14ab8b4297c30176cdd23a39929ee7902b6faa", id="surface.json"),
    pytest.param(["--mode", "surface", "--format", "svg"], "out_C.svg",
                 "a40f69c36294a0045d1cc88d5b0eb93ec80a0dacd6b2948367c1cddfd8ed0565", id="surface_C.svg"),
    pytest.param(["--mode", "surface", "--format", "svg"], "out_V.svg",
                 "6ba093ff94e68a28c84321ca6c8469b132d36997073fe1747c60f1698aa0066e", id="surface_V.svg"),
    # 40 rows above the oracle cap carry an empty residual
    pytest.param(["--mode", "fig2a", "--oracle", "--format", "csv"], "out.csv",
                 "be9348c971eeec55494171e8f9537151276311c1309f80060294502f62dc1760", id="fig2a-oracle.csv"),
    pytest.param(["--mode", "fig2a", "--oracle", "--format", "json"], "out.json",
                 "9cad07545fe5cf13f11273952af67a2a098a9446a962d86c85f6fbd35f46f626", id="fig2a-oracle.json"),
    pytest.param(["--mode", "surface", "--amax", "8", "--astep", "0.04", "--gstep", "0.01",
                  "--format", "csv"], "out.csv",
                 "13a2ce9d55fc35b01513d53039cdc28da68d83fceef23d2d7b3491892d3e0119", id="surface-fine.csv"),
]

STDOUTS = [
    pytest.param(["verify", "--samples", "10000", "--seed", "0", "--json"],
                 "0f8a5928eb70d61fb82f4177ed038b2aa32952636e7b08919325b9c14d7c4cad",
                 id="verify"),
    pytest.param(["measures", "--alpha1", "2", "--alpha2", "1", "--oracle", "--json"],
                 "fa24a899ed9446e8f9eefef2ec813906fd926ac1215cfda2e0ecf85a93a57f2c",
                 id="measures-oracle"),
    pytest.param(["measures", "--alpha1=3,4", "--alpha2=-1,0.5", "--json"],
                 "dd0153de770df93d908cf0072ab1f8a80783bbd7456b66a9147d1f08b978eb7f",
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
    table = run_sweep(explicit_grid(seeds, oracle_check=True))
    assert sha256(rows_to_csv_text(table).encode()) == (
        "834b92d01daeab5dc5b75bb3d228c329f602678339f6691620ae052e2d7e4a67"
    )
    assert sha256(rows_to_json_text(table).encode()) == (
        "b0d007692a8486f9b8c91efb14c1b97855db7280e80b0f3aa3d2f361b3662763"
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
