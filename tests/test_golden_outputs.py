"""Byte-level pins on the sweep, verify and measures outputs.

Each digest is the SHA-256 of a file the CLI writes (or of its stdout),
recorded from the scalar per-point implementation that preceded the
columnar kernel.  Any change to the numbers, their formatting or the
column layout changes a digest.  Default grid flags unless shown.
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
                 "fad1c2205a25c0da88380c1ad3e7a686697e98aaffb1fdba6d8c299af3425d85", id="fig2a-oracle.csv"),
    pytest.param(["--mode", "fig2a", "--oracle", "--format", "json"], "out.json",
                 "53a3aa7bd63663e71b91674538d42f67dd0652ab9282b380829a146530e221e9", id="fig2a-oracle.json"),
    pytest.param(["--mode", "surface", "--amax", "8", "--astep", "0.04", "--gstep", "0.01",
                  "--format", "csv"], "out.csv",
                 "13a2ce9d55fc35b01513d53039cdc28da68d83fceef23d2d7b3491892d3e0119", id="surface-fine.csv"),
]

STDOUTS = [
    pytest.param(["verify", "--samples", "10000", "--seed", "0", "--json"],
                 "199618c0d60c19531c17a911546ee2db1137c3ce4b8e180c63123942bbce5160",
                 id="verify"),
    pytest.param(["measures", "--alpha1", "2", "--alpha2", "1", "--oracle", "--json"],
                 "1463c9fd5f88ba756e43c689a8834d7ac40f626f2cc7e8baa848f2ea6c985cb2",
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
        "ed2d2bf84ec1035dc5cb0dee3359e0aaddda0f5150e7b4cac190567b35416daf"
    )
    assert sha256(rows_to_json_text(table).encode()) == (
        "5363876b227c7a0e2e1ad280c2345a2a1d6672303362726be7d78efa5a70de81"
    )
