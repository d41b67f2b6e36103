"""Shared plumbing: thread pinning, loading the checkout's CLI, one invocation.

Every operation of the benchmark is one call of ``duality_lab.cli.main(argv)``
in the benchmark's own process, with standard output and standard error
captured.  The package is always imported from ``src/`` of the checkout that
holds this directory, never from an installed copy.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

BLAS_THREADS = 1
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """Pin BLAS pools to one thread and unset the package's own thread cap.

    Must run before numpy is imported; child processes inherit the settings.
    """
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("DUALITY_LAB_THREADS", None)


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no sources, wrong package)."""


def load_cli():
    """Import ``duality_lab.cli`` from this checkout's ``src/``."""
    if not (SRC / "duality_lab" / "cli.py").is_file():
        raise SetupError(f"no duality_lab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from duality_lab import cli

    origin = Path(cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"duality_lab was imported from {origin}, not from {SRC}")
    return cli


@dataclass(frozen=True)
class Call:
    """One CLI invocation: its arguments and the files it writes.

    ``expect_fault`` marks a call that fails today because of the
    cutoff-ceiling fault in ``fock.choose_cutoff``; it may also succeed once
    that fault is mended.
    """

    argv: tuple
    outputs: tuple = ()
    expect_fault: bool = False


@dataclass(frozen=True)
class Result:
    code: int
    stdout: str
    stderr: str


def invoke(main, call: Call) -> tuple[Result, float]:
    """Run one call through ``main``; returns its result and wall seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(list(call.argv))
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        elapsed = time.perf_counter() - start
    return Result(code, out.getvalue(), err.getvalue()), elapsed
