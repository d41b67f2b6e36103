"""Set-up probe: one fresh process doing a run's set-up, then stopping.

    python3 perfbench/probe.py WORKLOAD SEED WORKDIR SIZE

It imports ``duality_lab.cli``, draws the workload's inputs, makes the
untimed warm-up call and prints ``ready`` at the point where a run would make
its first timed call.  ``run.py`` times it from process start to that line.
"""

from __future__ import annotations

import sys
from pathlib import Path

from harness import invoke, load_cli, pin_threads


def main(argv) -> int:
    workload, seed, workdir, size = argv
    pin_threads()
    cli = load_cli()
    from workloads import build_plan

    plan = build_plan(workload, int(seed), Path(workdir), size)
    result, _ = invoke(cli.main, plan.warmup)
    if result.code != 0:
        print(f"warm-up call exited {result.code}: {result.stderr[-500:]}", file=sys.stderr)
        return 1
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
