"""Calibrated replay benchmark for the NotebookOS simulator.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root.  ``NAME`` is one of the workloads below, or
``all`` to run each in turn.  Every workload runs in its own fresh Python
process with a fixed ``PYTHONHASHSEED`` (see ``measure.py``), so peak RSS
belongs to one workload and dict layout never varies between runs.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics untraced, per-layer metrics
with ``--trace 1``).  The exit code is nonzero when a correctness check
fails or the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Workload -> default trace seed.
WORKLOADS = {"oversub_notebookos": 3, "fcfs_batch": 3, "storm_shards": 13}
#: A run must end within three minutes; the child gets slightly less.
CHILD_TIMEOUT_S = 170


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload in a fresh process; returns its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, str(HERE / "measure.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    try:
        child = subprocess.run(command, cwd=ROOT, env=env,
                               stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload}: measurement process killed after "
                         f"{CHILD_TIMEOUT_S} s")
    lines = child.stdout.splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{workload}: measurement process exited with code "
                         f"{child.returncode} and no result")
    for line in lines[:-1]:
        print(line)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="trace seed (default: 3, 3 and 13)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program under test at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = {}
    for name in names:
        seed = WORKLOADS[name] if args.seed is None else args.seed
        reports[name] = run_one(name, seed, args.seconds, args.trace)
    if len(reports) == 1:
        final = reports[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in reports.values()),
                 "attempted": sum(r["attempted"] for r in reports.values()),
                 "failed": sum(r["failed"] for r in reports.values()),
                 "metrics": {f"{name}/{key}": value
                             for name, report in reports.items()
                             for key, value in report["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
