"""Placement microbenchmark: indexed vs sort-based scheduling decisions.

PR 2 made the event engine ~2x faster; the scheduler layer then became the
bottleneck — every placement decision re-sorted the full host list.  PR 3
replaced those sorts with the incrementally maintained
:class:`~repro.cluster.index.HostIndex` inside :class:`ClusterState`.  This
benchmark pins that win:

* **micro** — an identical mixed decision workload (kernel placements with
  the two-pass SR limit, migration targeting with exclusion lists, plus GPU
  bind/release churn between decisions so index maintenance is paid inside
  the measured loop) runs against the indexed fast path (queries take the
  ``ClusterState``) and the sort-based slow path (queries take the
  materialized ``active_hosts`` list, exactly what the Global Scheduler
  passed before this PR) at 100 / 500 / 1000 hosts.  A verification pass
  asserts both paths select identical hosts before anything is timed.
* **scenarios** — end-to-end wall-clock for ``cluster_scale`` and the
  ~1000-host ``mega_scale`` scenario, including the serial-vs-parallel
  bit-identity check.

Results land in ``BENCH_placement.json`` next to this file (override with
``--output``).  CI runs ``--smoke --check``, which re-measures the 500-host
speedup and fails on a >20 % regression against the committed baseline.

Usage::

    PYTHONPATH=src:. python benchmarks/bench_placement.py            # full run
    PYTHONPATH=src:. python benchmarks/bench_placement.py --smoke    # micro only
    PYTHONPATH=src:. python benchmarks/bench_placement.py --smoke --check
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

from repro.cluster.host import Host
from repro.cluster.resources import ResourceRequest
from repro.core.global_scheduler import ClusterState
from repro.core.placement import LeastLoadedPlacement
from repro.simulation.engine import Environment

DEFAULT_OUTPUT = Path(__file__).with_name("BENCH_placement.json")

# Allowed decisions/sec regression before --check fails (on the
# machine-independent indexed/sorted speedup ratio, at 500 hosts).
REGRESSION_TOLERANCE = 0.20

HOST_COUNTS = (100, 500, 1000)
DECISION_ROUNDS = 300   # each round: 1 kernel placement + 1 migration target
REPEATS = 3


# ----------------------------------------------------------------------
# Synthetic cluster construction.
# ----------------------------------------------------------------------
def build_cluster(num_hosts: int, seed: int) -> ClusterState:
    """A ClusterState with a randomized but deterministic load pattern."""
    env = Environment()
    cluster = ClusterState(env)
    rng = random.Random(seed)
    for i in range(num_hosts):
        host = Host(host_id=f"host-{i:05d}")
        cluster.add_host(host, scheduler=None)
        for k in range(rng.randrange(0, 6)):
            host.subscribe(f"kernel-{i}-{k}", rng.choice((1, 1, 2, 4)))
        for k in range(rng.randrange(0, 3)):
            gpus = rng.choice((1, 2))
            if host.can_bind_gpus(gpus) and host.has_subscription(f"kernel-{i}-{k}"):
                host.bind_gpus(f"kernel-{i}-{k}", gpus, 0.0)
    return cluster


def decision_workload(cluster: ClusterState, policy: LeastLoadedPlacement,
                      rounds: int, seed: int, indexed: bool) -> list:
    """Run the mixed decision loop; returns the selected host ids.

    ``indexed`` picks which query path is exercised: the ClusterState (host
    index) or the materialized ``active_hosts`` list (the pre-PR sort path).
    The loop binds GPUs on placed hosts and releases earlier bindings between
    decisions, so the indexed side pays its maintenance cost inside the
    measured region and both sides traverse identical cluster states.
    """
    rng = random.Random(seed)
    selections: list = []
    bound: list = []
    for round_no in range(rounds):
        gpus = rng.choice((1, 1, 2, 4))
        request = ResourceRequest(millicpus=4000, memory_mb=16384, gpus=gpus,
                                  vram_gb=8.0 * gpus)
        source = cluster if indexed else cluster.active_hosts
        decision = policy.candidate_hosts(source, request, 3, 3)
        selections.append(tuple(decision.host_ids))
        exclude = decision.host_ids[:3]
        source = cluster if indexed else cluster.active_hosts
        target = policy.migration_target(source, request, 3,
                                         exclude_hosts=exclude)
        selections.append(target.host_id if target is not None else None)
        # Churn: commit the placement, then release the oldest binding.
        kernel_id = f"bench-{round_no}"
        if decision.hosts and decision.hosts[0].can_bind_gpus(gpus):
            decision.hosts[0].bind_gpus(kernel_id, gpus, float(round_no))
            bound.append((decision.hosts[0], kernel_id))
        if len(bound) > 8:
            host, old_kernel = bound.pop(0)
            host.release_gpus(old_kernel, float(round_no))
    return selections


def verify_equivalence() -> None:
    """Indexed and sort-based paths must select identical hosts."""
    policy = LeastLoadedPlacement()
    for num_hosts in HOST_COUNTS:
        indexed = decision_workload(build_cluster(num_hosts, seed=num_hosts),
                                    policy, 60, seed=1, indexed=True)
        sorted_ = decision_workload(build_cluster(num_hosts, seed=num_hosts),
                                    policy, 60, seed=1, indexed=False)
        if indexed != sorted_:
            raise AssertionError(
                f"indexed and sort-based placement disagree at {num_hosts} hosts")


def run_micro() -> dict:
    """Best-of-N decisions/sec per cluster size and path, plus speedups.

    Indexed and sorted timings are interleaved repeat by repeat so slow
    drift in machine load biases both paths equally.
    """
    verify_equivalence()
    policy = LeastLoadedPlacement()
    best: dict = {"indexed": {}, "sorted": {}}
    for num_hosts in HOST_COUNTS:
        for repeat in range(REPEATS):
            for side, indexed in (("indexed", True), ("sorted", False)):
                cluster = build_cluster(num_hosts, seed=num_hosts)
                started = time.perf_counter()
                decision_workload(cluster, policy, DECISION_ROUNDS,
                                  seed=repeat, indexed=indexed)
                elapsed = time.perf_counter() - started
                current = best[side].get(num_hosts)
                if current is None or elapsed < current:
                    best[side][num_hosts] = elapsed
    decisions = 2 * DECISION_ROUNDS
    rates = {side: {str(n): decisions / elapsed
                    for n, elapsed in timings.items()}
             for side, timings in best.items()}
    speedup = {str(n): rates["indexed"][str(n)] / rates["sorted"][str(n)]
               for n in HOST_COUNTS}
    return {"decisions_per_sec": rates, "speedup": speedup,
            "decision_rounds": DECISION_ROUNDS}


# ----------------------------------------------------------------------
# Scenario wall-clock timings (full run only).
# ----------------------------------------------------------------------
def _time_pair(registry, name: str, seeds: tuple) -> dict:
    from repro.experiments.runner import run_specs

    specs = [registry.get(name).instantiate(seed=seed) for seed in seeds]

    started = time.perf_counter()
    serial = run_specs(specs, workers=1, store=None)
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    parallel = run_specs(specs, workers=2, store=None)
    parallel_s = time.perf_counter() - started

    identical = all(
        json.dumps(a.result.to_dict()["collector"], sort_keys=True) ==
        json.dumps(b.result.to_dict()["collector"], sort_keys=True)
        for a, b in zip(serial, parallel))
    if not identical:
        raise AssertionError(
            f"{name} serial and parallel runs are not bit-identical")
    return {
        "specs": [spec.label for spec in specs],
        "serial_s": round(serial_s, 2),
        "serial_s_per_spec": round(serial_s / len(specs), 2),
        "parallel_s": round(parallel_s, 2),
        "serial_parallel_bit_identical": identical,
    }


def run_scenarios() -> dict:
    from repro.experiments import default_registry

    registry = default_registry()
    timings: dict = {}

    timings["cluster_scale"] = _time_pair(registry, "cluster_scale", (3, 4))
    timings["mega_scale"] = _time_pair(registry, "mega_scale", (5, 6))
    return timings


def check_regression(measured_speedup: float, baseline_path: Path) -> int:
    """Fail (non-zero) on a >20 % decisions/sec regression vs the baseline."""
    try:
        baseline = json.loads(baseline_path.read_text())
        baseline_speedup = baseline["micro"]["speedup"]["500"]
    except (OSError, ValueError, KeyError):
        print(f"check: no committed baseline at {baseline_path}; "
              f"requiring the 5x acceptance floor instead")
        baseline_speedup = 5.0
    floor = baseline_speedup * (1.0 - REGRESSION_TOLERANCE)
    verdict = "ok" if measured_speedup >= floor else "REGRESSION"
    print(f"check: 500-host speedup {measured_speedup:.2f}x vs baseline "
          f"{baseline_speedup:.2f}x (floor {floor:.2f}x): {verdict}")
    return 0 if measured_speedup >= floor else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="micro benchmark only; skip the scenario timings")
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed BENCH_placement.json "
                             "and exit non-zero on a >20%% regression "
                             "(does not overwrite the baseline)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="where to write the results JSON")
    args = parser.parse_args(argv)

    micro = run_micro()
    for n in HOST_COUNTS:
        key = str(n)
        print(f"{n:>5} hosts: "
              f"sorted {micro['decisions_per_sec']['sorted'][key]:>10,.0f} dec/s   "
              f"indexed {micro['decisions_per_sec']['indexed'][key]:>10,.0f} dec/s   "
              f"{micro['speedup'][key]:.1f}x")

    if args.check:
        return check_regression(micro["speedup"]["500"], args.output)

    results = {"micro": micro}
    if not args.smoke:
        results["scenarios"] = run_scenarios()
        for scenario, timing in results["scenarios"].items():
            print(f"{scenario}: {timing}")

    args.output.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
