"""Policy-decision microbenchmark: cached/batched vs the frozen per-task path.

PR 3 made placement queries cheap; the policy layer on top of them still
recomputed every pure decision — SR limits, candidate sets, host probes,
election inputs, namespace snapshots — once per task, even when nothing in
the cluster had changed since the previous task.  This PR routes those
decisions through the version-guarded :class:`~repro.core.runstate.
DecisionCache` (warmed per admission batch by ``decide_batch``).  This
benchmark pins that win the same way ``bench_placement.py`` pins the
index's:

* **micro** — an identical mixed *policy decision chain* (SR limit +
  two-pass candidate selection + FCFS/most-idle probe + warm-pool scan +
  preferred executor + replica proposals + namespace snapshot, with GPU
  bind/release churn every few rounds so guard invalidation is paid inside
  the measured loop) runs against the decision cache
  (``DecisionCache(enabled=True)``) and the frozen reference path
  (``enabled=False``, which bypasses the store entirely) at 100 / 500 /
  1000 hosts.  A verification pass asserts both paths produce identical
  decisions before anything is timed.
* **scenarios** — end-to-end ``cluster_scale`` wall-clock with policy
  batching on vs. off (collector digests must match bit for bit), plus the
  serial-vs-parallel bit-identity check with batching enabled.

Results land in ``BENCH_policy.json`` next to this file (override with
``--output``).  CI runs ``--smoke --check``, which re-measures the 500-host
chain speedup and fails on a >20 % regression against the committed
baseline.

Usage::

    PYTHONPATH=src:. python benchmarks/bench_policy.py            # full run
    PYTHONPATH=src:. python benchmarks/bench_policy.py --smoke    # micro only
    PYTHONPATH=src:. python benchmarks/bench_policy.py --smoke --check
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from pathlib import Path

from repro.cluster.container import Container
from repro.cluster.host import Host
from repro.cluster.prewarmer import ContainerPrewarmer
from repro.cluster.resources import ResourceRequest
from repro.core.distributed_kernel import (
    DistributedKernel,
    KernelReplica,
    ReplicaState,
)
from repro.core.global_scheduler import ClusterState
from repro.core.placement import LeastLoadedPlacement
from repro.core.runstate import DecisionCache
from repro.simulation.engine import Environment

DEFAULT_OUTPUT = Path(__file__).with_name("BENCH_policy.json")

# Allowed regression before --check fails (on the machine-independent
# cached/frozen speedup ratio, at 500 hosts).
REGRESSION_TOLERANCE = 0.20
# Acceptance floor used when no baseline has been committed yet.
ACCEPTANCE_FLOOR = 1.2

HOST_COUNTS = (100, 500, 1000)
NUM_KERNELS = 32
DECISION_ROUNDS = 400   # each round runs the full 7-query decision chain
CHURN_EVERY = 12        # rounds between cluster deltas (guard invalidations)
REPEATS = 3


# ----------------------------------------------------------------------
# Synthetic cluster + kernel construction.
# ----------------------------------------------------------------------
def build_state(num_hosts: int, seed: int):
    """A loaded ClusterState plus kernels with replicas spread across it."""
    env = Environment()
    cluster = ClusterState(env)
    rng = random.Random(seed)
    hosts = []
    for i in range(num_hosts):
        host = Host(host_id=f"host-{i:05d}")
        cluster.add_host(host, scheduler=None)
        hosts.append(host)
        for k in range(rng.randrange(0, 6)):
            host.subscribe(f"kernel-{i}-{k}", rng.choice((1, 1, 2, 4)))

    kernels = []
    for k in range(NUM_KERNELS):
        kernel = DistributedKernel(
            kernel_id=f"bench-kernel-{k}", session_id=f"bench-session-{k}",
            resource_request=ResourceRequest(gpus=2))
        for index, host in enumerate(rng.sample(hosts, 3)):
            container = Container(host_id=host.host_id,
                                  resources=ResourceRequest(gpus=2),
                                  container_id=f"bench-container-{k}-{index}")
            replica = KernelReplica(
                replica_id=f"bench-kernel-{k}-{index}",
                kernel_id=kernel.kernel_id, replica_index=index,
                host=host, container=container)
            kernel.add_replica(replica)
            replica.state = ReplicaState.IDLE
        kernels.append(kernel)

    prewarmer = ContainerPrewarmer(env)
    for host in hosts[: num_hosts // 4]:
        prewarmer.register_host(host.host_id, runtime=None)
    return cluster, kernels, prewarmer, hosts


def _warm_scan(cluster, prewarmer, gpus):
    """The frozen LCP warm-host scan (mirrors LargeContainerPoolPolicy)."""
    available = prewarmer.available
    fallback = None
    for host in cluster.iter_hosts_by_idle_desc(gpus):
        if available(host.host_id):
            return host
        if fallback is None:
            fallback = host
    return fallback


def decision_chain(cluster, kernels, prewarmer, hosts,
                   policy: LeastLoadedPlacement, cache: DecisionCache,
                   rounds: int, seed: int) -> list:
    """Run the mixed policy-decision loop; returns every decision made.

    ``cache.enabled`` picks which path is exercised: the version-guarded
    memo or the frozen per-task reference (which computes everything).  GPU
    bind/release churn lands every ``CHURN_EVERY`` rounds, so the cached
    side pays guard invalidation and recomputation inside the measured
    region, and both sides traverse identical cluster states.
    """
    rng = random.Random(seed)
    policy.decisions = cache
    selections: list = []
    bound: list = []
    for round_no in range(rounds):
        kernel = kernels[rng.randrange(len(kernels))]
        gpus = rng.choice((0, 1, 1, 2, 4))
        request = ResourceRequest(millicpus=4000, memory_mb=16384, gpus=gpus,
                                  vram_gb=8.0 * gpus)

        sr_limit = policy.effective_sr_limit(cluster, 3)
        decision = policy.candidate_hosts(cluster, request, 3, 3)
        probe = cache.most_idle_host(cluster, max(gpus, 1))
        warm = cache.warm_pool_host(
            cluster, prewarmer, gpus,
            lambda: _warm_scan(cluster, prewarmer, gpus))
        preferred = cache.preferred_executor(kernel, gpus)
        proposals = cache.proposals(kernel, gpus)
        namespace = cache.namespace_objects(kernel)

        selections.append((
            sr_limit, tuple(decision.host_ids), decision.satisfied,
            probe.host_id if probe is not None else None,
            warm.host_id if warm is not None else None,
            preferred,
            tuple((p.replica_id, p.lead) for p in proposals),
            len(namespace)))

        if round_no % CHURN_EVERY == CHURN_EVERY - 1:
            # Churn: commit a placement, then release the oldest binding —
            # every guard (cluster, host, kernel) sees deltas.
            kernel_id = f"bench-churn-{round_no}"
            churn_gpus = rng.choice((1, 2))
            if decision.hosts and decision.hosts[0].can_bind_gpus(churn_gpus):
                decision.hosts[0].bind_gpus(kernel_id, churn_gpus,
                                            float(round_no))
                bound.append((decision.hosts[0], kernel_id))
            if len(bound) > 8:
                host, old_kernel = bound.pop(0)
                host.release_gpus(old_kernel, float(round_no))
    return selections


def verify_equivalence() -> None:
    """Cached and frozen decision chains must make identical decisions."""
    for num_hosts in HOST_COUNTS:
        cached = decision_chain(*build_state(num_hosts, seed=num_hosts),
                                LeastLoadedPlacement(),
                                DecisionCache(enabled=True), 80, seed=1)
        frozen = decision_chain(*build_state(num_hosts, seed=num_hosts),
                                LeastLoadedPlacement(),
                                DecisionCache(enabled=False), 80, seed=1)
        if cached != frozen:
            raise AssertionError(
                f"cached and frozen policy decisions disagree at "
                f"{num_hosts} hosts")


def run_micro() -> dict:
    """Best-of-N decision chains/sec per cluster size and path, plus speedups.

    Cached and frozen timings are interleaved repeat by repeat so slow
    drift in machine load biases both paths equally.
    """
    verify_equivalence()
    best: dict = {"cached": {}, "frozen": {}}
    hit_rates: dict = {}
    for num_hosts in HOST_COUNTS:
        for repeat in range(REPEATS):
            for side, enabled in (("cached", True), ("frozen", False)):
                state = build_state(num_hosts, seed=num_hosts)
                cache = DecisionCache(enabled=enabled)
                started = time.perf_counter()
                decision_chain(*state, LeastLoadedPlacement(), cache,
                               DECISION_ROUNDS, seed=repeat)
                elapsed = time.perf_counter() - started
                current = best[side].get(num_hosts)
                if current is None or elapsed < current:
                    best[side][num_hosts] = elapsed
                if enabled:
                    total = cache.hits + cache.misses
                    hit_rates[str(num_hosts)] = round(cache.hits / total, 3) \
                        if total else 0.0
    chains = DECISION_ROUNDS
    rates = {side: {str(n): chains / elapsed
                    for n, elapsed in timings.items()}
             for side, timings in best.items()}
    speedup = {str(n): rates["cached"][str(n)] / rates["frozen"][str(n)]
               for n in HOST_COUNTS}
    return {"chains_per_sec": rates, "speedup": speedup,
            "cache_hit_rate": hit_rates,
            "decision_rounds": DECISION_ROUNDS, "churn_every": CHURN_EVERY}


# ----------------------------------------------------------------------
# Scenario wall-clock timings (full run only).
# ----------------------------------------------------------------------
def _collector_digest(result) -> str:
    canonical = json.dumps(result.collector.to_dict(), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _end_to_end_ab() -> dict:
    """cluster_scale with batching off vs. on: identical digests, less wall."""
    from repro.api.simulation import Simulation

    def one(batching: bool):
        started = time.perf_counter()
        result = (Simulation.from_scenario("cluster_scale")
                  .with_policy("notebookos")
                  .with_policy_batching(batching)
                  .run())
        return time.perf_counter() - started, _collector_digest(result)

    best = {"frozen": float("inf"), "batched": float("inf")}
    digests = {}
    for repeat in range(REPEATS):
        for side, batching in (("frozen", False), ("batched", True)):
            elapsed, digest = one(batching)
            best[side] = min(best[side], elapsed)
            digests.setdefault(side, digest)
    if digests["frozen"] != digests["batched"]:
        raise AssertionError(
            "cluster_scale batched and frozen collector digests diverged")
    return {
        "frozen_s": round(best["frozen"], 2),
        "batched_s": round(best["batched"], 2),
        "speedup": round(best["frozen"] / best["batched"], 3),
        "digest_identical": True,
    }


def _serial_parallel_pair() -> dict:
    """Serial vs parallel cluster_scale runs, batching enabled (the default)."""
    from repro.experiments import default_registry
    from repro.experiments.runner import run_specs

    registry = default_registry()
    specs = [registry.get("cluster_scale").instantiate(seed=seed)
             for seed in (3, 4)]

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
            "cluster_scale serial and parallel runs are not bit-identical "
            "with policy batching enabled")
    return {
        "specs": [spec.label for spec in specs],
        "serial_s": round(serial_s, 2),
        "parallel_s": round(parallel_s, 2),
        "serial_parallel_bit_identical": identical,
    }


def run_scenarios() -> dict:
    return {"cluster_scale": _end_to_end_ab(),
            "cluster_scale_dispatch": _serial_parallel_pair()}


def check_regression(measured_speedup: float, baseline_path: Path) -> int:
    """Fail (non-zero) on a >20 % chain-speedup regression vs the baseline."""
    try:
        baseline = json.loads(baseline_path.read_text())
        baseline_speedup = baseline["micro"]["speedup"]["500"]
    except (OSError, ValueError, KeyError):
        print(f"check: no committed baseline at {baseline_path}; "
              f"requiring the {ACCEPTANCE_FLOOR}x acceptance floor instead")
        baseline_speedup = ACCEPTANCE_FLOOR
    floor = baseline_speedup * (1.0 - REGRESSION_TOLERANCE)
    verdict = "ok" if measured_speedup >= floor else "REGRESSION"
    print(f"check: 500-host chain speedup {measured_speedup:.2f}x vs baseline "
          f"{baseline_speedup:.2f}x (floor {floor:.2f}x): {verdict}")
    return 0 if measured_speedup >= floor else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="micro benchmark only; skip the scenario timings")
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed BENCH_policy.json "
                             "and exit non-zero on a >20%% regression "
                             "(does not overwrite the baseline)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="where to write the results JSON")
    args = parser.parse_args(argv)

    micro = run_micro()
    for n in HOST_COUNTS:
        key = str(n)
        print(f"{n:>5} hosts: "
              f"frozen {micro['chains_per_sec']['frozen'][key]:>9,.0f} chains/s   "
              f"cached {micro['chains_per_sec']['cached'][key]:>9,.0f} chains/s   "
              f"{micro['speedup'][key]:.1f}x "
              f"(hit rate {micro['cache_hit_rate'][key]:.0%})")

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
