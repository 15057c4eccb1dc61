"""Per-layer attribution of one profiled replay.

A layer is a ``repro.<package>``; stdlib ``random`` (and the C methods of
``_random.Random``) is the layer ``rng``.  Builtins and other stdlib
functions have no layer of their own: their self time is charged to the
layers that called them, in proportion to the time each caller spent in
them (recursively, through stdlib-to-stdlib calls).  A *call in* is a
profiled call whose callee is in a layer and whose caller is not; a
layer's *inclusive* time sums those calls' cumulative time, so a nested
re-entry (core -> simulation -> core) is counted again.

cProfile measures with its own (wall) clock and slows calls, not C code,
so its seconds are only used as shares: every time below is that share of
the calibrated CPU seconds the profiled replay took.
"""

from __future__ import annotations

import os
import pstats
import random
import statistics
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import repro

#: Layers with per-layer metrics, in the order they are reported.
LAYERS = ("simulation", "core", "cluster", "policies", "statesync",
          "metrics", "telemetry", "qos", "shard", "rng")
#: Program packages no workload reaches, and why.
NOT_EXERCISED = ("repro.raft (RaftCluster is built only by tests)",
                 "repro.resilience (supervision runs only in the parallel "
                 "shard driver)")

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep
_RANDOM_FILE = os.path.abspath(random.__file__)

Key = Tuple[str, int, str]


def classify(key: Key) -> Optional[str]:
    """The layer a profiled function belongs to, or None (builtin/stdlib)."""
    filename, _line, name = key
    if "_random.Random" in name:
        return "rng"
    path = os.path.abspath(filename) if filename != "~" else filename
    if path.startswith(_REPRO_DIR):
        package = path[len(_REPRO_DIR):].split(os.sep, 1)
        return package[0] if len(package) == 2 else "repro"
    if path.startswith(_BENCH_DIR):
        return "bench"
    if path == _RANDOM_FILE:
        return "rng"
    return None


class _Attribution:
    def __init__(self, stats: Dict[Key, tuple]) -> None:
        self.stats = stats
        self._memo: Dict[Key, Dict[str, float]] = {}

    def shares(self, key: Key, visiting=frozenset()) -> Dict[str, float]:
        """Fraction of ``key``'s self time charged to each layer."""
        if key in self._memo:
            return self._memo[key]
        layer = classify(key)
        if layer is not None:
            return {layer: 1.0}
        callers = self.stats.get(key, (0, 0, 0.0, 0.0, {}))[4]
        if not callers or key in visiting:
            return {"unattributed": 1.0}
        weights = {caller: edge[2] for caller, edge in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {caller: edge[1] for caller, edge in callers.items()}
        total = sum(weights.values()) or 1.0
        shares: Dict[str, float] = defaultdict(float)
        for caller, weight in weights.items():
            for layer, part in self.shares(caller, visiting | {key}).items():
                shares[layer] += part * weight / total
        self._memo[key] = dict(shares)
        return self._memo[key]

    def layer_of(self, key: Key) -> str:
        shares = self.shares(key)
        return max(shares, key=shares.get)


def layer_table(profile, replay_s: float) -> Dict[str, Dict[str, float]]:
    """Per layer: calls in, self and inclusive seconds, share of self time.

    ``replay_s`` is the profiled replay's calibrated CPU seconds; the
    profile's own seconds are scaled onto it.
    """
    stats = pstats.Stats(profile).stats
    attribution = _Attribution(stats)
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "share": 0.0})
    total = sum(entry[2] for entry in stats.values()) or 1.0
    scale = replay_s / total
    for key, (_cc, calls, self_time, cumulative, callers) in stats.items():
        for layer, part in attribution.shares(key).items():
            table[layer]["self_s"] += self_time * part * scale
            table[layer]["share"] += self_time * part / total
        layer = classify(key)
        if layer is None:
            continue
        # Calls made by frames entered before profiling began (the loop
        # around the replay) have no recorded caller: they enter from
        # outside the program.
        outside = (calls - sum(edge[1] for edge in callers.values()),
                   cumulative - sum(edge[3] for edge in callers.values()))
        edges = [(edge[1], edge[3]) for caller, edge in callers.items()
                 if attribution.layer_of(caller) != layer]
        for count, seconds in edges + [outside]:
            if count > 0:
                table[layer]["calls"] += count
                table[layer]["incl_s"] += max(seconds, 0.0) * scale
    table["_edges"] = _named_edges(stats, scale)
    return table


def _named_edges(stats, scale) -> Dict[str, float]:
    """The few function-level counts the per-layer metrics need."""
    polls = merge_s = 0.0
    for key, (_cc, calls, _tt, cumulative, callers) in stats.items():
        layer, name = classify(key), key[2]
        if layer == "policies" and name == "_find_host":
            polls += calls
        if layer == "shard" and name == "merge_results":
            merge_s += cumulative * scale
        if layer == "metrics" and name in ("to_dict", "from_dict") \
                and not callers:
            # The shard driver's result round-trip: the only result
            # (de)serialization with no profiled caller.
            merge_s += cumulative * scale
    return {"polls": polls, "merge_s": merge_s}


def format_table(table) -> List[str]:
    rows = sorted(((layer, row) for layer, row in table.items()
                   if not layer.startswith("_")),
                  key=lambda item: -item[1]["self_s"])
    lines = [f"  {'layer':<14} {'calls in':>10} {'self s':>9} {'share':>7} "
             f"{'incl s':>9}"]
    for layer, row in rows:
        lines.append(f"  {layer:<14} {int(row['calls']):>10} "
                     f"{row['self_s']:>9.4f} {100 * row['share']:>6.2f}% "
                     f"{row['incl_s']:>9.4f}")
    return lines


def per_layer_metrics(table, traced, setups, untraced_replay_s,
                      trace_tasks) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of the benchmark, as (value, unit)."""
    stats = traced.stats
    result = traced.result
    collector = result.collector

    def total(section: str, key: str) -> float:
        return sum(s.get(section, {}).get(key, 0) for s in stats)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    dispatched = total("dispatch", "dispatched")
    hits, misses = total("decisions", "hits"), total("decisions", "misses")
    ast_hits = sum(s.get("ast_cache_hits", 0) for s in stats)
    ast_misses = sum(s.get("ast_cache_misses", 0) for s in stats)
    decisions = collector.executor_decisions
    qos_actions = sum(target["actions_fired"] for s in stats
                      for target in s.get("qos", {}).get("targets", {})
                      .values())
    metrics: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        row = table.get(layer, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        metrics[f"{layer}.self_s"] = (row["self_s"], "s")
        metrics[f"{layer}.calls"] = (row["calls"], "count")
        metrics[f"{layer}.incl_s"] = (row["incl_s"], "s")
    metrics.update({
        "simulation.dispatched": (dispatched, "count"),
        "simulation.entries_per_task": (ratio(dispatched, trace_tasks),
                                        "entries/task"),
        "simulation.fusion": (ratio(dispatched,
                                    total("dispatch", "batches")),
                              "entries/batch"),
        "core.decision_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "core.admission_batch_size": (
            ratio(total("decisions", "batched_tasks"),
                  total("decisions", "batches")), "tasks/batch"),
        "core.election_fail_ratio": (
            ratio(decisions - collector.immediate_gpu_commit_count,
                  decisions), "ratio"),
        "core.migrations": (result.migration_count(), "count"),
        "core.scale_outs": (result.scale_out_count(), "count"),
        "cluster.index_versions": (traced.index_versions, "count"),
        "policies.polls_per_task": (ratio(table["_edges"]["polls"],
                                          trace_tasks), "polls/task"),
        "statesync.ast_hit_ratio": (ratio(ast_hits, ast_hits + ast_misses),
                                    "ratio"),
        "qos.actions": (qos_actions, "count"),
        "shard.merge_s": (table["_edges"]["merge_s"], "s"),
        "shard.epoch_imbalance": (epoch_imbalance(stats), "ratio"),
        "workload.trace_s": (statistics.median(
            rep.trace[1] for rep in setups), "s"),
        "api.build_s": (statistics.median(
            rep.setup[1] - rep.trace[1] for rep in setups), "s"),
        "trace_overhead": (ratio(traced.replay[1], untraced_replay_s),
                           "ratio"),
    })
    return metrics


def epoch_imbalance(stats) -> float:
    """Mean over epochs of max / mean entries dispatched across shards.

    A single platform is one shard, so it reads 1.0.
    """
    per_shard = [s["shard"]["dispatched_per_epoch"] for s in stats
                 if "shard" in s]
    if len(per_shard) < 2:
        return 1.0
    ratios = []
    for epoch in zip(*per_shard):
        mean = sum(epoch) / len(epoch)
        if mean > 0:
            ratios.append(max(epoch) / mean)
    return sum(ratios) / len(ratios) if ratios else 1.0
