"""The kernel state synchronizer.

After each cell execution, the executor replica:

1. analyses the cell's AST to find the namespace variables that changed
   (:mod:`repro.statesync.ast_analysis`),
2. replicates the AST plus all *small* changed objects through the kernel's
   Raft log, and
3. checkpoints the *large* changed objects to the distributed data store,
   recording only pointers in the log (§3.2.4).

Both steps happen off the user-request critical path; the high inter-arrival
times of IDLT workloads hide the latency (§5.4 / Fig. 11).

The Raft commit of step 2 is not simulated message by message: its round
trip is drawn from a log-normal :class:`SyncLatencyModel`, because running
per-kernel heartbeats for days of virtual time would be wasteful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.simulation.distributions import SeededRandom, stable_seed
from repro.simulation.engine import Environment
from repro.statesync.ast_analysis import CodeAnalysis, analyze_code
from repro.statesync.checkpoint import CheckpointManager
from repro.statesync.objects import LARGE_OBJECT_THRESHOLD_BYTES, NamespaceObject


@dataclass
class SyncLatencyModel:
    """Log-normal model of a Raft small-state commit round trip.

    Figure 11 of the paper reports p90 / p95 / p99 sync latencies of
    54.79 / 66.69 / 268.25 ms.  The defaults (median 15 ms, sigma 1.05)
    give analytic quantiles of 57.6 / 84.4 / 172.6 ms (200,000 samples
    agree within 3%), so only p90 matches: p95 is high and p99 is low.
    With sigma 1.05 the ratio p99 / p90 is 3.0, against the paper's 4.9, so
    no choice of median fits all three.
    """

    median_s: float = 0.015
    sigma: float = 1.05
    minimum_s: float = 0.002

    def sample(self, rng: SeededRandom) -> float:
        return max(self.minimum_s,
                   rng.lognormvariate(math.log(self.median_s), self.sigma))


@dataclass
class SyncReport:
    """Outcome of synchronizing one cell execution's state."""

    analysis: CodeAnalysis
    small_objects: List[NamespaceObject] = field(default_factory=list)
    large_objects: List[NamespaceObject] = field(default_factory=list)
    raft_sync_latency: float = 0.0
    checkpoint_latency: float = 0.0
    bytes_via_raft: int = 0
    bytes_via_datastore: int = 0

    @property
    def total_latency(self) -> float:
        return self.raft_sync_latency + self.checkpoint_latency

    @property
    def replicated_names(self) -> List[str]:
        return [obj.name for obj in self.small_objects + self.large_objects]


class StateSynchronizer:
    """Replicates one kernel's post-execution state to its standby replicas."""

    def __init__(self, env: Environment, kernel_id: str,
                 checkpoint_manager: CheckpointManager,
                 latency_model: Optional[SyncLatencyModel] = None,
                 rng: Optional[SeededRandom] = None) -> None:
        self.env = env
        self.kernel_id = kernel_id
        self.checkpoint_manager = checkpoint_manager
        self.latency_model = latency_model or SyncLatencyModel()
        self._rng = rng or SeededRandom(stable_seed(kernel_id))
        self.sync_latencies: List[float] = []
        # code -> full sync plan: (namespace list object, small, large,
        # small bytes, large bytes).  An entry is valid only while the
        # caller passes the *same* namespace list object (identity check):
        # DistributedKernel.namespace_objects builds its list once and
        # returns it on every call, so repeated executions of the same cell
        # skip the filter/partition scans and the byte sums.  The cache key
        # is the same source text the content-keyed AST memo
        # (repro.statesync.ast_analysis.analyze_code) is keyed on, so a hit
        # here pairs with a hit there and the whole replication plan for a
        # checkpoint round is O(1) per call.  A caller that passes a fresh
        # list each time just recomputes — same result either way (the
        # partition is deterministic).
        self._partition_cache: dict = {}

    def synchronize(self, code: str, namespace_objects: Sequence[NamespaceObject],
                    node_id: Optional[str] = None):
        """Simulation process: replicate the state touched by ``code``.

        ``namespace_objects`` describes the post-execution values of the
        kernel namespace; only objects whose names the AST analysis marks as
        assigned/mutated are replicated.  ``node_id`` is the executor
        replica, which writes the large-object checkpoints.
        """
        analysis = analyze_code(code)
        cached = self._partition_cache.get(code)
        if cached is not None and cached[0] is namespace_objects:
            _, small, large, small_bytes, large_bytes = cached
        else:
            # One pass: the touched objects split by classify_object's
            # threshold (sizes are validated non-negative at construction).
            touched_names = analysis.names_to_replicate
            small = []
            large = []
            for obj in namespace_objects:
                if obj.name in touched_names:
                    if obj.size_bytes >= LARGE_OBJECT_THRESHOLD_BYTES:
                        large.append(obj)
                    else:
                        small.append(obj)
            small_bytes = sum(obj.size_bytes for obj in small)
            large_bytes = sum(obj.size_bytes for obj in large)
            self._partition_cache[code] = (
                namespace_objects, small, large, small_bytes, large_bytes)
        report = SyncReport(analysis=analysis, small_objects=small, large_objects=large)

        # Step 1: AST + small state through the Raft log (a modelled commit).
        if analysis.touches_state:
            start = self.env.now
            yield self.latency_model.sample(self._rng)
            report.raft_sync_latency = self.env.now - start
            report.bytes_via_raft = small_bytes
            self.sync_latencies.append(report.raft_sync_latency)

        # Step 2: large objects to the distributed data store (pointers only
        # in the log, handled by the checkpoint manager).
        if large:
            start = self.env.now
            yield from self.checkpoint_manager.checkpoint_all(
                large, node_id=node_id)
            report.checkpoint_latency = self.env.now - start
            report.bytes_via_datastore = large_bytes

        return report
