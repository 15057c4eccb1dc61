"""The kernel state synchronizer.

After each cell execution, the executor replica:

1. analyses the cell's AST to find the namespace variables that changed
   (:mod:`repro.statesync.ast_analysis`),
2. replicates the AST plus all *small* changed objects through the kernel's
   Raft log, and
3. checkpoints the *large* changed objects to the distributed data store,
   recording only pointers in the log (§3.2.4).

Both steps happen off the user-request critical path; the high inter-arrival
times of IDLT workloads hide the latency (§5.4 / Fig. 11).  They run as a
:class:`Replication` job whose steps are scheduled with
:meth:`Environment.defer` at the cell's completion instant, not as a
simulation process: one engine entry for the commit and one per large-object
write.

The Raft commit of step 2 is not simulated message by message: its round
trip is drawn from a log-normal :class:`SyncLatencyModel`, because running
per-kernel heartbeats for days of virtual time would be wasteful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


class Replication:
    """One cell's post-execution replication, scheduled on the engine.

    :meth:`StateSynchronizer.replicate` builds it at the cell's completion
    instant and passes its bound methods to :meth:`Environment.defer`: the
    Raft commit first, then one deferred step per large-object write.  No
    process or generator is involved, and the job holds no reference to
    its own steps, so it is freed by reference counting once its last step
    has run.

    ``analysis`` and ``large_objects`` are what the cell replicates;
    ``raft_sync_latency`` is 0.0 until the commit lands (and stays 0.0 for
    a cell that touches no state).
    """

    __slots__ = ("analysis", "large_objects", "raft_sync_latency", "_sync",
                 "_sink", "_next", "_start")

    def __init__(self, sync: "StateSynchronizer", analysis: CodeAnalysis,
                 large_objects: List[NamespaceObject],
                 sink: List[float]) -> None:
        self.analysis = analysis
        self.large_objects = large_objects
        self.raft_sync_latency = 0.0
        self._sync = sync
        self._sink = sink
        self._next = 0
        self._start = 0.0

    def _commit(self, _call) -> None:
        """The Raft commit of the cell's AST and small state has landed."""
        sync = self._sync
        latency = self.raft_sync_latency = sync.env.now - self._start
        sync.sync_latencies.append(latency)
        if self.large_objects:
            self._write_next()
        else:
            self._done()

    def _write_next(self) -> None:
        """Begin writing the next large object to the data store."""
        sync = self._sync
        env = sync.env
        self._start = env.now
        env.defer(sync.checkpoint_manager.datastore.begin_write(
            self.large_objects[self._next].size_bytes), self._written)

    def _written(self, _call) -> None:
        """One large-object write has landed: record it, start the next."""
        sync = self._sync
        large = self.large_objects
        sync.checkpoint_manager._written(large[self._next], self._start)
        self._next += 1
        if self._next < len(large):
            self._write_next()
        else:
            self._done()

    def _done(self) -> None:
        latency = self.raft_sync_latency
        if latency > 0:
            self._sink.append(latency)


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

    def replicate(self, code: str,
                  namespace_objects: Sequence[NamespaceObject],
                  sink: List[float]) -> Replication:
        """Replicate the state ``code`` touched, off the critical path.

        Called at the instant the cell completes.  ``namespace_objects``
        describes the post-execution kernel namespace; only objects whose
        names the AST analysis marks as assigned or mutated are replicated.
        If the cell touches state, a Raft commit latency is drawn from this
        kernel's stream and the commit is scheduled; once it lands, each
        large touched object is written to the data store in namespace
        order.  After the last write (at the commit if there is none), a
        positive Raft latency is appended to ``sink``.  Returns the
        scheduled job.
        """
        analysis = analyze_code(code)
        touched = analysis.names_to_replicate
        # Large objects are touched names, so a cell that writes one always
        # commits first.
        large = [obj for obj in namespace_objects
                 if obj.size_bytes >= LARGE_OBJECT_THRESHOLD_BYTES
                 and obj.name in touched]
        job = Replication(self, analysis, large, sink)
        if analysis.touches_state:
            env = self.env
            job._start = env.now
            env.defer(self.latency_model.sample(self._rng), job._commit)
        return job
