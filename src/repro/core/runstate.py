"""Columnar run state and the policy-decision cache.

This module owns the two structures that batch and memoize the hot policy
path (the top profiled cost after the PR 5 dispatcher work):

* :class:`TaskTable` — the run's task admissions restructured into
  struct-of-arrays columns (plain Python lists, no numpy dependency):
  parallel ``submit_times`` / ``gpus`` / ``is_gpu_task`` / ``session_ids``
  columns sorted by submit time, with a bisect range lookup that groups
  same-timestamp admissions into one :class:`AdmissionBatch`.
* :class:`DecisionCache` — version-guarded pure memoization of the policy
  decisions that are invariant between cluster deltas: placement candidate
  sets, effective SR limits, most-idle / warm-pool host probes,
  election-preferred replicas, replica proposals, and kernel namespace
  snapshots.

:class:`RunState` ties the two together: at the first admission of each
distinct submit timestamp it hands the whole same-timestamp batch to the
policy's ``decide_batch`` entry point (one policy call per policy per
timestamp, the way PR 5 fused same-timestamp dispatch), which warms the
decision cache the per-task chains then hit.

Bit-identity discipline
-----------------------
Every cache entry is ``key -> (guard, value)`` where the *guard* is a
snapshot of monotonic change counters maintained by the state the decision
reads:

* ``HostIndex.version`` — bumped by every ``add`` / ``discard`` /
  ``reindex``, i.e. by every placement-relevant cluster mutation (all of
  which funnel through the ``Host -> ClusterState`` delta hooks);
* ``Host.version`` — bumped by subscribe/unsubscribe/bind/release/
  decommission on the individual host;
* ``ContainerPrewarmer.version`` — bumped by every warm-pool mutation;
* ``DistributedKernel.decision_version`` — bumped by replica-set changes
  (add / remove); the kernel guards snapshot each replica's ``state``
  alongside it, so a bare state transition misses too.

A hit is only served when the guard is *equal* to the snapshot taken at
compute time, and the value is always produced by the same frozen code
path a cache-disabled run would execute — so a cached run is bit-identical
to the frozen per-task reference *by construction*; the only thing that
can go wrong is an insufficient guard, which is exactly what the
differential harness in ``tests/test_policy_batch.py`` attacks.

Counters may over-approximate change (a zero-GPU release still bumps its
host) — that only costs a cache miss, never a stale hit.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "AdmissionBatch",
    "DecisionCache",
    "RunState",
    "TaskTable",
    "compute_preferred_executor",
]


def compute_preferred_executor(kernel, gpus_required: int) -> Optional[str]:
    """The frozen preferred-executor selection (GlobalScheduler semantics).

    Prefers the previous executor when it can lead; otherwise the replica
    on the least-loaded host by ``(idle_gpus desc, subscribed_gpus asc)``.
    Pure: no RNG, no mutation — the actual election (which always consumes
    RNG) happens later in ``ExecutorElection.decide``.
    """
    # can_lead implies IDLE, so terminated replicas drop out in this pass.
    candidates = [replica for replica in kernel.replicas
                  if replica.can_lead(gpus_required)]
    if not candidates:
        return None
    election = kernel.election
    last = election.last_executor_id if election is not None else None
    if last is not None:
        for replica in candidates:
            if replica.replica_id == last:
                return last
    best = max(candidates,
               key=lambda r: (r.host.idle_gpus, -r.host.subscribed_gpus))
    return best.replica_id


class DecisionCache:
    """Version-guarded memoization of pure policy decisions.

    With ``enabled=False`` every lookup bypasses the store and calls the
    frozen compute path directly (no counters either) — that *is* the
    per-task reference implementation the differential tests compare
    against.  One cache serves one run/platform: keys assume a single
    placement policy instance and run-unique kernel ids.
    """

    __slots__ = ("enabled", "hits", "misses", "_store", "_namespaces")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self._store: Dict[Any, Tuple[Any, Any]] = {}
        self._namespaces: Dict[str, list] = {}

    def counters(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}

    def clear(self) -> None:
        self._store.clear()
        self._namespaces.clear()

    # ------------------------------------------------------------------
    # Core memoization step.
    # ------------------------------------------------------------------
    def _memo(self, key: Any, guard: Any, compute: Callable[[], Any]) -> Any:
        entry = self._store.get(key)
        if entry is not None and entry[0] == guard:
            self.hits += 1
            return entry[1]
        self.misses += 1
        value = compute()
        self._store[key] = (guard, value)
        return value

    # ------------------------------------------------------------------
    # Placement decisions (guard: cluster index version).
    # ------------------------------------------------------------------
    def sr_limit(self, cluster, replication_factor: int,
                 compute: Callable[[], float]) -> float:
        """Memoized effective subscription-ratio limit."""
        if not self.enabled:
            return compute()
        return self._memo(("sr", replication_factor), cluster.version, compute)

    def placement_candidates(self, cluster, request, replicas_needed: int,
                             replication_factor: int,
                             excluded_key: Tuple[str, ...],
                             compute: Callable[[], tuple]) -> tuple:
        """Memoized ``(hosts tuple, satisfied, reason)`` candidate selection.

        The caller rebuilds a fresh ``PlacementDecision`` around the tuple on
        every hit — consumers (``GlobalScheduler.start_kernel``) mutate the
        decision object they receive, so the cached value must stay frozen.
        """
        if not self.enabled:
            return compute()
        key = ("cand", request, replicas_needed, replication_factor,
               excluded_key)
        return self._memo(key, cluster.version, compute)

    def most_idle_host(self, cluster, min_idle: int):
        """Memoized Batch-baseline FCFS host probe."""
        if not self.enabled:
            return cluster.most_idle_host(min_idle)
        return self._memo(("idle", min_idle), cluster.version,
                          lambda: cluster.most_idle_host(min_idle))

    def warm_pool_host(self, cluster, prewarmer, gpus: int,
                       compute: Callable[[], Any]) -> Any:
        """Memoized LCP warm-host scan (guards cluster *and* warm pools)."""
        if not self.enabled:
            return compute()
        return self._memo(("warm", gpus), (cluster.version, prewarmer.version),
                          compute)

    # ------------------------------------------------------------------
    # Election-adjacent decisions (guard: kernel decision version plus each
    # replica's state and its host's version — can_lead reads both).
    # ------------------------------------------------------------------
    def _kernel_guard(self, kernel) -> list:
        # A flat, freshly built list: the cheapest guard to build and to
        # compare, and callers may append to it.
        guard = [kernel.decision_version]
        for replica in kernel.replicas:
            guard += (replica.state, replica.host.version)
        return guard

    def preferred_executor(self, kernel, gpus_required: int) -> Optional[str]:
        """Memoized preferred-executor selection for one kernel/request."""
        if not self.enabled:
            return compute_preferred_executor(kernel, gpus_required)
        election = kernel.election
        last = election.last_executor_id if election is not None else None
        guard = self._kernel_guard(kernel)
        guard.append(last)
        return self._memo(("pref", kernel.kernel_id, gpus_required), guard,
                          lambda: compute_preferred_executor(kernel,
                                                             gpus_required))

    def proposals(self, kernel, gpus_required: int) -> list:
        """Memoized replica LEAD/YIELD proposals for one kernel/request.

        Proposals are frozen dataclasses and ``ExecutorElection.decide``
        never mutates the list it receives, so sharing the cached list
        between election rounds is safe.
        """
        if not self.enabled:
            return kernel.make_proposals(gpus_required)
        return self._memo(("prop", kernel.kernel_id, gpus_required),
                          self._kernel_guard(kernel),
                          lambda: kernel.make_proposals(gpus_required))

    def namespace_objects(self, kernel) -> list:
        """Memoized kernel namespace snapshot (one per kernel, forever).

        A kernel's namespace model is fixed at construction — the objects
        are frozen and the workload assignment never changes — so the memo
        needs no guard.  Returning the *same list object* every call also
        lets the state synchronizer reuse its partition of the namespace by
        identity.
        """
        if not self.enabled:
            return kernel.namespace_objects()
        objects = self._namespaces.get(kernel.kernel_id)
        if objects is not None:
            self.hits += 1
            return objects
        self.misses += 1
        objects = kernel.namespace_objects()
        self._namespaces[kernel.kernel_id] = objects
        return objects


class TaskTable:
    """Struct-of-arrays columns over a trace's task admissions.

    Plain parallel lists sorted by submit time (stable sort, so equal
    timestamps keep trace order, matching the per-session admission order
    of the platform's replay loop).  ``refs`` carries the original
    ``(session, task)`` objects for consumers that need them.
    """

    __slots__ = ("submit_times", "gpus", "is_gpu_task", "session_ids",
                 "task_indexes", "refs")

    def __init__(self, trace=None) -> None:
        self.submit_times: List[float] = []
        self.gpus: List[int] = []
        self.is_gpu_task: List[bool] = []
        self.session_ids: List[str] = []
        self.task_indexes: List[int] = []
        self.refs: List[tuple] = []
        if trace is not None:
            rows = []
            for session in trace:
                for task in session.tasks:
                    rows.append((task.submit_time, session, task))
            rows.sort(key=lambda row: row[0])
            for submit_time, session, task in rows:
                self.submit_times.append(submit_time)
                self.gpus.append(task.gpus)
                self.is_gpu_task.append(task.is_gpu_task)
                self.session_ids.append(session.session_id)
                self.task_indexes.append(task.task_index)
                self.refs.append((session, task))

    def __len__(self) -> int:
        return len(self.submit_times)

    def batch_indices(self, time: float) -> range:
        """Column indices of every task submitting exactly at ``time``."""
        lo = bisect_left(self.submit_times, time)
        hi = bisect_right(self.submit_times, time, lo=lo)
        return range(lo, hi)


class AdmissionBatch:
    """One same-timestamp group of task admissions, as a columnar slice."""

    __slots__ = ("table", "time", "indices")

    def __init__(self, table: TaskTable, time: float, indices: range) -> None:
        self.table = table
        self.time = time
        self.indices = indices

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[tuple]:
        """Yield the original ``(session, task)`` pairs of the batch."""
        refs = self.table.refs
        for index in self.indices:
            yield refs[index]

    def gpu_requests(self) -> List[int]:
        """Distinct effective GPU request sizes, first-seen order.

        Non-GPU tasks contribute 0 (the effective request the per-task
        chains compute).  Policies warm one probe per distinct size instead
        of one per task.
        """
        seen = set()
        out: List[int] = []
        table = self.table
        for index in self.indices:
            gpus = table.gpus[index] if table.is_gpu_task[index] else 0
            if gpus not in seen:
                seen.add(gpus)
                out.append(gpus)
        return out


class RunState:
    """Per-run columnar state + decision cache + admission batching.

    Owned by the platform.  ``admit`` is called synchronously at every task
    admission (no simulated time passes inside it); at the first admission
    of each distinct submit timestamp it assembles the whole same-timestamp
    :class:`AdmissionBatch` from the task table and makes *one*
    ``decide_batch`` call into the policy.  ``decide_batch`` is pure
    cache-warming, so over- or under-inclusive batches (tasks whose
    sessions are delayed, say) cannot change behavior — only hit rates.
    """

    __slots__ = ("enabled", "decisions", "tasks", "batches", "batched_tasks",
                 "warmed", "_dispatched")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.decisions = DecisionCache(enabled=enabled)
        self.tasks: Optional[TaskTable] = None
        self.batches = 0
        self.batched_tasks = 0
        self.warmed = 0
        self._dispatched: set = set()

    def begin_run(self, trace) -> None:
        """Build the columnar task table for a workload replay."""
        if not self.enabled:
            return
        self.tasks = TaskTable(trace)
        self._dispatched = set()
        self.decisions.clear()

    def admit(self, platform, session, task) -> None:
        """Batch-warm policy decisions at each new admission timestamp."""
        if not self.enabled or self.tasks is None:
            return
        time = task.submit_time
        if platform.env.now != time or time in self._dispatched:
            # Late admissions (session startup pushed past the submit time)
            # fall back to the per-task path; the cache still serves them.
            return
        self._dispatched.add(time)
        batch = AdmissionBatch(self.tasks, time, self.tasks.batch_indices(time))
        self.batches += 1
        self.batched_tasks += len(batch)
        self.warmed += int(platform.policy.decide_batch(platform, batch) or 0)

    def counters(self) -> Dict[str, int]:
        """Cache + batching counters (published in the RUN_END stats)."""
        counters = self.decisions.counters()
        counters.update({"batches": self.batches,
                         "batched_tasks": self.batched_tasks,
                         "warmed": self.warmed})
        return counters
