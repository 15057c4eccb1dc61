"""The Global Scheduler: placement, routing, migration, and failure handling.

The Global Scheduler (Figure 3) creates distributed kernels, selects the GPU
servers that host their replicas, routes execute requests, orchestrates the
executor election, migrates replicas when every replica yields, and triggers
scale-out when placement fails.  It performs the majority of the platform's
book-keeping, which is what the metrics collector taps into.
"""

from __future__ import annotations

from itertools import count
from typing import Dict, List, Optional

from repro.api.hooks import (
    MIGRATION,
    PLACEMENT_DECISION,
    PLATFORM_EVENT,
    SCALE_IN,
    SCALE_OUT,
    HookBus,
)
from repro.cluster.datastore import DistributedDataStore
from repro.cluster.host import Host
from repro.cluster.index import HostIndex
from repro.cluster.prewarmer import ContainerPrewarmer
from repro.cluster.provisioner import VMProvisioner
from repro.cluster.resources import ResourceRequest
from repro.core.config import ClusterConfig, PlatformConfig
from repro.core.distributed_kernel import DistributedKernel, KernelReplica, ReplicaState
from repro.core.election import ExecutorElection, ReplicaProposal
from repro.core.local_scheduler import (
    LocalScheduler,
    start_kernel_replicas,
    terminate_kernel_replicas,
)
from repro.core.placement import LeastLoadedPlacement, PlacementPolicy
from repro.metrics.collector import EventKind, MetricsCollector
from repro.simulation.distributions import SeededRandom
from repro.simulation.engine import Environment
from repro.simulation.events import AllOf
from repro.statesync.checkpoint import CheckpointManager
from repro.statesync.synchronizer import StateSynchronizer
from repro.workload.models import WorkloadAssignment


class ClusterState:
    """The Global Scheduler's view of the GPU server cluster.

    The totals the metrics sampler reads every interval — active host count,
    physical GPUs, committed training GPUs, subscribed GPUs — are maintained
    *incrementally*: each :class:`Host` pushes deltas here as GPUs are bound
    and released (see ``Host._cluster``), so sampling a cluster of hundreds
    of hosts is O(1) instead of a full host-list scan per timeline point.
    The incremental totals are exact — they are updated with the same
    integers a scan would sum, so sampled values are bit-identical to the
    scanning implementation (the golden-metrics tests pin this).

    The same delta hooks keep a :class:`~repro.cluster.index.HostIndex`
    positioned: active hosts stay sorted by the least-loaded placement rank
    key and bucketed by idle-GPU count, so placement queries walk a
    pre-sorted list (O(log n + k) per decision) instead of re-sorting the
    whole cluster — selecting hosts bit-identically to the sort they replace.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.hosts: Dict[str, Host] = {}
        self.local_schedulers: Dict[str, LocalScheduler] = {}
        # Incremental aggregates over *active* hosts.
        self._active_host_count = 0
        self._total_gpus = 0
        self._committed_training_gpus = 0
        self._subscribed_gpus = 0
        # Incrementally maintained placement orderings over active hosts.
        self.index = HostIndex()

    @property
    def version(self) -> int:
        """Monotonic count of index mutations (read by benchmarks).

        Delegates to the index: every placement-relevant mutation — host
        add/remove, decommission, and every committed/subscribed delta —
        funnels through ``index.add`` / ``discard`` / ``reindex``, each of
        which bumps unconditionally.
        """
        return self.index.version

    def add_host(self, host: Host, scheduler: LocalScheduler) -> None:
        self.hosts[host.host_id] = host
        self.local_schedulers[host.host_id] = scheduler
        host.attach_cluster(self)
        if host.is_active:
            self._active_host_count += 1
            self._total_gpus += host.spec.num_gpus
            self._committed_training_gpus += host.committed_training_gpus
            self._subscribed_gpus += host.subscribed_gpus
            self.index.add(host)

    def remove_host(self, host_id: str) -> None:
        host = self.hosts.pop(host_id, None)
        self.local_schedulers.pop(host_id, None)
        if host is not None:
            if host.is_active:
                self._active_host_count -= 1
                self._total_gpus -= host.spec.num_gpus
                self._committed_training_gpus -= host.committed_training_gpus
                self._subscribed_gpus -= host.subscribed_gpus
                self.index.discard(host)
            host.attach_cluster(None)

    # ------------------------------------------------------------------
    # Delta hooks, driven by Host.
    # ------------------------------------------------------------------
    def _host_deactivated(self, host: Host) -> None:
        """``host`` was decommissioned while still registered."""
        self._active_host_count -= 1
        self._total_gpus -= host.spec.num_gpus
        self._committed_training_gpus -= host.committed_training_gpus
        self._subscribed_gpus -= host.subscribed_gpus
        self.index.discard(host)

    def _committed_delta(self, delta: int, host: Host) -> None:
        self._committed_training_gpus += delta
        self.index.reindex(host)

    def _subscribed_delta(self, delta: int, host: Host) -> None:
        self._subscribed_gpus += delta
        self.index.reindex(host)

    @property
    def active_hosts(self) -> List[Host]:
        return [h for h in self.hosts.values() if h.is_active]

    @property
    def active_host_count(self) -> int:
        """Number of active hosts, without materializing the list."""
        return self._active_host_count

    def scheduler_for(self, host_id: str) -> LocalScheduler:
        return self.local_schedulers[host_id]

    def total_gpus(self) -> int:
        return self._total_gpus

    def committed_training_gpus(self) -> int:
        return self._committed_training_gpus

    def idle_hosts(self) -> List[Host]:
        """Active hosts with no replica actively training (candidates for
        scale-in), in cluster-insertion order."""
        return [h for h in self.hosts.values() if h.is_active and h.is_idle]

    def iter_ranked(self):
        """Active hosts in least-loaded placement rank order, O(1) to start."""
        return self.index.iter_ranked()

    def hosts_with_idle_gpus(self, min_idle: int) -> int:
        """Number of active hosts with at least ``min_idle`` idle GPUs."""
        return self.index.hosts_with_idle_gpus(min_idle)

    def most_idle_host(self, min_idle: int) -> Optional[Host]:
        """The active host maximizing ``(idle_gpus, host_id)`` with at least
        ``min_idle`` idle GPUs, or ``None``."""
        return self.index.most_idle_host(min_idle)

    def iter_hosts_by_idle_desc(self, min_idle: int):
        """Active hosts with >= ``min_idle`` idle GPUs, most-idle bucket
        first (ids ascending within a bucket); see HostIndex."""
        return self.index.iter_hosts_by_idle_desc(min_idle)

    def subscription_ratio(self, replication_factor: int) -> float:
        """Cluster-wide SR from the incremental totals (matches a scan)."""
        if self._total_gpus == 0 or replication_factor == 0:
            return 0.0
        return self._subscribed_gpus / (self._total_gpus * replication_factor)


class GlobalScheduler:
    """Creates, routes to, migrates, and tears down distributed kernels."""

    def __init__(self, env: Environment, cluster: ClusterState,
                 platform_config: PlatformConfig, cluster_config: ClusterConfig,
                 provisioner: VMProvisioner, prewarmer: ContainerPrewarmer,
                 datastore: DistributedDataStore, metrics: MetricsCollector,
                 placement: Optional[PlacementPolicy] = None,
                 rng: Optional[SeededRandom] = None,
                 hooks: Optional[HookBus] = None) -> None:
        self.env = env
        self.cluster = cluster
        self.config = platform_config
        self.cluster_config = cluster_config
        self.provisioner = provisioner
        self.prewarmer = prewarmer
        self.datastore = datastore
        self.metrics = metrics
        # Standalone construction (tests, tools) gets a private bus with the
        # metrics collector seated exactly as the platform would seat it.
        if hooks is None:
            hooks = HookBus()
            hooks.subscribe(PLATFORM_EVENT, metrics.record_event, first=True)
        self.hooks = hooks
        self.placement = placement or LeastLoadedPlacement(
            oversubscription_enabled=platform_config.oversubscription_enabled,
            subscription_ratio_limit=platform_config.subscription_ratio_limit,
            high_watermark=platform_config.subscription_high_watermark)
        self._rng = rng or SeededRandom(platform_config.seed)
        self.kernels: Dict[str, DistributedKernel] = {}
        self.pending_scale_out = 0
        self.migrations_attempted = 0
        self.migrations_aborted = 0
        # Set by the shard runner when this scheduler manages one shard of
        # a space-partitioned run.  Placement-failure scale-outs then also
        # note capacity pressure on it — pure accounting that rides the
        # next barrier frame; admission decisions are unchanged, so the
        # sharded run stays bit-identical to the serial reference.
        self.shard_context = None
        # Per-instance counter so that repeated runs with the same seed
        # produce identical kernel ids (and therefore identical rng streams).
        self._kernel_counter = count(1)

    def _publish_event(self, kind: EventKind, detail: str = "") -> None:
        """Publish one discrete platform event (metrics subscribe to these)."""
        self.hooks.publish(PLATFORM_EVENT, self.env.now, kind, detail)

    # ------------------------------------------------------------------
    # Kernel creation (§3.2.1, Figure 4).
    # ------------------------------------------------------------------
    def next_kernel_id(self) -> str:
        return f"kernel-{next(self._kernel_counter)}"

    def start_kernel(self, session_id: str, resource_request: ResourceRequest,
                     assignment: Optional[WorkloadAssignment] = None,
                     replication_factor: Optional[int] = None):
        """Simulation process: create a distributed kernel with R replicas."""
        replication = replication_factor or self.config.replication_factor
        kernel_id = self.next_kernel_id()
        decision = self.placement.candidate_hosts(
            self.cluster, resource_request, replication, replication)
        if not decision.satisfied:
            # §3.4.2: a failed placement triggers scale-out; placement resumes
            # once the new servers have registered.
            deficit = replication - len(decision.hosts)
            if self.shard_context is not None:
                self.shard_context.note_pressure(max(1, deficit))
            yield from self.scale_out(
                max(1, deficit), reason=f"placement failure for {kernel_id}")
            decision = self.placement.candidate_hosts(
                self.cluster, resource_request, replication, replication)
            if not decision.satisfied:
                # Fall back to reusing the least-loaded hosts even if the SR
                # limit is exceeded, rather than failing the user's kernel.
                fallback = sorted(self.cluster.active_hosts,
                                  key=lambda h: h.subscribed_gpus)[:replication]
                decision.hosts = fallback
        self.hooks.publish(PLACEMENT_DECISION, self.env.now, kernel_id, decision)
        kernel = DistributedKernel(kernel_id=kernel_id, session_id=session_id,
                                   resource_request=resource_request,
                                   assignment=assignment, created_at=self.env.now)
        kernel.election = ExecutorElection(
            kernel_id, rng=self._rng.substream(f"election:{kernel_id}"))
        checkpoint = CheckpointManager(env=self.env, datastore=self.datastore,
                                       kernel_id=kernel_id, hooks=self.hooks)
        kernel.synchronizer = StateSynchronizer(
            self.env, kernel_id, checkpoint,
            rng=self._rng.substream(f"sync:{kernel_id}"))
        # Start the replicas on their hosts concurrently.  The fused chain
        # drives every replica in one pass — one shared processing-delay
        # sleep and one wake-up per provision completion — instead of one
        # process + bootstrap per replica joined by an AllOf (the event
        # order is identical; see local_scheduler.start_kernel_replicas).
        placements = [(index, self.cluster.scheduler_for(host.host_id))
                      for index, host in enumerate(decision.hosts[:replication])]
        replicas = yield from start_kernel_replicas(self.env, kernel,
                                                    placements)
        for replica in replicas:
            kernel.add_replica(replica)
        self.kernels[kernel_id] = kernel
        self._publish_event(EventKind.KERNEL_CREATED,
                            f"{kernel_id} on {kernel.host_ids}")
        return kernel

    def shutdown_kernel(self, kernel: DistributedKernel):
        """Simulation process: terminate every replica of a kernel.

        Replica teardowns are two constant sleeps around synchronous
        bookkeeping, so the fused chain replaces the per-replica processes
        + AllOf with two sleeps total (order-identical; see
        local_scheduler.terminate_kernel_replicas).
        """
        # A replica's host may have been torn down wholesale (failure
        # injection); such replicas have nothing left to terminate.
        pairs = [(scheduler, replica)
                 for replica in list(kernel.active_replicas)
                 for scheduler in
                 [self.cluster.local_schedulers.get(replica.host_id)]
                 if scheduler is not None]
        yield from terminate_kernel_replicas(self.env, pairs)
        kernel.terminated_at = self.env.now
        self.kernels.pop(kernel.kernel_id, None)
        self._publish_event(EventKind.KERNEL_TERMINATED, kernel.kernel_id)
        return kernel

    # ------------------------------------------------------------------
    # Executor selection support.
    # ------------------------------------------------------------------
    def preferred_executor(self, kernel: DistributedKernel,
                           proposals: List[ReplicaProposal]) -> Optional[str]:
        """The replica the scheduler designates when it has enough information.

        The candidates are the replicas that proposed LEAD in ``proposals``,
        the kernel's proposals for this election (``make_proposals``, made
        at the same instant, so a LEAD is exactly a replica that can lead
        now).  Prefers the previous executor (its GPU-resident state is
        warm), then the replica on the least-loaded host by ``(idle_gpus
        desc, subscribed_gpus asc)``.  Pure: no RNG, no mutation — the
        election itself, which always consumes RNG, happens later in
        ``ExecutorElection.decide``.
        """
        leaders = [proposal.replica_id for proposal in proposals
                   if proposal.lead]
        if not leaders:
            return None
        election = kernel.election
        last = election.last_executor_id if election is not None else None
        if last in leaders:
            return last
        candidates = [replica for replica in kernel.replicas
                      if replica.replica_id in leaders]
        best = max(candidates,
                   key=lambda r: (r.host.idle_gpus, -r.host.subscribed_gpus))
        return best.replica_id

    # ------------------------------------------------------------------
    # Replica migration (§3.2.3).
    # ------------------------------------------------------------------
    def migrate_replica(self, kernel: DistributedKernel, gpus_required: int):
        """Simulation process: migrate one replica to a host with idle GPUs.

        Returns the new replica, or ``None`` if the migration was aborted
        after exhausting its retries.
        """
        self.migrations_attempted += 1
        victims = sorted(kernel.active_replicas,
                         key=lambda r: r.host.idle_gpus)
        if not victims:
            return None
        victim = victims[0]
        victim.state = ReplicaState.MIGRATING

        # The victim persists its important state to the data store first.
        large_objects = [obj for obj in kernel.namespace_objects()
                         if obj.size_bytes >= 1024 * 1024]
        if kernel.synchronizer is not None and large_objects:
            yield from kernel.synchronizer.checkpoint_manager.checkpoint_all(
                large_objects, node_id=victim.replica_id)

        # Find a target host that can immediately and exclusively bind the GPUs.
        request = ResourceRequest(millicpus=kernel.resource_request.millicpus,
                                  memory_mb=kernel.resource_request.memory_mb,
                                  gpus=max(gpus_required, kernel.resource_request.gpus),
                                  vram_gb=kernel.resource_request.vram_gb)
        target: Optional[Host] = None
        for attempt in range(self.config.migration_max_retries + 1):
            target = self.placement.migration_target(
                self.cluster, request, self.config.replication_factor,
                exclude_hosts=kernel.host_ids)
            if target is not None:
                break
            if attempt == 0:
                # Ask for more capacity while we retry.
                self.env.process(self.scale_out(
                    1, reason=f"migration of {kernel.kernel_id}"))
            yield self.config.migration_retry_interval_s
        if target is None:
            self.migrations_aborted += 1
            victim.state = ReplicaState.IDLE
            self._publish_event(EventKind.ELECTION_FAILED,
                                f"{kernel.kernel_id}: migration aborted")
            return None

        # The target host must be able to *immediately and exclusively* bind
        # the required GPUs to the migrated replica (§3.2.3): bind them now so
        # no co-located kernel can steal them while the container provisions.
        if gpus_required > 0 and target.can_bind_gpus(gpus_required):
            target.bind_gpus(kernel.kernel_id, gpus_required, self.env.now)

        # Provision the new replica (pre-warmed container if available).
        scheduler = self.cluster.scheduler_for(target.host_id)
        prefer_prewarmed = self.prewarmer.available(target.host_id) > 0
        new_replica = yield from scheduler.start_kernel_replica(
            kernel, victim.replica_index, prefer_prewarmed=prefer_prewarmed)

        # The new replica restores persisted state from remote storage.
        if kernel.synchronizer is not None and \
                kernel.synchronizer.checkpoint_manager.checkpointed_names:
            yield from kernel.synchronizer.checkpoint_manager.restore_all(
                node_id=new_replica.replica_id)

        # Terminate the original replica and reconfigure the Raft group.
        # The victim's host may have vanished wholesale (failure injection)
        # while the new replica was provisioning; nothing to terminate then.
        old_scheduler = self.cluster.local_schedulers.get(victim.host_id)
        if old_scheduler is not None:
            yield from old_scheduler.terminate_replica(victim)
        kernel.remove_replica(victim.replica_id)
        kernel.add_replica(new_replica)
        kernel.migrations += 1
        self._publish_event(EventKind.KERNEL_MIGRATION,
                            f"{kernel.kernel_id}: {victim.host_id} -> {target.host_id}")
        self.hooks.publish(MIGRATION, self.env.now, kernel.kernel_id,
                           victim.host_id, target.host_id)
        return new_replica

    # ------------------------------------------------------------------
    # Scale-out / scale-in (§3.4.2).
    # ------------------------------------------------------------------
    def scale_out(self, num_hosts: int, reason: str = "auto-scale"):
        """Simulation process: provision ``num_hosts`` additional GPU servers."""
        if num_hosts <= 0:
            return []
        current = self.cluster.active_host_count
        allowed = max(0, self.cluster_config.max_hosts - current - self.pending_scale_out)
        num_hosts = min(num_hosts, allowed)
        if num_hosts <= 0:
            return []
        self.pending_scale_out += num_hosts
        try:
            processes = [self.env.process(self.provisioner.provision(reason=reason))
                         for _ in range(num_hosts)]
            yield AllOf(self.env, processes)
            hosts = [p.value for p in processes]
            for host in hosts:
                scheduler = LocalScheduler(
                    self.env, host, prewarmer=self.prewarmer,
                    container_latency=self.config.container_latency,
                    rng=self._rng.substream(f"ls:{host.host_id}"),
                    processing_delay=self.config.ls_processing_s)
                self.cluster.add_host(host, scheduler)
            self._publish_event(EventKind.SCALE_OUT,
                                f"+{len(hosts)} hosts ({reason})")
            self.hooks.publish(SCALE_OUT, self.env.now, len(hosts), reason)
            return hosts
        finally:
            self.pending_scale_out -= num_hosts

    def scale_in(self, max_hosts: Optional[int] = None):
        """Simulation process: release up to ``max_hosts`` idle GPU servers."""
        max_hosts = max_hosts or self.config.max_scale_in_per_round
        releasable = [h for h in self.cluster.idle_hosts()
                      if h.container_count == 0 and h.subscribed_gpus == 0]
        current = self.cluster.active_host_count
        can_release = max(0, current - self.cluster_config.min_hosts)
        to_release = releasable[:min(max_hosts, can_release)]
        for host in to_release:
            # Mark the host inactive immediately so concurrent placement
            # decisions stop considering it before we yield.
            host.decommission(self.env.now)
            scheduler = self.cluster.scheduler_for(host.host_id)
            yield from scheduler.decommission()
            self.provisioner.release(host)
            self.cluster.remove_host(host.host_id)
        if to_release:
            self._publish_event(EventKind.SCALE_IN, f"-{len(to_release)} hosts")
            self.hooks.publish(SCALE_IN, self.env.now, len(to_release))
        return to_release

    # ------------------------------------------------------------------
    # Failure handling (§3.2.5).
    # ------------------------------------------------------------------
    def handle_replica_failure(self, kernel: DistributedKernel, replica: KernelReplica):
        """Simulation process: recreate a failed replica from persisted state."""
        self._publish_event(EventKind.REPLICA_FAILURE,
                            f"{kernel.kernel_id}/{replica.replica_id}")
        # The replica's host may already be torn down wholesale (failure
        # injection removes entire servers); terminate only if it is still
        # registered.
        scheduler = self.cluster.local_schedulers.get(replica.host_id)
        if scheduler is not None:
            yield from scheduler.terminate_replica(replica)
        kernel.remove_replica(replica.replica_id)
        decision = self.placement.candidate_hosts(
            self.cluster, kernel.resource_request, 1,
            self.config.replication_factor, exclude_hosts=kernel.host_ids)
        self.hooks.publish(PLACEMENT_DECISION, self.env.now,
                           kernel.kernel_id, decision)
        target = decision.hosts[0] if decision.hosts else (
            replica.host if replica.host.is_active else None)
        if target is None:
            # No active candidate and the old host is gone: ask for more
            # capacity and retry, mirroring the migration retry loop.
            for attempt in range(self.config.migration_max_retries + 1):
                if attempt == 0:
                    self.env.process(self.scale_out(
                        1, reason=f"replica recovery of {kernel.kernel_id}"))
                yield self.config.migration_retry_interval_s
                retry = self.placement.candidate_hosts(
                    self.cluster, kernel.resource_request, 1,
                    self.config.replication_factor,
                    exclude_hosts=kernel.host_ids)
                if retry.hosts:
                    target = retry.hosts[0]
                    break
            if target is None:
                # The replica is lost; the kernel runs degraded until the
                # executor path migrates or errors out.
                self._publish_event(
                    EventKind.ELECTION_FAILED,
                    f"{kernel.kernel_id}: replica recovery aborted")
                return None
        new_scheduler = self.cluster.scheduler_for(target.host_id)
        new_replica = yield from new_scheduler.start_kernel_replica(
            kernel, replica.replica_index,
            prefer_prewarmed=self.prewarmer.available(target.host_id) > 0)
        if kernel.synchronizer is not None and \
                kernel.synchronizer.checkpoint_manager.checkpointed_names:
            yield from kernel.synchronizer.checkpoint_manager.restore_all(
                node_id=new_replica.replica_id)
        kernel.add_replica(new_replica)
        return new_replica
