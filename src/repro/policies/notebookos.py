"""The default NotebookOS scheduling policy.

This is the paper's system: each session gets a distributed kernel of three
replicas placed by the Global Scheduler; GPUs are bound only for the duration
of a cell execution; the executor replica is chosen by the election protocol;
when every replica yields, one replica is migrated; post-execution state
replication happens off the critical path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.api.registry import register_policy
from repro.cluster.resources import ResourceRequest
from repro.core.config import require_non_negative, require_positive
from repro.core.distributed_kernel import DistributedKernel, ReplicaState
from repro.metrics.collector import TaskMetrics
from repro.policies.base import SchedulingPolicy
from repro.workload.trace import SessionTrace, TaskRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.platform import NotebookOSPlatform


@register_policy("notebookos",
                 description="replicated kernels, executor elections, dynamic "
                             "GPU binding, oversubscription, migration")
class NotebookOSPolicy(SchedulingPolicy):
    """Replicated kernels + dynamic GPU binding + oversubscription."""

    name = "notebookos"
    uses_autoscaler = True
    replication_factor = 3

    def __init__(self, gpu_wait_poll_s: float = 2.0,
                 gpu_wait_timeout_s: float = 120.0) -> None:
        self.gpu_wait_poll_s = require_positive("gpu_wait_poll_s",
                                                gpu_wait_poll_s)
        self.gpu_wait_timeout_s = require_non_negative("gpu_wait_timeout_s",
                                                       gpu_wait_timeout_s)
        self._kernels: Dict[str, DistributedKernel] = {}

    # ------------------------------------------------------------------
    # Session lifecycle.
    # ------------------------------------------------------------------
    def on_session_start(self, platform: "NotebookOSPlatform", session: SessionTrace):
        request = ResourceRequest(millicpus=4000, memory_mb=16384,
                                  gpus=session.gpus_requested,
                                  vram_gb=8.0 * session.gpus_requested)
        kernel = yield platform.env.process(platform.global_scheduler.start_kernel(
            session.session_id, request, assignment=session.assignment,
            replication_factor=self.replication_factor))
        self._kernels[session.session_id] = kernel
        return kernel

    def on_session_end(self, platform: "NotebookOSPlatform", session: SessionTrace):
        kernel = self._kernels.pop(session.session_id, None)
        if kernel is not None and not kernel.is_terminated:
            yield platform.env.process(
                platform.global_scheduler.shutdown_kernel(kernel))

    def kernel_for(self, session_id: str) -> Optional[DistributedKernel]:
        return self._kernels.get(session_id)

    # ------------------------------------------------------------------
    # Cell execution.
    # ------------------------------------------------------------------
    def execute_task(self, platform: "NotebookOSPlatform", session: SessionTrace,
                     task: TaskRecord, metrics: TaskMetrics):
        env = platform.env
        kernel = self._kernels.get(session.session_id)
        if kernel is None:
            kernel = yield from self.on_session_start(platform, session)
        steps = metrics.steps
        metrics.kernel_id = kernel.kernel_id

        yield env.at(self.request_ingress(platform, steps))

        # Executor replica election (§3.2.2).  The previous executor id is
        # captured before the election to derive the reuse statistic.
        previous_executor = kernel.election.last_executor_id
        gpus_needed = task.gpus if task.is_gpu_task else 0
        proposals = kernel.make_proposals(gpus_needed)
        if not proposals:
            # Every replica is gone or busy migrating (failure injection can
            # wipe a kernel's whole replica set): recover via the migration
            # path rather than holding an empty election.
            metrics.required_migration = True
            executor = yield env.process(platform.global_scheduler.migrate_replica(
                kernel, gpus_needed))
            if executor is None:
                metrics.status = "error"
                metrics.completed_at = env.now
                return metrics
            proposals = kernel.make_proposals(gpus_needed)
            if not proposals:
                metrics.status = "error"
                metrics.completed_at = env.now
                return metrics
        preferred = platform.global_scheduler.preferred_executor(kernel, proposals)
        outcome = kernel.election.decide(proposals, preferred_replica=preferred)
        # Read what the cell needs and drop the election's objects before
        # the first sleep: held across the cell's sleeps, they outlive
        # young collections for nothing.  The winner is a replica's shared
        # LEAD proposal, which outlives the election anyway.
        winner = outcome.winner
        latency = outcome.latency_s
        del proposals, outcome
        steps.record("primary_replica_protocol", latency)
        yield latency
        platform.metrics.record_executor_decision(
            immediate_commit=winner is not None,
            same_executor=(winner is not None
                           and winner.replica_id == previous_executor))

        if winner is None:
            # All replicas yielded: migrate one replica to a host with GPUs.
            metrics.required_migration = True
            migration_start = env.now
            executor = yield env.process(platform.global_scheduler.migrate_replica(
                kernel, gpus_needed))
            steps.record("intermediary_interval", env.now - migration_start)
            if executor is None:
                metrics.status = "error"
                metrics.completed_at = env.now
                yield self.reply_egress(platform, steps)
                return metrics
        else:
            executor = kernel.replica_by_id(winner.replica_id)
            if executor is None:   # replica vanished (failure) - re-elect via migration
                executor = yield env.process(platform.global_scheduler.migrate_replica(
                    kernel, gpus_needed))
                if executor is None:
                    metrics.status = "error"
                    metrics.completed_at = env.now
                    return metrics

        if executor.host_id not in platform.cluster.local_schedulers:
            # The executor's whole host vanished (failure injection) between
            # election and dispatch: re-place via the migration path.
            metrics.required_migration = True
            executor = yield env.process(platform.global_scheduler.migrate_replica(
                kernel, gpus_needed))
            if executor is None:
                metrics.status = "error"
                metrics.completed_at = env.now
                return metrics

        local_scheduler = platform.cluster.scheduler_for(executor.host_id)

        # Dynamic GPU binding (§3.3): bind right before execution.  A
        # migration may already have bound the GPUs exclusively on the new
        # host, in which case there is nothing left to do here.
        bind_start = env.now
        gpus_to_bind = min(gpus_needed, executor.host.spec.num_gpus)
        if gpus_to_bind > 0 and not self._kernel_owns_gpus(executor, kernel):
            waited = 0.0
            while not executor.host.can_bind_gpus(gpus_to_bind):
                yield self.gpu_wait_poll_s
                waited += self.gpu_wait_poll_s
                if waited >= self.gpu_wait_timeout_s:
                    break
            if executor.host.can_bind_gpus(gpus_to_bind):
                local_scheduler.bind_gpus(executor, gpus_to_bind)
            else:
                # Last resort: migrate to a host that can serve the task.
                metrics.required_migration = True
                migrated = yield env.process(platform.global_scheduler.migrate_replica(
                    kernel, gpus_to_bind))
                if migrated is None:
                    metrics.status = "error"
                    metrics.completed_at = env.now
                    return metrics
                executor = migrated
                local_scheduler = platform.cluster.scheduler_for(executor.host_id)
                if not self._kernel_owns_gpus(executor, kernel):
                    local_scheduler.bind_gpus(executor, gpus_to_bind)

        # Load model parameters from host memory onto the allocated GPUs.
        model = session.assignment.model if session.assignment else None
        load_time = platform.gpu_binding.load_time(model, platform.rng) if gpus_to_bind \
            else 0.0
        steps.record("intermediary_interval", (env.now - bind_start) + load_time)
        if load_time:
            yield load_time

        # Execute the user's code.
        executor.state = ReplicaState.EXECUTING
        metrics.started_at = env.now
        metrics.executor_replica = executor.replica_id
        steps.record("execute_code", task.duration)
        yield task.duration

        # Copy GPU state back to host memory before replying (§3.3), then
        # release the GPUs for co-located kernels.
        unload_time = platform.gpu_binding.unload_time(model, platform.rng) \
            if gpus_to_bind else 0.0
        steps.record("kernel_postprocess", unload_time)
        if unload_time:
            yield unload_time
        if gpus_to_bind:
            local_scheduler.release_gpus(executor)
        executor.state = ReplicaState.IDLE
        executor.executions += 1
        kernel.executions_completed += 1

        yield self.reply_egress(platform, steps)
        metrics.completed_at = env.now
        metrics.status = "ok"

        # Post-execution state replication happens off the critical path:
        # the synchronizer schedules its commit and writes on the engine.
        if task.code:
            kernel.synchronizer.replicate(
                task.code, kernel.namespace_objects(), executor.replica_id,
                platform.metrics.raft_sync_latencies)
        return metrics

    @staticmethod
    def _kernel_owns_gpus(executor, kernel: DistributedKernel) -> bool:
        """Whether the kernel already holds GPUs on the executor's host."""
        return executor.host.gpus.holds(kernel.kernel_id)
