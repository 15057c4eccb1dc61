"""The Batch (FCFS GPU cluster scheduler) baseline (§5.1.1).

Batch represents batch GPU cluster schedulers (Gandiva, Tiresias, Themis, …)
attached to a notebook front end: every code submission becomes a job that
waits in an FCFS queue for GPUs, gets a freshly provisioned container, stages
its model and dataset in from remote storage, runs, writes its results back,
and tears the container down.  Resource usage is excellent; interactivity
suffers from queueing and cold starts (Figure 9(a) / Figure 17).
"""

from __future__ import annotations

from collections import deque
from itertools import count
from typing import TYPE_CHECKING, Optional

from repro.api.registry import register_policy
from repro.cluster.host import Host
from repro.cluster.resources import ResourceRequest
from repro.metrics.collector import TaskMetrics
from repro.policies.base import SchedulingPolicy
from repro.workload.trace import SessionTrace, TaskRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.platform import NotebookOSPlatform


@register_policy("batch",
                 description="FCFS batch GPU scheduling: fresh container per "
                             "submission, data staged in and out every time")
class BatchPolicy(SchedulingPolicy):
    """First-come, first-served on-demand containers and GPU allocation."""

    name = "batch"
    uses_autoscaler = False
    replication_factor = 1

    def __init__(self, queue_poll_interval_s: float = 5.0) -> None:
        self.queue_poll_interval_s = queue_poll_interval_s
        self._queue: deque[int] = deque()
        self._ticket_counter = count(1)

    # ------------------------------------------------------------------
    # FCFS admission.
    # ------------------------------------------------------------------
    def _find_host(self, platform: "NotebookOSPlatform", gpus: int) -> Optional[Host]:
        # Served by the cluster's idle-GPU buckets: hopeless polls (no
        # qualifying bucket) are rejected in O(buckets) while the FCFS queue
        # waits for capacity, and a hit reads max(idle_gpus, host_id)
        # straight off the best bucket — never a host-list scan.  With the
        # decision cache wired, repeated polls between cluster deltas (the
        # saturated-queue steady state) are one dict lookup.
        runstate = getattr(platform, "runstate", None)
        if runstate is not None:
            return runstate.decisions.most_idle_host(platform.cluster, gpus)
        return platform.cluster.most_idle_host(gpus)

    # ------------------------------------------------------------------
    # Batched decisions.
    # ------------------------------------------------------------------
    def decide_batch(self, platform: "NotebookOSPlatform", batch) -> int:
        """Warm one FCFS host probe per distinct GPU request size.

        Queue tickets stay strictly consumption-driven — pre-assigning them
        here would reorder the FCFS queue — so only the pure host probes
        are warmed (the clamp and the ``max(gpus, 1)`` floor mirror the
        per-task effective request computation in ``execute_task``).
        """
        runstate = getattr(platform, "runstate", None)
        if runstate is None or not runstate.enabled:
            return 0
        cap = platform.cluster_config.host_spec.num_gpus
        warmed = 0
        for gpus in batch.gpu_requests():
            gpus = min(gpus, cap)
            self._find_host(platform, max(gpus, 1) if gpus else 0)
            warmed += 1
        return warmed

    def _acquire_host(self, platform: "NotebookOSPlatform", gpus: int):
        """Simulation process: FCFS-wait until some host has ``gpus`` idle GPUs."""
        ticket = next(self._ticket_counter)
        self._queue.append(ticket)
        try:
            while True:
                if self._queue[0] == ticket:
                    host = self._find_host(platform, gpus)
                    if host is not None:
                        return host
                yield self.queue_poll_interval_s
        finally:
            self._queue.remove(ticket)

    # ------------------------------------------------------------------
    # Cell execution.
    # ------------------------------------------------------------------
    def execute_task(self, platform: "NotebookOSPlatform", session: SessionTrace,
                     task: TaskRecord, metrics: TaskMetrics):
        env = platform.env
        steps = metrics.steps
        job_id = f"{session.session_id}-job-{task.task_index}"
        metrics.kernel_id = job_id
        gpus = min(task.gpus, platform.cluster_config.host_spec.num_gpus) \
            if task.is_gpu_task else 0

        # Step (1): queueing for GPUs plus on-demand container provisioning
        # both happen before the request ever reaches a kernel (Figure 17).
        queue_start = env.now
        host = yield from self._acquire_host(platform, max(gpus, 1) if gpus else 0)
        scheduler = platform.cluster.scheduler_for(host.host_id)
        if gpus:
            host.bind_gpus(job_id, gpus, env.now)
        container = yield from scheduler.runtime.provision(
            ResourceRequest(gpus=gpus), prewarmed=False)
        container.assign(job_id, job_id)
        host.register_container(container.container_id, container)
        provisioning_delay = env.now - queue_start

        yield from self.request_ingress(platform, steps,
                                        gs_extra=provisioning_delay)

        # Mandatory pre-processing data I/O: stage the model and dataset.
        stage_time = yield from self.stage_model_and_dataset(
            platform, session, owner=job_id, node_id=job_id)
        steps.record("intermediary_interval", stage_time)

        metrics.started_at = env.now
        metrics.executor_replica = job_id
        steps.record("execute_code", task.duration)
        yield task.duration

        # Mandatory post-processing data I/O: persist the updated model.
        persist_time = yield from self.persist_model(
            platform, session, owner=job_id, node_id=job_id)
        steps.record("kernel_postprocess", persist_time)

        if gpus and host.gpus.holds(job_id):
            host.release_gpus(job_id, env.now)
        host.unregister_container(container.container_id)
        yield from self.reply_egress(platform, steps)
        metrics.completed_at = env.now
        metrics.status = "ok"

        # Container teardown happens after the reply (not on the critical path).
        platform.spawn_background(scheduler.runtime.terminate(container))
        return metrics

    # ------------------------------------------------------------------
    # Metrics: only GPUs actively serving jobs count as provisioned.
    # ------------------------------------------------------------------
    def provisioned_gpus(self, platform: "NotebookOSPlatform") -> float:
        return float(platform.cluster.committed_training_gpus())
