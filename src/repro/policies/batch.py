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
from typing import TYPE_CHECKING, Optional

from repro.api.registry import register_policy
from repro.cluster.host import Host
from repro.cluster.resources import ResourceRequest
from repro.core.config import require_positive
from repro.metrics.collector import TaskMetrics
from repro.policies.base import SchedulingPolicy
from repro.workload.trace import SessionTrace, TaskRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.platform import NotebookOSPlatform
    from repro.simulation.events import Event


@register_policy("batch",
                 description="FCFS batch GPU scheduling: fresh container per "
                             "submission, data staged in and out every time")
class BatchPolicy(SchedulingPolicy):
    """First-come, first-served on-demand containers and GPU allocation."""

    name = "batch"
    uses_autoscaler = False
    replication_factor = 1

    def __init__(self, queue_poll_interval_s: float = 5.0) -> None:
        self.queue_poll_interval_s = require_positive(
            "queue_poll_interval_s", queue_poll_interval_s)
        #: One ticket per waiting job, in arrival order; ``_queue[0]`` is
        #: the head.  A follower parks on its ticket until it is handed the
        #: head (see :meth:`_acquire_host`).
        self._queue: deque[Event] = deque()

    # ------------------------------------------------------------------
    # FCFS admission.
    # ------------------------------------------------------------------
    def _find_host(self, platform: "NotebookOSPlatform", gpus: int) -> Optional[Host]:
        # Served by the cluster's idle-GPU buckets: hopeless polls (no
        # qualifying bucket) are rejected in O(buckets) while the FCFS queue
        # waits for capacity, and a hit reads max(idle_gpus, host_id)
        # straight off the best bucket — never a host-list scan.
        return platform.cluster.most_idle_host(gpus)

    def _acquire_host(self, platform: "NotebookOSPlatform", gpus: int):
        """Simulation process: FCFS-wait until some host has ``gpus`` idle GPUs.

        A job's *poll grid* is its arrival time, then every
        ``queue_poll_interval_s`` after it, each instant the previous one
        plus the interval in floating point.  Only the head of the queue
        looks for a host, and it does so on its own grid.  A job that finds
        the queue empty is the head at once.  A follower parks on its
        ticket, so at most one job polls at a time, whatever the queue
        length.

        Handoff: whenever the head leaves — it got a host or its generator
        was closed — the ``finally`` block hands the head to the next
        ticket by succeeding it.  The new head resumes at the handoff
        instant ``t``, replays the float additions of its grid to
        the first instant at or after ``t`` and polls there, sleeping until
        exactly then with ``env.at`` if that instant is later.  A follower
        therefore costs at most two queue entries, the handoff and that sleep,
        and first polls where a follower that re-polled every interval
        would have found itself at the head.

        Tie rule: when ``t`` falls exactly on one of the follower's later
        grid instants, it polls at ``t``.  A follower that re-polled every
        interval would have polled at ``t`` only if its own wake-up at ``t``
        came after the head left, and one interval later otherwise.  A
        follower that arrived at ``t`` itself, while the old head was still
        queued, has already looked at the queue and polls one interval
        later either way.
        """
        env = platform.env
        interval = self.queue_poll_interval_s
        queue = self._queue
        ticket = env.event()
        queue.append(ticket)
        try:
            if queue[0] is not ticket:
                arrival = env.now
                yield ticket  # parked until handed the head
                now = env.now
                wake = arrival + interval
                while wake < now:
                    wake += interval
                if wake > now:
                    yield env.at(wake)
            while True:
                host = self._find_host(platform, gpus)
                if host is not None:
                    return host
                yield interval
        finally:
            if queue[0] is ticket:
                queue.popleft()
                if queue:
                    queue[0].succeed()
            else:
                queue.remove(ticket)

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
        runtime = scheduler.runtime
        container, wait = runtime.begin_provision(ResourceRequest(gpus=gpus))
        yield wait
        runtime.finish_provision(container)
        container.assign(job_id, job_id)
        host.register_container(container.container_id, container)
        provisioning_delay = env.now - queue_start

        yield env.at(self.request_ingress(platform, steps,
                                          gs_extra=provisioning_delay))

        # Mandatory pre-processing data I/O: stage the model and dataset.
        # No node id: nothing would ever hit a cache keyed by this job.
        stage_time = yield from self.stage_model_and_dataset(
            platform, session, owner=job_id)
        steps.record("intermediary_interval", stage_time)

        metrics.started_at = env.now
        metrics.executor_replica = job_id
        steps.record("execute_code", task.duration)
        yield task.duration

        # Mandatory post-processing data I/O: persist the updated model.
        persist_time = yield from self.persist_model(
            platform, session, owner=job_id)
        steps.record("kernel_postprocess", persist_time)

        if gpus and host.gpus.holds(job_id):
            host.release_gpus(job_id, env.now)
        host.unregister_container(container.container_id)
        yield self.reply_egress(platform, steps)
        metrics.completed_at = env.now
        metrics.status = "ok"

        # Container teardown happens after the reply (not on the critical path).
        platform.spawn_background(runtime.terminate(container))
        return metrics

    # ------------------------------------------------------------------
    # Metrics: only GPUs actively serving jobs count as provisioned.
    # ------------------------------------------------------------------
    def provisioned_gpus(self, platform: "NotebookOSPlatform") -> float:
        return float(platform.cluster.committed_training_gpus())
