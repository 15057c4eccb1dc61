"""The NotebookOS (LCP) baseline: a large shared pre-warmed container pool.

NotebookOS (LCP) trades some interactivity for lower resource cost (§5.1.1).
Instead of three long-lived replicas per kernel it keeps a large pool of
pre-warmed, *shared* containers.  When a cell task arrives, a warm container
on a host with idle GPUs serves it; because the container holds no session
state, the model parameters and dataset must first be downloaded (the
"warming-up" operation that lengthens TCT, §5.3.3).  After execution the
container returns to the pool.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.api.registry import register_policy
from repro.cluster.host import Host
from repro.cluster.resources import ResourceRequest
from repro.metrics.collector import TaskMetrics
from repro.policies.base import SchedulingPolicy, poll_interval
from repro.workload.trace import SessionTrace, TaskRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.platform import NotebookOSPlatform


@register_policy("lcp", aliases=("notebookos-lcp",),
                 description="a large shared pool of pre-warmed containers "
                             "traded against interactivity")
class LargeContainerPoolPolicy(SchedulingPolicy):
    """Serve cell tasks from a large pool of shared pre-warmed containers."""

    name = "notebookos-lcp"
    uses_autoscaler = True
    replication_factor = 1

    def __init__(self, gpu_wait_poll_s: float = 5.0) -> None:
        self.gpu_wait_poll_s = poll_interval("gpu_wait_poll_s", gpu_wait_poll_s)

    # ------------------------------------------------------------------
    # Host / container acquisition.
    # ------------------------------------------------------------------
    def _find_host(self, platform: "NotebookOSPlatform", gpus: int) -> Optional[Host]:
        # Version-guarded memo over the scan below: the guard covers both
        # the cluster index (host/GPU churn) and the prewarmer (warm-pool
        # churn), the two inputs the scan reads.
        runstate = getattr(platform, "runstate", None)
        if runstate is not None:
            return runstate.decisions.warm_pool_host(
                platform.cluster, platform.prewarmer, gpus,
                lambda: self._scan_for_host(platform, gpus))
        return self._scan_for_host(platform, gpus)

    def _scan_for_host(self, platform: "NotebookOSPlatform",
                       gpus: int) -> Optional[Host]:
        # The frozen reference scan.  Served from the cluster's idle-GPU
        # buckets: only qualifying hosts are enumerated (best bucket first,
        # host ids ascending), so the common few-hosts-qualify case costs
        # O(answer) instead of the old O(n) rank-list scan.  The selection
        # is identical to minimizing (-has_warm_container, -idle_gpus,
        # host_id) over qualifying hosts: walking (idle desc, id asc), the
        # first warm host is the minimum among warm hosts, and the very
        # first host is the no-warm fallback.
        available = platform.prewarmer.available
        fallback: Optional[Host] = None
        for host in platform.cluster.iter_hosts_by_idle_desc(gpus):
            if available(host.host_id):
                return host
            if fallback is None:
                fallback = host
        return fallback

    # ------------------------------------------------------------------
    # Batched decisions.
    # ------------------------------------------------------------------
    def decide_batch(self, platform: "NotebookOSPlatform", batch) -> int:
        """Warm one host probe per distinct GPU request size in the batch.

        ``execute_task`` probes synchronously at admission time — before any
        ingress sleep — so a warmed probe is a guaranteed cache hit for
        every task in the batch (the clamp below mirrors the per-task
        effective request computation).
        """
        runstate = getattr(platform, "runstate", None)
        if runstate is None or not runstate.enabled:
            return 0
        cap = platform.cluster_config.host_spec.num_gpus
        warmed = 0
        for gpus in batch.gpu_requests():
            self._find_host(platform, min(gpus, cap))
            warmed += 1
        return warmed

    # ------------------------------------------------------------------
    # Cell execution.
    # ------------------------------------------------------------------
    def execute_task(self, platform: "NotebookOSPlatform", session: SessionTrace,
                     task: TaskRecord, metrics: TaskMetrics):
        env = platform.env
        steps = metrics.steps
        job_id = f"{session.session_id}-lcp-{task.task_index}"
        metrics.kernel_id = job_id
        gpus = min(task.gpus, platform.cluster_config.host_spec.num_gpus) \
            if task.is_gpu_task else 0

        # Wait for a host with enough idle GPUs, then grab a warm container
        # from its pool (or pay a cold start when the pool is exhausted).
        wait_start = env.now
        host = self._find_host(platform, gpus)
        while host is None:
            yield self.gpu_wait_poll_s
            host = self._find_host(platform, gpus)
        if gpus:
            host.bind_gpus(job_id, gpus, env.now)
        scheduler = platform.cluster.scheduler_for(host.host_id)
        container = platform.prewarmer.take(host.host_id)
        if container is None:
            container = yield from scheduler.runtime.provision(
                ResourceRequest(gpus=gpus), prewarmed=False)
        else:
            yield scheduler.runtime.latency_model.warm_start(platform.rng)
        container.assign(job_id, job_id)
        acquisition_delay = env.now - wait_start

        yield from self.request_ingress(platform, steps,
                                        gs_extra=acquisition_delay)

        # Warming-up: download the session's model parameters and dataset.
        stage_time = yield from self.stage_model_and_dataset(
            platform, session, owner=job_id, node_id=host.host_id)
        steps.record("intermediary_interval", stage_time)

        metrics.started_at = env.now
        metrics.executor_replica = job_id
        steps.record("execute_code", task.duration)
        yield task.duration

        # Persist the updated model so the next (different) container can
        # pick the session up where this one left off.
        persist_time = yield from self.persist_model(
            platform, session, owner=job_id, node_id=host.host_id)
        steps.record("kernel_postprocess", persist_time)

        if gpus and host.gpus.holds(job_id):
            host.release_gpus(job_id, env.now)
        # The container returns to the pool rather than being terminated.
        platform.prewarmer.put_back(host.host_id, container)
        yield from self.reply_egress(platform, steps)
        metrics.completed_at = env.now
        metrics.status = "ok"
        return metrics

    def provisioned_gpus(self, platform: "NotebookOSPlatform") -> float:
        return float(platform.cluster.total_gpus())
