"""The Reservation baseline (§5.1.1).

Reservation emulates today's notebook platforms (the Adobe research cluster,
Google Colab): one long-running kernel container per session with fixed
resources — including GPUs — exclusively allocated for the session's entire
lifetime.  Interactivity is excellent (the GPUs are always there), utilization
is terrible (the GPUs are idle whenever the user is not training).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from repro.api.registry import register_policy
from repro.cluster.container import Container
from repro.cluster.host import Host
from repro.cluster.resources import ResourceRequest
from repro.core.config import require_non_negative
from repro.metrics.collector import TaskMetrics
from repro.policies.base import SchedulingPolicy
from repro.workload.trace import SessionTrace, TaskRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.platform import NotebookOSPlatform


@dataclass
class _Reservation:
    """The resources held by one session under the Reservation policy."""

    host: Host
    container: Container
    request: ResourceRequest
    gpus_reserved: int


@register_policy("reservation",
                 description="one long-running container per session with "
                             "exclusively reserved GPUs (today's NaaS)")
class ReservationPolicy(SchedulingPolicy):
    """One long-running container per session with exclusively reserved GPUs."""

    name = "reservation"
    uses_autoscaler = False
    replication_factor = 1

    def __init__(self, state_persist_s: float = 0.15) -> None:
        # Small post-execution state persistence on the critical path
        # (Figure 16, step 9): kernels flush small updated state after a cell.
        self.state_persist_s = require_non_negative("state_persist_s",
                                                    state_persist_s)
        self._reservations: Dict[str, _Reservation] = {}

    # ------------------------------------------------------------------
    # Session lifecycle: reserve for the whole lifetime.
    # ------------------------------------------------------------------
    def on_session_start(self, platform: "NotebookOSPlatform", session: SessionTrace):
        env = platform.env
        request = ResourceRequest(millicpus=4000, memory_mb=16384,
                                  gpus=session.gpus_requested,
                                  vram_gb=8.0 * session.gpus_requested)
        host = self._find_host(platform, request)
        while host is None:
            yield env.process(platform.global_scheduler.scale_out(
                1, reason=f"reservation for {session.session_id}"))
            host = self._find_host(platform, request)
        host.pool.commit(request)
        host.subscribe(session.session_id, request.gpus)
        scheduler = platform.cluster.scheduler_for(host.host_id)
        container = yield from scheduler.runtime.provision(
            request, prewarmed=False)
        container.assign(session.session_id, f"{session.session_id}-kernel")
        host.register_container(container.container_id, container)
        self._reservations[session.session_id] = _Reservation(
            host=host, container=container, request=request,
            gpus_reserved=request.gpus)
        return self._reservations[session.session_id]

    def on_session_end(self, platform: "NotebookOSPlatform", session: SessionTrace):
        reservation = self._reservations.pop(session.session_id, None)
        if reservation is None:
            return
        host = reservation.host
        host.pool.release(reservation.request)
        host.unsubscribe(session.session_id)
        host.unregister_container(reservation.container.container_id)
        if host.gpus.holds(session.session_id):
            host.release_gpus(session.session_id, platform.env.now)
        scheduler = platform.cluster.scheduler_for(host.host_id)
        yield platform.env.process(scheduler.runtime.terminate(reservation.container))

    def _find_host(self, platform: "NotebookOSPlatform",
                   request: ResourceRequest) -> Optional[Host]:
        # The selection key embeds the host id, so the minimum is unique and
        # any iteration order yields the same host as the previous
        # materialized-list scan; iter_ranked avoids building that list.
        return min((h for h in platform.cluster.iter_ranked()
                    if h.pool.can_commit(request)),
                   key=lambda h: (h.pool.committed.gpus, h.host_id),
                   default=None)

    # ------------------------------------------------------------------
    # Cell execution: the GPUs are already bound to the session.
    # ------------------------------------------------------------------
    def execute_task(self, platform: "NotebookOSPlatform", session: SessionTrace,
                     task: TaskRecord, metrics: TaskMetrics):
        env = platform.env
        reservation = self._reservations.get(session.session_id)
        if reservation is None:
            reservation = yield from self.on_session_start(platform, session)
        steps = metrics.steps
        metrics.kernel_id = f"{session.session_id}-kernel"

        yield from self.request_ingress(platform, steps)

        host = reservation.host
        gpus = min(task.gpus, reservation.gpus_reserved) if task.is_gpu_task else 0
        if gpus and host.can_bind_gpus(gpus):
            host.bind_gpus(session.session_id, gpus, env.now)

        model = session.assignment.model if session.assignment else None
        load_time = platform.gpu_binding.load_time(model, platform.rng) if gpus else 0.0
        steps.record("intermediary_interval", load_time)
        if load_time:
            yield load_time

        metrics.started_at = env.now
        metrics.executor_replica = metrics.kernel_id
        steps.record("execute_code", task.duration)
        yield task.duration

        # The reserved kernel persists small updated state after the cell.
        steps.record("kernel_postprocess", self.state_persist_s)
        yield self.state_persist_s
        if gpus and host.gpus.holds(session.session_id):
            host.release_gpus(session.session_id, env.now)

        yield from self.reply_egress(platform, steps)
        metrics.completed_at = env.now
        metrics.status = "ok"
        return metrics

    # ------------------------------------------------------------------
    # Metrics: provisioned GPUs are the reserved GPUs of active sessions.
    # ------------------------------------------------------------------
    def provisioned_gpus(self, platform: "NotebookOSPlatform") -> float:
        return float(sum(r.gpus_reserved for r in self._reservations.values()))
