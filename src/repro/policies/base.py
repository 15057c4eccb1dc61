"""The scheduling-policy interface and shared request-path helpers.

A policy decides what happens when a session starts, when a cell task is
submitted, and when a session ends.  Every hook is a simulation process (a
generator the platform wraps in :meth:`Environment.process`), so policies can
wait on container provisioning, GPU availability, data staging, and so on.

The helpers here implement the request-path steps shared by every policy
(Figure 15): the client → Jupyter Server → Global Scheduler → Local Scheduler
→ kernel hops and their bookkeeping in the per-step latency breakdown.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.metrics.collector import TaskMetrics
from repro.metrics.latency_breakdown import StepLatencies
from repro.workload.trace import SessionTrace, TaskRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.platform import NotebookOSPlatform


class SchedulingPolicy:
    """Base class for the NotebookOS policy and the evaluation baselines."""

    name = "base"
    uses_autoscaler = False
    replication_factor = 1

    # ------------------------------------------------------------------
    # Lifecycle hooks (all simulation processes).
    # ------------------------------------------------------------------
    def on_session_start(self, platform: "NotebookOSPlatform",
                         session: SessionTrace):
        """Provision whatever the policy needs for a new session."""
        yield 0.0

    def execute_task(self, platform: "NotebookOSPlatform", session: SessionTrace,
                     task: TaskRecord, metrics: TaskMetrics):
        """Execute one submitted cell task end to end."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator for subclass parity

    def on_session_end(self, platform: "NotebookOSPlatform", session: SessionTrace):
        """Tear down per-session resources."""
        yield 0.0

    # ------------------------------------------------------------------
    # Metrics hooks.
    # ------------------------------------------------------------------
    def provisioned_gpus(self, platform: "NotebookOSPlatform") -> float:
        """The "provisioned GPUs" series this policy contributes to Figure 8."""
        return float(platform.cluster.total_gpus())

    # ------------------------------------------------------------------
    # Shared request-path helpers.
    # ------------------------------------------------------------------
    @staticmethod
    def request_ingress(platform: "NotebookOSPlatform", steps: StepLatencies,
                        gs_extra: float = 0.0) -> float:
        """Request-path helper: client → GS → LS → kernel hops.

        Records steps (1)–(5) of Figure 15 and returns the absolute time the
        request reaches the kernel; callers sleep until then with
        ``yield platform.env.at(...)``.  ``gs_extra`` adds policy-specific
        Global Scheduler work (queueing, on-demand provisioning) to step (1).

        Nothing observable happens between the constant-delay hops, so the
        whole chain is one wake-up: the per-hop delays are accumulated with
        the same float additions the individual sleeps performed
        (bit-identical timestamps).
        """
        config = platform.config
        # Jupyter Server processing plus the hop to the Global Scheduler is
        # part of the (unnumbered) client-side path; it is tiny and constant.
        wake = platform.env.now + (config.jupyter_processing_s
                                   + config.network_hop_s)
        steps.record("gs_process_request", config.gs_processing_s + gs_extra)
        wake = wake + (config.gs_processing_s + gs_extra)
        steps.record("gs_to_ls_hop", config.network_hop_s)
        steps.record("ls_process_request", config.ls_processing_s)
        steps.record("ls_to_kernel_hop", config.network_hop_s)
        steps.record("kernel_preprocess", config.kernel_preprocess_s)
        return wake + (2 * config.network_hop_s + config.ls_processing_s
                       + config.kernel_preprocess_s)

    @staticmethod
    def reply_egress(platform: "NotebookOSPlatform",
                     steps: StepLatencies) -> float:
        """Request-path helper: kernel → LS → GS → client reply (step 10+).

        Records the step and returns the reply's delay; callers ``yield``
        it.
        """
        config = platform.config
        steps.record("kernel_to_ls_hop", config.network_hop_s)
        return 3 * config.network_hop_s + config.jupyter_processing_s

    @staticmethod
    def stage_model_and_dataset(platform: "NotebookOSPlatform",
                                session: SessionTrace, owner: str,
                                node_id: Optional[str] = None):
        """Simulation process: fetch model parameters + dataset from storage.

        Returns the staging latency.  Used by the Batch and LCP baselines,
        which must download the session's model and dataset before every
        execution (their containers hold no session state).
        """
        env = platform.env
        start = env.now
        assignment = session.assignment
        model_bytes = (assignment.model.parameter_bytes if assignment
                       else 200 * 1024 ** 2)
        dataset_bytes = (min(assignment.dataset.size_bytes, 4 * 1024 ** 3) if assignment
                         else 1024 ** 3)
        key_prefix = f"staging/{session.session_id}"
        datastore = platform.datastore
        if not datastore.contains(f"{key_prefix}/model"):
            yield from datastore.write(f"{key_prefix}/model", model_bytes,
                                       owner=owner)
            yield from datastore.write(f"{key_prefix}/dataset", dataset_bytes,
                                       owner=owner)
        yield from datastore.read(f"{key_prefix}/model", node_id=node_id)
        yield from datastore.read(f"{key_prefix}/dataset", node_id=node_id)
        return env.now - start

    @staticmethod
    def persist_model(platform: "NotebookOSPlatform", session: SessionTrace,
                      owner: str, node_id: Optional[str] = None):
        """Simulation process: write updated model parameters back to storage."""
        env = platform.env
        start = env.now
        assignment = session.assignment
        model_bytes = (assignment.model.parameter_bytes if assignment
                       else 200 * 1024 ** 2)
        yield from platform.datastore.write(
            f"staging/{session.session_id}/model", model_bytes, owner=owner,
            node_id=node_id)
        return env.now - start
