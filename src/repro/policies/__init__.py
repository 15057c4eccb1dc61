"""Scheduling policies: NotebookOS and the evaluation baselines (§5.1.1).

The paper implements its baselines *inside* NotebookOS; this package mirrors
that structure.  One platform (:class:`repro.core.platform.NotebookOSPlatform`)
hosts any of these policy objects, which change how sessions are provisioned,
how cell executions acquire GPUs, and what "provisioned GPUs" means:

* :class:`NotebookOSPolicy` — the full system: replicated kernels, executor
  elections, dynamic GPU binding, oversubscription, migration, auto-scaling;
* :class:`ReservationPolicy` — today's NaaS behaviour: one long-running
  container per session with exclusively reserved GPUs;
* :class:`BatchPolicy` — an FCFS batch GPU scheduler: a fresh container per
  submission, GPUs allocated on demand, data staged in and out every time;
* :class:`LargeContainerPoolPolicy` — NotebookOS (LCP): a large shared pool
  of pre-warmed containers traded against interactivity;
* :mod:`repro.policies.oracle` — the oracle curve (exact GPUs required).

Each class registers itself with the :mod:`repro.api` policy registry
(``@register_policy("name")``), which is how every entry point — the
:class:`~repro.api.Simulation` builder, the experiment sweeps and CLI, the
benchmarks — resolves policy names.  Third-party policies register the same
way; nothing here is special-cased (see EXPERIMENTS.md, "Extending repro").
To build a policy by name, use ``repro.api.default_policy_registry()``.
"""

from repro.policies.base import SchedulingPolicy
from repro.policies.notebookos import NotebookOSPolicy
from repro.policies.reservation import ReservationPolicy
from repro.policies.batch import BatchPolicy
from repro.policies.lcp import LargeContainerPoolPolicy
from repro.policies.oracle import oracle_gpu_timeline

__all__ = [
    "BatchPolicy",
    "LargeContainerPoolPolicy",
    "NotebookOSPolicy",
    "ReservationPolicy",
    "SchedulingPolicy",
    "oracle_gpu_timeline",
]
