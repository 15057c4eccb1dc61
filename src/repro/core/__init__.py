"""The NotebookOS control plane.

This package implements the paper's primary contribution: the replicated
notebook platform itself.

* :mod:`repro.core.config` — platform and cluster configuration;
* :mod:`repro.core.placement` — kernel replica placement policies and the
  subscription-ratio accounting of §3.4.1;
* :mod:`repro.core.election` — the executor replica election protocol of
  §3.2.2 (LEAD / YIELD / VOTE proposals, with the kernel's Raft round trips
  modelled as latencies);
* :mod:`repro.core.gpu_binding` — dynamic GPU binding and the host↔GPU
  model-parameter copy costs of §3.3;
* :mod:`repro.core.distributed_kernel` — kernel replicas and the distributed
  kernel abstraction;
* :mod:`repro.core.local_scheduler` — the per-server Local Scheduler;
* :mod:`repro.core.global_scheduler` — the Global Scheduler: placement,
  routing, migration, and failure handling;
* :mod:`repro.core.autoscaler` — the auto-scaling policy of §3.4.2;
* :mod:`repro.core.platform` — the :class:`NotebookOSPlatform` facade that
  :class:`repro.api.Simulation` builds and runs.
"""

from repro.core.config import ClusterConfig, PlatformConfig
from repro.core.election import ElectionOutcome, ExecutorElection, ReplicaProposal
from repro.core.gpu_binding import GpuBindingModel
from repro.core.distributed_kernel import DistributedKernel, KernelReplica, ReplicaState
from repro.core.placement import LeastLoadedPlacement, PlacementDecision, PlacementPolicy
from repro.core.local_scheduler import LocalScheduler
from repro.core.global_scheduler import GlobalScheduler
from repro.core.autoscaler import AutoScaler
from repro.core.platform import NotebookOSPlatform

__all__ = [
    "AutoScaler",
    "ClusterConfig",
    "DistributedKernel",
    "ElectionOutcome",
    "ExecutorElection",
    "GlobalScheduler",
    "GpuBindingModel",
    "KernelReplica",
    "LeastLoadedPlacement",
    "LocalScheduler",
    "NotebookOSPlatform",
    "PlacementDecision",
    "PlacementPolicy",
    "PlatformConfig",
    "ReplicaProposal",
    "ReplicaState",
]
