"""Platform and cluster configuration.

All tunables mentioned in the paper live here with the paper's values as
defaults: three replicas per distributed kernel, an auto-scaling multiplier
``f = 1.05``, a small pre-warmed container pool, and 8-GPU servers matching
the Adobe research cluster's p3.16xlarge instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.container import ContainerLatencyModel
from repro.cluster.host import HostSpec
from repro.cluster.prewarmer import PrewarmPolicy


def require_positive(field: str, value: float) -> float:
    """``value`` if it is finite and positive, else ``ValueError``.

    For intervals a loop sleeps between rounds: zero would loop forever at
    one instant, and a negative, NaN or infinite value would fail from
    inside the engine.  Also for scales that must be positive, such as a
    log-normal's mean.
    """
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"{field} must be positive and finite, got {value}")
    return value


def require_non_negative(field: str, value: float) -> float:
    """``value`` if it is finite and non-negative, else ``ValueError``.

    For latencies, wait lengths and timeouts: zero is fine (no sleep, or a
    timeout that expires at the first check).  A negative, NaN or infinite
    value would fail from inside the engine, never expire, or silently act
    as zero.
    """
    if not math.isfinite(value) or value < 0:
        raise ValueError(
            f"{field} must be non-negative and finite, got {value}")
    return value


@dataclass
class ClusterConfig:
    """Shape and size of the GPU server cluster."""

    initial_hosts: int = 30
    host_spec: HostSpec = field(default_factory=HostSpec)
    min_hosts: int = 1
    max_hosts: int = 120
    vm_boot_time_mean_s: float = 95.0

    def validate(self) -> None:
        if self.initial_hosts < 0:
            raise ValueError("initial_hosts must be non-negative")
        if not self.min_hosts <= max(1, self.initial_hosts) <= self.max_hosts:
            raise ValueError(
                f"require min_hosts <= initial_hosts <= max_hosts, got "
                f"{self.min_hosts} / {self.initial_hosts} / {self.max_hosts}")
        require_positive("vm_boot_time_mean_s", self.vm_boot_time_mean_s)


@dataclass
class PlatformConfig:
    """Behavioural configuration of the NotebookOS control plane."""

    # Replication / scheduling (§3.2, §3.4).
    replication_factor: int = 3
    subscription_ratio_limit: Optional[float] = None  # None = dynamic cluster-wide limit
    subscription_high_watermark: float = 3.0
    oversubscription_enabled: bool = True

    # Auto-scaling (§3.4.2).
    autoscaler_enabled: bool = True
    autoscaler_interval_s: float = 60.0
    autoscaler_multiplier: float = 1.05
    scaling_buffer_hosts: int = 2
    max_scale_in_per_round: int = 2

    # Pre-warmed container pool (§3.2.3).
    prewarm_policy: PrewarmPolicy = field(default_factory=PrewarmPolicy)

    # Container provisioning latencies.
    container_latency: ContainerLatencyModel = field(default_factory=ContainerLatencyModel)

    # Data store backend for large-object checkpointing (§3.2.4).
    datastore_backend: str = "s3"

    # Control-plane hop latencies (seconds).  The Jupyter Server and the
    # network between components are modelled only by these constants.
    jupyter_processing_s: float = 0.002
    gs_processing_s: float = 0.003
    ls_processing_s: float = 0.002
    network_hop_s: float = 0.001
    kernel_preprocess_s: float = 0.002

    # Migration (§3.2.3).  Retries cover the boot time of a scale-out the
    # migration itself may have triggered before the migration is aborted.
    migration_retry_interval_s: float = 15.0
    migration_max_retries: int = 20

    # Metrics.  Sketch mode trades per-task records for fixed-memory
    # percentile sketches (see MetricsCollector) — opt-in, because the
    # golden digests pin the exact-mode serialization.
    metrics_sample_interval_s: float = 60.0
    metrics_sketch_mode: bool = False
    metrics_sketch_compression: int = 300

    # Idle reclamation interval used by the GPU-hours-saved analysis (Fig. 13).
    idle_reclamation_interval_s: float = 3600.0

    # QoS control plane (repro.qos): a QosConfig (or its dict form) with
    # the declarative targets the closed-loop controller evaluates at
    # telemetry window closes.  None — the default — builds no controller
    # at all, so bare runs stay byte-identical to builds without the
    # subsystem (the golden digests pin this).
    qos: Optional[object] = None

    # Failure storm (repro.core.chaos): when set, the platform runs a
    # deterministic chaos process that decommissions one active host every
    # interval (victims chosen from the platform's own seeded substream),
    # failing the replicas on it through the Global Scheduler's normal
    # recovery path.  None disables the process entirely.
    host_failure_interval_s: Optional[float] = None
    # The chaos process skips a round rather than shrink the cluster
    # below this many active hosts.
    min_surviving_hosts: int = 2

    # Determinism.
    seed: int = 0

    def validate(self) -> None:
        if self.replication_factor < 1:
            raise ValueError("replication_factor must be at least 1")
        if self.replication_factor == 2:
            # §3.1: a replication factor of 2 is unsupported by Raft.
            raise ValueError("a replication factor of 2 is unsupported by Raft")
        if not (math.isfinite(self.autoscaler_multiplier)
                and self.autoscaler_multiplier >= 1.0):
            raise ValueError(f"autoscaler_multiplier must be finite and "
                             f">= 1.0, got {self.autoscaler_multiplier}")
        require_positive("autoscaler_interval_s", self.autoscaler_interval_s)
        require_positive("metrics_sample_interval_s",
                         self.metrics_sample_interval_s)
        if self.host_failure_interval_s is not None:
            require_positive("host_failure_interval_s",
                             self.host_failure_interval_s)
        for name in ("jupyter_processing_s", "gs_processing_s",
                     "ls_processing_s", "network_hop_s", "kernel_preprocess_s",
                     "migration_retry_interval_s"):
            require_non_negative(name, getattr(self, name))
        if self.metrics_sketch_compression < 20:
            raise ValueError("metrics_sketch_compression must be >= 20")
        if self.min_surviving_hosts < 1:
            raise ValueError("min_surviving_hosts must be at least 1")
        self.qos = self.normalized_qos()
        if self.qos is not None:
            self.qos.validate()
        self.prewarm_policy.validate()

    def normalized_qos(self):
        """The ``qos`` block as a QosConfig (dicts are parsed), or None."""
        if self.qos is None or isinstance(self.qos, dict) and not self.qos:
            return None
        from repro.qos.targets import QosConfig

        if isinstance(self.qos, QosConfig):
            return self.qos
        if isinstance(self.qos, dict):
            return QosConfig.from_dict(self.qos)
        raise ValueError(f"qos must be a QosConfig or dict, "
                         f"got {type(self.qos).__name__}")
