"""GPU server hosts.

A :class:`Host` is one GPU server (the paper's evaluation uses 8-GPU EC2 VMs,
matching the Adobe research cluster's ``p3.16xlarge`` instances).  Hosts track
two distinct kinds of accounting:

* **committed** resources — exclusively allocated, e.g. GPUs bound during an
  active cell execution, or an entire reservation under the Reservation
  baseline;
* **subscribed** GPUs — the sum of the GPU requests of every kernel replica
  scheduled on the host, whether or not those replicas are currently
  executing.  The ratio of subscribed GPUs to physical GPUs (adjusted by the
  kernel replication factor) is the *subscription ratio* of §3.4.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.cluster.gpu import GPUAllocator
from repro.cluster.resources import ResourcePool, ResourceRequest


@dataclass(frozen=True)
class HostSpec:
    """Hardware shape and pricing of one GPU server."""

    num_gpus: int = 8
    millicpus: int = 64_000
    memory_mb: int = 488_000
    vram_per_gpu_gb: float = 32.0
    hourly_cost_usd: float = 24.48  # on-demand p3.16xlarge-equivalent rate

    def capacity(self) -> ResourceRequest:
        return ResourceRequest(millicpus=self.millicpus, memory_mb=self.memory_mb,
                               gpus=self.num_gpus,
                               vram_gb=self.vram_per_gpu_gb * self.num_gpus)


@dataclass
class Host:
    """One GPU server in the NotebookOS cluster."""

    host_id: str
    spec: HostSpec = field(default_factory=HostSpec)
    provisioned_at: float = 0.0
    decommissioned_at: Optional[float] = None

    def __post_init__(self) -> None:
        self.gpus = GPUAllocator.create(self.host_id, self.spec.num_gpus,
                                        vram_gb=self.spec.vram_per_gpu_gb)
        self.pool = ResourcePool(self.spec.capacity())
        # kernel_id -> GPUs subscribed by the replica of that kernel on this host.
        self._subscriptions: Dict[str, int] = {}
        # kernel_id -> GPUs actively committed to a running training task.
        self._active_trainings: Dict[str, int] = {}
        # Running totals of the two dicts above plus the GPU allocator, kept
        # exact (same integers a scan would sum) so the placement rank key
        # reads three ints instead of summing dicts and scanning devices.
        self._subscribed_total = 0
        self._committed_total = 0
        self._allocated_gpus = 0
        self.containers: Dict[str, object] = {}
        # The ClusterState this host reports aggregate deltas to (set via
        # attach_cluster); lets the metrics sampler read cluster totals in
        # O(1) instead of re-scanning every host each interval, and keeps the
        # cluster's placement HostIndex positioned as this host's counters
        # change.
        self._cluster = None

    def attach_cluster(self, cluster) -> None:
        """Register the ClusterState that receives this host's deltas."""
        self._cluster = cluster

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    @property
    def is_active(self) -> bool:
        return self.decommissioned_at is None

    def decommission(self, now: float) -> None:
        if self.decommissioned_at is None:
            if self._cluster is not None:
                # Must fire while still marked active, before the timestamp
                # flips is_active, so the cluster subtracts exactly what this
                # host was contributing.
                self._cluster._host_deactivated(self)
            self.decommissioned_at = now

    # ------------------------------------------------------------------
    # Subscription accounting (oversubscription support).
    # ------------------------------------------------------------------
    @property
    def subscribed_gpus(self) -> int:
        """Total GPUs requested by kernel replicas scheduled on this host."""
        return self._subscribed_total

    def subscribe(self, kernel_id: str, gpus: int) -> None:
        """Record that a replica of ``kernel_id`` subscribes ``gpus`` GPUs."""
        self._subscriptions[kernel_id] = self._subscriptions.get(kernel_id, 0) + gpus
        self._subscribed_total += gpus
        if self._cluster is not None and self.decommissioned_at is None:
            self._cluster._subscribed_delta(gpus, self)

    def unsubscribe(self, kernel_id: str) -> None:
        """Remove the subscription of ``kernel_id`` (replica removed)."""
        removed = self._subscriptions.pop(kernel_id, 0)
        self._subscribed_total -= removed
        if removed and self._cluster is not None and self.decommissioned_at is None:
            self._cluster._subscribed_delta(-removed, self)

    def has_subscription(self, kernel_id: str) -> bool:
        return kernel_id in self._subscriptions

    def subscription_ratio(self, replication_factor: int) -> float:
        """S / (G * R) as defined in §3.4.1 of the paper."""
        if self.spec.num_gpus == 0 or replication_factor == 0:
            return 0.0
        return self.subscribed_gpus / (self.spec.num_gpus * replication_factor)

    # ------------------------------------------------------------------
    # Active-training / GPU-binding accounting.
    # ------------------------------------------------------------------
    @property
    def idle_gpus(self) -> int:
        return self.spec.num_gpus - self._allocated_gpus

    @property
    def allocated_gpus(self) -> int:
        return self._allocated_gpus

    @property
    def active_training_count(self) -> int:
        return len(self._active_trainings)

    @property
    def committed_training_gpus(self) -> int:
        """GPUs currently bound to actively executing kernel replicas."""
        return self._committed_total

    def can_bind_gpus(self, count: int) -> bool:
        return count <= self.spec.num_gpus - self._allocated_gpus

    def bind_gpus(self, kernel_id: str, count: int, now: float) -> list[int]:
        """Exclusively bind ``count`` GPUs to ``kernel_id`` for a cell task."""
        device_ids = self.gpus.allocate(kernel_id, count, now)
        self._allocated_gpus += len(device_ids)
        previous = self._active_trainings.get(kernel_id, 0)
        self._active_trainings[kernel_id] = count
        self._committed_total += count - previous
        if self._cluster is not None and self.decommissioned_at is None:
            self._cluster._committed_delta(count - previous, self)
        return device_ids

    def release_gpus(self, kernel_id: str, now: float) -> int:
        """Release all GPUs bound to ``kernel_id``."""
        released = self.gpus.release(kernel_id, now)
        self._allocated_gpus -= released
        entry = self._active_trainings.pop(kernel_id, None)
        removed = entry or 0
        self._committed_total -= removed
        # Fire whenever anything observable changed — devices released
        # (idle_gpus ranks the host) or a training entry dropped (even a
        # zero-GPU one flips is_idle) — so the cluster index stays current.
        if (released or entry is not None) and self._cluster is not None \
                and self.decommissioned_at is None:
            self._cluster._committed_delta(-removed, self)
        return released

    @property
    def is_idle(self) -> bool:
        """Idle means no replica on this host is actively training."""
        return not self._active_trainings

    # ------------------------------------------------------------------
    # Container registry.
    # ------------------------------------------------------------------
    def register_container(self, container_id: str, container: object) -> None:
        self.containers[container_id] = container

    def unregister_container(self, container_id: str) -> None:
        self.containers.pop(container_id, None)

    @property
    def container_count(self) -> int:
        return len(self.containers)

    # ------------------------------------------------------------------
    # Cost and utilization helpers.
    # ------------------------------------------------------------------
    def uptime(self, now: float) -> float:
        end = self.decommissioned_at if self.decommissioned_at is not None else now
        return max(0.0, end - self.provisioned_at)

    def cost(self, now: float) -> float:
        """Provider-side cost of keeping this host provisioned until ``now``."""
        return self.uptime(now) / 3600.0 * self.spec.hourly_cost_usd

    def gpu_utilization(self, now: float) -> float:
        """Fraction of GPU-time actually used since the host was provisioned."""
        uptime = self.uptime(now)
        if uptime <= 0 or self.spec.num_gpus == 0:
            return 0.0
        busy = self.gpus.total_busy_time(now if self.is_active else self.decommissioned_at)
        return busy / (uptime * self.spec.num_gpus)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Host {self.host_id} gpus={self.allocated_gpus}/{self.spec.num_gpus} "
                f"subscribed={self.subscribed_gpus} containers={self.container_count}>")
