"""GPU devices and the per-host GPU allocator.

NotebookOS performs *dynamic GPU binding* (§3.3): GPUs are exclusively bound
to a kernel replica container only while a cell task is running and are
released as soon as the task completes.  The :class:`GPUAllocator` implements
that exclusive, whole-device allocation and records per-device busy time so
utilization figures (Fig. 2(c), Fig. 14(b)) can be reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class GPUDevice:
    """A single physical GPU on a host."""

    device_id: int
    host_id: str
    vram_gb: float = 32.0
    allocated_to: Optional[str] = None
    busy_since: Optional[float] = None
    total_busy_time: float = 0.0
    allocation_count: int = 0

    @property
    def is_allocated(self) -> bool:
        return self.allocated_to is not None

    def allocate(self, owner: str, now: float) -> None:
        if self.is_allocated:
            raise RuntimeError(
                f"GPU {self.host_id}/{self.device_id} already allocated to "
                f"{self.allocated_to}")
        self.allocated_to = owner
        self.busy_since = now
        self.allocation_count += 1

    def release(self, now: float) -> float:
        """Release the device; returns the busy interval just ended."""
        if not self.is_allocated:
            raise RuntimeError(
                f"GPU {self.host_id}/{self.device_id} is not allocated")
        started = self.busy_since if self.busy_since is not None else now
        interval = now - started
        self.total_busy_time += interval
        self.allocated_to = None
        self.busy_since = None
        return interval


@dataclass
class GPUAllocator:
    """Exclusive whole-GPU allocation for one host.

    Alongside the devices it keeps an owner -> held-devices map, updated by
    :meth:`allocate` and :meth:`release`, so ownership checks
    (:meth:`holds`) and releases never scan every device.  The map is exact
    only while devices are allocated and released through the allocator.
    """

    host_id: str
    devices: List[GPUDevice] = field(default_factory=list)
    _held: Dict[str, List[GPUDevice]] = field(default_factory=dict, init=False,
                                              repr=False, compare=False)

    @classmethod
    def create(cls, host_id: str, num_gpus: int, vram_gb: float = 32.0) -> "GPUAllocator":
        devices = [GPUDevice(device_id=i, host_id=host_id, vram_gb=vram_gb)
                   for i in range(num_gpus)]
        return cls(host_id=host_id, devices=devices)

    @property
    def num_gpus(self) -> int:
        return len(self.devices)

    @property
    def allocated_count(self) -> int:
        return sum(1 for device in self.devices if device.is_allocated)

    @property
    def idle_count(self) -> int:
        return self.num_gpus - self.allocated_count

    def idle_devices(self) -> List[GPUDevice]:
        return [device for device in self.devices if not device.is_allocated]

    def can_allocate(self, count: int) -> bool:
        return count <= self.idle_count

    def allocate(self, owner: str, count: int, now: float) -> List[int]:
        """Allocate ``count`` idle GPUs to ``owner``; returns device IDs."""
        idle = self.idle_devices()
        if count > len(idle):
            raise RuntimeError(
                f"host {self.host_id} has {len(idle)} idle GPUs, requested {count}")
        chosen = idle[:count]
        for device in chosen:
            device.allocate(owner, now)
        if chosen:
            self._held.setdefault(owner, []).extend(chosen)
        return [device.device_id for device in chosen]

    def release(self, owner: str, now: float) -> int:
        """Release every GPU held by ``owner``; returns the number released."""
        held = self._held.pop(owner, None)
        if held is None:
            return 0
        for device in held:
            device.release(now)
        return len(held)

    def holds(self, owner: str) -> bool:
        """Whether ``owner`` currently holds at least one GPU."""
        return owner in self._held

    def owners(self) -> Dict[str, List[int]]:
        """A fresh mapping of owner id to the device IDs it currently holds.

        Ids ascend within an owner, and owners are ordered by their lowest
        device id — the order a scan over the devices would produce.
        """
        holding = {owner: sorted(device.device_id for device in held)
                   for owner, held in self._held.items()}
        return dict(sorted(holding.items(), key=lambda item: item[1][0]))

    def total_busy_time(self, now: Optional[float] = None) -> float:
        """Aggregate GPU-busy seconds across all devices (including in-flight)."""
        total = sum(device.total_busy_time for device in self.devices)
        if now is not None:
            total += sum(now - device.busy_since for device in self.devices
                         if device.busy_since is not None)
        return total
