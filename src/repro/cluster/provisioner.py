"""The EC2-style VM provisioner used by scale-out operations (§3.4.2).

Scale-out provisions additional GPU servers "in a platform-dependent manner"
and then waits for the new servers' Local Schedulers to register with the
Global Scheduler.  The provisioner models the dominant cost — VM boot and
registration time — and notifies the platform when a host is ready.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Callable, List, Optional

from repro.cluster.host import Host, HostSpec
from repro.simulation.distributions import SeededRandom
from repro.simulation.engine import Environment


@dataclass
class ProvisioningRequest:
    """A pending request for one additional GPU server."""

    requested_at: float
    reason: str
    #: Minted per request from ``env.next_serial``, so ids restart in every
    #: run and never depend on what ran before in the process.
    request_id: int
    completed_at: Optional[float] = None
    host: Optional[Host] = None

    @property
    def provisioning_time(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.requested_at


class VMProvisioner:
    """Provisions and releases GPU server VMs with realistic boot delays."""

    def __init__(self, env: Environment, host_spec: Optional[HostSpec] = None,
                 boot_time_mean: float = 95.0, boot_time_sigma: float = 0.25,
                 rng: Optional[SeededRandom] = None,
                 host_id_prefix: str = "host") -> None:
        self.env = env
        self.host_spec = host_spec or HostSpec()
        self.boot_time_mean = boot_time_mean
        self.boot_time_sigma = boot_time_sigma
        self._rng = rng or SeededRandom(0xEC2)
        self._host_counter = count(1)
        self._host_id_prefix = host_id_prefix
        self.requests: List[ProvisioningRequest] = []
        self.hosts_provisioned = 0
        self.hosts_released = 0
        self._on_host_ready: List[Callable[[Host, ProvisioningRequest], None]] = []

    def on_host_ready(self, callback: Callable[[Host, ProvisioningRequest], None]) -> None:
        """Register a callback invoked when a provisioned host becomes ready."""
        self._on_host_ready.append(callback)

    def next_host_id(self) -> str:
        return f"{self._host_id_prefix}-{next(self._host_counter)}"

    def provision_immediately(self, count_hosts: int = 1) -> List[Host]:
        """Create hosts with no boot delay (initial cluster construction)."""
        hosts = []
        for _ in range(count_hosts):
            host = Host(host_id=self.next_host_id(), spec=self.host_spec,
                        provisioned_at=self.env.now)
            self.hosts_provisioned += 1
            hosts.append(host)
        return hosts

    def provision(self, reason: str = "scale-out"):
        """Simulation process: boot one new GPU server VM and return the Host."""
        import math

        request = ProvisioningRequest(
            requested_at=self.env.now, reason=reason,
            request_id=self.env.next_serial("provisioning-request"))
        self.requests.append(request)
        boot_time = max(20.0, self._rng.lognormvariate(
            math.log(self.boot_time_mean), self.boot_time_sigma))
        yield boot_time
        host = Host(host_id=self.next_host_id(), spec=self.host_spec,
                    provisioned_at=self.env.now)
        request.completed_at = self.env.now
        request.host = host
        self.hosts_provisioned += 1
        for callback in self._on_host_ready:
            callback(host, request)
        return host

    def release(self, host: Host) -> None:
        """Release (decommission) an idle host."""
        host.decommission(self.env.now)
        self.hosts_released += 1

    def mean_provisioning_time(self) -> Optional[float]:
        times = [r.provisioning_time for r in self.requests
                 if r.provisioning_time is not None]
        if not times:
            return None
        return sum(times) / len(times)
