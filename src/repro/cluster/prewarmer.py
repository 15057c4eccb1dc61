"""The pre-warmed container pool (Container Prewarmer, §3.2.3).

The Global Scheduler consults the prewarmer during kernel replica migrations
(and, under the LCP baseline, on every cell submission) to avoid on-demand
container cold starts.  Both the *initial pool* policy and the *maintenance*
policy are pluggable, mirroring the paper; the default keeps a fixed minimum
number of warm containers per host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cluster.container import Container, ContainerRuntime
from repro.cluster.resources import ResourceRequest
from repro.simulation.engine import Environment


@dataclass
class PrewarmPolicy:
    """Sizing policy for the pre-warmed container pool."""

    initial_per_host: int = 1
    min_per_host: int = 1
    max_per_host: int = 4
    replenish_interval: float = 30.0

    def validate(self) -> None:
        if self.initial_per_host < 0 or self.min_per_host < 0:
            raise ValueError("pool sizes must be non-negative")
        if self.max_per_host < self.min_per_host:
            raise ValueError("max_per_host must be >= min_per_host")


class ContainerPrewarmer:
    """Maintains pools of pre-warmed containers, one pool per host."""

    def __init__(self, env: Environment, policy: Optional[PrewarmPolicy] = None,
                 default_resources: Optional[ResourceRequest] = None) -> None:
        self.env = env
        self.policy = policy or PrewarmPolicy()
        self.policy.validate()
        self.default_resources = default_resources or ResourceRequest()
        self._runtimes: Dict[str, ContainerRuntime] = {}
        self._pools: Dict[str, List[Container]] = {}
        self.hits = 0
        self.misses = 0
        self._maintenance_process = None

    # ------------------------------------------------------------------
    # Host management.
    # ------------------------------------------------------------------
    def register_host(self, host_id: str, runtime: ContainerRuntime) -> None:
        """Track ``host_id`` and pre-warm its initial pool."""
        self._runtimes[host_id] = runtime
        self._pools.setdefault(host_id, [])
        for _ in range(self.policy.initial_per_host):
            self.env.process(self._warm_one(host_id),
                             name=f"prewarm:{host_id}")

    def unregister_host(self, host_id: str) -> None:
        self._runtimes.pop(host_id, None)
        self._pools.pop(host_id, None)

    def start_maintenance(self) -> None:
        """Start the periodic pool replenishment loop."""
        if self._maintenance_process is None:
            self._maintenance_process = self.env.process(
                self._maintenance_loop(), name="prewarmer-maintenance")

    # ------------------------------------------------------------------
    # Pool operations.
    # ------------------------------------------------------------------
    def available(self, host_id: str) -> int:
        """Number of warm containers ready on ``host_id``."""
        return len(self._pools.get(host_id, []))

    def total_available(self) -> int:
        return sum(len(pool) for pool in self._pools.values())

    def take(self, host_id: str) -> Optional[Container]:
        """Take a warm container from ``host_id``'s pool, if any."""
        pool = self._pools.get(host_id)
        if pool:
            self.hits += 1
            return pool.pop(0)
        self.misses += 1
        return None

    def put_back(self, host_id: str, container: Container) -> None:
        """Return a container to the warm pool (used by the LCP baseline)."""
        if container.is_running:
            container.release_to_pool()
        pool = self._pools.setdefault(host_id, [])
        if len(pool) < self.policy.max_per_host:
            pool.append(container)
        else:
            runtime = self._runtimes.get(host_id)
            if runtime is not None:
                self.env.process(runtime.terminate(container))

    # ------------------------------------------------------------------
    # Internal warming machinery.
    # ------------------------------------------------------------------
    def _warm_one(self, host_id: str):
        runtime = self._runtimes.get(host_id)
        if runtime is None:
            return None
        container = yield from runtime.provision(
            self.default_resources, prewarmed=False)
        pool = self._pools.get(host_id)
        if pool is None:
            # Host vanished while warming; discard the container.
            yield from runtime.terminate(container)
            return None
        if len(pool) < self.policy.max_per_host:
            pool.append(container)
        return container

    def _maintenance_loop(self):
        while True:
            yield self.policy.replenish_interval
            for host_id in list(self._runtimes):
                deficit = self.policy.min_per_host - self.available(host_id)
                for _ in range(max(0, deficit)):
                    self.env.process(self._warm_one(host_id))
