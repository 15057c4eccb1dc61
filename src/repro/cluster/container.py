"""Kernel-replica containers and their provisioning latency model.

The paper's baselines differ primarily in *when* they pay container
provisioning costs: Reservation pays once per session, Batch pays a cold
start on every submission, NotebookOS pays three cold starts at kernel
creation but keeps a small pre-warmed pool for migrations, and LCP serves
requests from a large shared warm pool.  :class:`ContainerLatencyModel`
captures those costs; :class:`ContainerRuntime` is the per-host runtime that
provisions and terminates containers (the role Docker plays in the real
system).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from repro.simulation.distributions import SeededRandom, stable_seed
from repro.simulation.engine import Environment
from repro.cluster.resources import ResourceRequest


class ContainerState(enum.Enum):
    """Lifecycle states of a kernel replica container."""

    PROVISIONING = "provisioning"
    WARM = "warm"          # pre-warmed, no kernel assigned yet
    RUNNING = "running"    # hosting a kernel replica
    TERMINATED = "terminated"


@dataclass
class ContainerLatencyModel:
    """Provisioning latency parameters (seconds).

    Defaults follow the magnitudes reported for containerized notebook
    platforms: pulling images and initializing a Python runtime with the DL
    stack dominates cold starts, while warm starts only pay process start and
    registration.
    """

    cold_start_mean: float = 35.0
    cold_start_sigma: float = 0.35
    warm_start_mean: float = 1.2
    warm_start_sigma: float = 0.3
    termination_time: float = 0.5
    registration_time: float = 0.25

    def cold_start(self, rng: SeededRandom) -> float:
        return max(5.0, rng.lognormvariate(_mu(self.cold_start_mean), self.cold_start_sigma))

    def warm_start(self, rng: SeededRandom) -> float:
        return max(0.1, rng.lognormvariate(_mu(self.warm_start_mean), self.warm_start_sigma))


def _mu(median: float) -> float:
    import math

    return math.log(median)


@dataclass
class Container:
    """A container that can host one kernel replica."""

    host_id: str
    resources: ResourceRequest
    #: Minted per provision from ``env.next_serial``, so ids restart in
    #: every run and never depend on what ran before in the process.
    container_id: str
    state: ContainerState = ContainerState.PROVISIONING
    kernel_id: Optional[str] = None
    replica_id: Optional[str] = None
    created_at: float = 0.0
    started_at: Optional[float] = None
    terminated_at: Optional[float] = None
    was_prewarmed: bool = False

    @property
    def is_running(self) -> bool:
        return self.state == ContainerState.RUNNING

    @property
    def is_warm(self) -> bool:
        return self.state == ContainerState.WARM

    def assign(self, kernel_id: str, replica_id: str) -> None:
        """Assign a kernel replica to this container."""
        if self.state not in (ContainerState.WARM, ContainerState.PROVISIONING):
            raise RuntimeError(f"cannot assign kernel to container in state {self.state}")
        self.kernel_id = kernel_id
        self.replica_id = replica_id
        self.state = ContainerState.RUNNING

    def release_to_pool(self) -> None:
        """Return the container to the warm pool (LCP policy behaviour)."""
        if self.state != ContainerState.RUNNING:
            raise RuntimeError(f"cannot release container in state {self.state}")
        self.kernel_id = None
        self.replica_id = None
        self.state = ContainerState.WARM

    def terminate(self, now: float) -> None:
        self.state = ContainerState.TERMINATED
        self.terminated_at = now

    def lifetime(self, now: float) -> float:
        end = self.terminated_at if self.terminated_at is not None else now
        return max(0.0, end - self.created_at)


class ContainerRuntime:
    """Per-host container runtime (the simulated Docker daemon).

    Provisioning is a simulation process: callers ``yield`` the returned
    process to wait for the container to become available.  Cold and warm
    starts draw from :class:`ContainerLatencyModel`.
    """

    def __init__(self, env: Environment, host_id: str,
                 latency_model: Optional[ContainerLatencyModel] = None,
                 rng: Optional[SeededRandom] = None) -> None:
        self.env = env
        self.host_id = host_id
        self.latency_model = latency_model or ContainerLatencyModel()
        self._rng = rng or SeededRandom(stable_seed(host_id))
        self.containers: Dict[str, Container] = {}
        self.cold_starts = 0
        self.warm_starts = 0
        self.terminations = 0

    def begin_provision(self, resources: ResourceRequest,
                        prewarmed: bool = False) -> tuple[Container, float]:
        """Synchronous first half of :meth:`provision`.

        Creates and registers the container, draws the start latency from
        this runtime's rng stream, and returns ``(container, wait)`` where
        ``wait`` is the seconds until :meth:`finish_provision` may run.
        Split out so the batched multi-replica start path can begin several
        provisions in one pass and sleep through their waits with single
        scheduled wake-ups.
        """
        container = Container(
            host_id=self.host_id, resources=resources,
            container_id=f"container-{self.env.next_serial('container')}",
            created_at=self.env.now, was_prewarmed=prewarmed)
        self.containers[container.container_id] = container
        if prewarmed:
            delay = self.latency_model.warm_start(self._rng)
            self.warm_starts += 1
        else:
            delay = self.latency_model.cold_start(self._rng)
            self.cold_starts += 1
        return container, delay + self.latency_model.registration_time

    def finish_provision(self, container: Container) -> Container:
        """Synchronous second half of :meth:`provision` (post-wait)."""
        if container.state == ContainerState.PROVISIONING:
            container.state = ContainerState.WARM
        container.started_at = self.env.now
        return container

    def provision(self, resources: ResourceRequest, prewarmed: bool = False):
        """Simulation process: provision a container and return it."""
        container, wait = self.begin_provision(resources, prewarmed=prewarmed)
        yield wait
        return self.finish_provision(container)

    def finish_terminate(self, container: Container) -> Container:
        """Synchronous second half of :meth:`terminate` (post-wait)."""
        container.terminate(self.env.now)
        self.containers.pop(container.container_id, None)
        self.terminations += 1
        return container

    def terminate(self, container: Container):
        """Simulation process: terminate a container."""
        yield self.latency_model.termination_time
        return self.finish_terminate(container)

    @property
    def running_containers(self) -> list[Container]:
        return [c for c in self.containers.values() if c.is_running]

    @property
    def warm_containers(self) -> list[Container]:
        return [c for c in self.containers.values() if c.is_warm]
