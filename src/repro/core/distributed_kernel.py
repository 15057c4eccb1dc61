"""Distributed kernels and their replicas.

A NotebookOS *distributed kernel* is one logical Jupyter kernel realised as
``R`` replicas (default 3) scheduled on different GPU servers.  Any replica
can execute CPU or GPU tasks; the executor election protocol
(:mod:`repro.core.election`) picks which one runs each submitted cell, and
the state synchronizer (:mod:`repro.statesync`) keeps the others up to date.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.cluster.container import Container
from repro.cluster.host import Host
from repro.cluster.resources import ResourceRequest
from repro.core.election import ExecutorElection, ReplicaProposal
from repro.statesync.objects import NamespaceObject
from repro.statesync.synchronizer import StateSynchronizer
from repro.workload.models import WorkloadAssignment


class ReplicaState(enum.Enum):
    """Lifecycle of a kernel replica."""

    STARTING = "starting"
    IDLE = "idle"
    EXECUTING = "executing"
    MIGRATING = "migrating"
    TERMINATED = "terminated"


#: The namespace descriptors every kernel shares: hyper-parameters, loss
#: histories, result dicts and optimizer state, identical for every session.
#: The tuple and its frozen descriptors are immutable, so sharing them across
#: kernels and replays cannot carry state from one run into the next.
FIXED_NAMESPACE = (
    NamespaceObject(name="learning_rate", size_bytes=32, kind="scalar"),
    NamespaceObject(name="batch_size", size_bytes=32, kind="scalar"),
    NamespaceObject(name="history", size_bytes=16 * 1024, kind="history"),
    NamespaceObject(name="losses", size_bytes=16 * 1024, kind="history"),
    NamespaceObject(name="results", size_bytes=8 * 1024, kind="dict"),
    NamespaceObject(name="metrics", size_bytes=8 * 1024, kind="dict"),
    NamespaceObject(name="optimizer", size_bytes=256 * 1024, kind="optimizer"),
)


# Module constants: reading a member through the enum class costs about ten
# times a global lookup, and the election path reads these on every cell.
_IDLE = ReplicaState.IDLE
_EXECUTING = ReplicaState.EXECUTING


@dataclass
class KernelReplica:
    """One replica of a distributed kernel, hosted in a container."""

    replica_id: str
    kernel_id: str
    replica_index: int
    host: Host
    container: Container
    state: ReplicaState = ReplicaState.STARTING
    created_at: float = 0.0
    executions: int = 0
    was_prewarmed: bool = False
    #: The LEAD proposal :meth:`proposal` built on its first LEAD.  A LEAD
    #: proposal reads nothing that changes (a replica never changes host; a
    #: migration creates a new replica) and is frozen, so one object serves
    #: every election.
    _lead: Optional[ReplicaProposal] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def host_id(self) -> str:
        return self.host.host_id

    @property
    def is_available(self) -> bool:
        return self.state in (ReplicaState.IDLE, ReplicaState.EXECUTING)

    def can_lead(self, gpus_required: int) -> bool:
        """Whether this replica's host could bind the GPUs for a task now."""
        if self.state is not _IDLE:
            return False
        if gpus_required == 0:
            return True
        return self.host.can_bind_gpus(gpus_required)

    def proposal(self, gpus_required: int) -> ReplicaProposal:
        """This replica's LEAD proposal (the same object every time), or a
        fresh YIELD proposal whose reason gives the host's idle GPUs now."""
        host = self.host
        if self.can_lead(gpus_required):
            lead = self._lead
            if lead is None:
                lead = self._lead = ReplicaProposal(
                    self.replica_id, host.host_id, True, "sufficient idle GPUs")
            return lead
        return ReplicaProposal(
            self.replica_id, host.host_id, False,
            f"only {host.idle_gpus} idle GPUs on {host.host_id}")

    def terminate(self) -> None:
        self.state = ReplicaState.TERMINATED


@dataclass
class DistributedKernel:
    """A logical kernel made of ``R`` replicas plus its coordination state."""

    kernel_id: str
    session_id: str
    resource_request: ResourceRequest
    assignment: Optional[WorkloadAssignment] = None
    replicas: List[KernelReplica] = field(default_factory=list)
    election: Optional[ExecutorElection] = None
    synchronizer: Optional[StateSynchronizer] = None
    created_at: float = 0.0
    terminated_at: Optional[float] = None
    migrations: int = 0
    executions_completed: int = 0
    #: The list :meth:`namespace_objects` built on its first call.
    _namespace: Optional[List[NamespaceObject]] = field(
        default=None, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Replica management.
    # ------------------------------------------------------------------
    def add_replica(self, replica: KernelReplica) -> None:
        self.replicas.append(replica)

    def remove_replica(self, replica_id: str) -> Optional[KernelReplica]:
        for index, replica in enumerate(self.replicas):
            if replica.replica_id == replica_id:
                return self.replicas.pop(index)
        return None

    def replica_by_id(self, replica_id: str) -> Optional[KernelReplica]:
        for replica in self.replicas:
            if replica.replica_id == replica_id:
                return replica
        return None

    @property
    def active_replicas(self) -> List[KernelReplica]:
        return [r for r in self.replicas if r.state != ReplicaState.TERMINATED]

    @property
    def host_ids(self) -> List[str]:
        return [r.host_id for r in self.active_replicas]

    @property
    def is_terminated(self) -> bool:
        return self.terminated_at is not None

    @property
    def gpus_requested(self) -> int:
        return self.resource_request.gpus

    # ------------------------------------------------------------------
    # Election support.
    # ------------------------------------------------------------------
    def make_proposals(self, gpus_required: int) -> List[ReplicaProposal]:
        """Each idle or executing replica's LEAD / YIELD proposal for one
        cell execution (in replica order), in a fresh list on every call:
        the election's outcome keeps the list it is given."""
        return [replica.proposal(gpus_required) for replica in self.replicas
                if replica.state is _IDLE or replica.state is _EXECUTING]

    # ------------------------------------------------------------------
    # Namespace model for state replication.
    # ------------------------------------------------------------------
    def namespace_objects(self) -> List[NamespaceObject]:
        """The kernel namespace as seen by the state synchronizer.

        The model parameters and dataset of the session's workload assignment
        are the large objects; the training hyper-parameters and loss history
        are the small ones.  The model is fixed at construction, so the list
        is built once and every later call returns that same list object.
        The seven fixed descriptors are the shared, frozen
        :data:`FIXED_NAMESPACE` objects; only ``model`` and ``train_loader``
        are the kernel's own.
        """
        if self._namespace is not None:
            return self._namespace
        objects = list(FIXED_NAMESPACE)
        if self.assignment is not None:
            objects.append(NamespaceObject(
                name="model", size_bytes=self.assignment.model.parameter_bytes,
                kind="model", resides_on_gpu=True))
            objects.append(NamespaceObject(
                name="train_loader",
                size_bytes=min(self.assignment.dataset.size_bytes, 4 * 1024 ** 3),
                kind="dataset"))
        else:
            objects.append(NamespaceObject(name="model", size_bytes=200 * 1024 ** 2,
                                           kind="model", resides_on_gpu=True))
        self._namespace = objects
        return objects
