"""Cluster substrate: GPU servers, containers, storage, and provisioning.

This package models the physical/virtual infrastructure NotebookOS runs on:

* :mod:`repro.cluster.resources` — resource requests and pools (millicpus,
  memory, GPUs, VRAM), matching the units in §3.2.1 of the paper;
* :mod:`repro.cluster.gpu` — individual GPU devices and per-host allocators;
* :mod:`repro.cluster.host` — an 8-GPU server with committed and subscribed
  resource accounting (the *subscription ratio* of §3.4.1);
* :mod:`repro.cluster.index` — incrementally maintained host orderings
  (placement rank, idle set, idle-GPU buckets) kept current by the
  ``Host -> ClusterState`` delta hooks, so scheduling decisions are
  O(log n + k) instead of full-cluster sorts;
* :mod:`repro.cluster.container` — kernel-replica containers with cold/warm
  start latency models;
* :mod:`repro.cluster.prewarmer` — the pre-warmed container pool used to hide
  migration and provisioning overhead (§3.2.3);
* :mod:`repro.cluster.datastore` — the pluggable distributed data store
  (S3 / Redis / HDFS latency models) used for large-object checkpointing;
* :mod:`repro.cluster.provisioner` — the EC2-style VM provisioner used by
  scale-out operations (§3.4.2).
"""

from repro.cluster.resources import ResourcePool, ResourceRequest
from repro.cluster.gpu import GPUAllocator, GPUDevice
from repro.cluster.host import Host, HostSpec
from repro.cluster.index import HostIndex, rank_key
from repro.cluster.container import (
    Container,
    ContainerLatencyModel,
    ContainerRuntime,
    ContainerState,
)
from repro.cluster.prewarmer import ContainerPrewarmer, PrewarmPolicy
from repro.cluster.datastore import (
    DataStoreBackend,
    DistributedDataStore,
    HDFS_BACKEND,
    REDIS_BACKEND,
    S3_BACKEND,
    StoredObject,
)
from repro.cluster.provisioner import ProvisioningRequest, VMProvisioner

__all__ = [
    "Container",
    "ContainerLatencyModel",
    "ContainerPrewarmer",
    "ContainerRuntime",
    "ContainerState",
    "DataStoreBackend",
    "DistributedDataStore",
    "GPUAllocator",
    "GPUDevice",
    "HDFS_BACKEND",
    "Host",
    "HostIndex",
    "HostSpec",
    "PrewarmPolicy",
    "ProvisioningRequest",
    "REDIS_BACKEND",
    "ResourcePool",
    "ResourceRequest",
    "S3_BACKEND",
    "StoredObject",
    "VMProvisioner",
    "rank_key",
]
