"""The pluggable distributed data store used for large-object checkpointing.

NotebookOS checkpoints large objects (model parameters, datasets) to a remote
store — AWS S3, Redis, or HDFS — and records only pointers in the Raft log
(§3.2.4).  The store here models per-backend request latency and throughput,
plus the node-level cache the paper mentions for limiting repeated reads.

Reads and writes come in halves (:meth:`DistributedDataStore.begin_read` /
:meth:`~DistributedDataStore.finish_read`, and the same for writes): the
begin half draws the latency, the caller sleeps it, and the finish half
records the operation.  :meth:`~DistributedDataStore.read` and
:meth:`~DistributedDataStore.write` are one-call processes over the halves.

Who passes a node id, and so fills or reads a node cache: only the LCP
baseline, keyed by host.  Its warm containers on a host serve many cells of
many sessions, so a session's later cell on the same host can hit the
model and dataset an earlier cell staged there.  Batch jobs and NotebookOS
replicas pass none.  Their ids are minted fresh, and the only reads that
could run under one are that job's own staging reads or a new replica's
restores, none of which finds its key cached, so a cache keyed by them
would be filled and never hit.

Figure 11 of the paper (read/write latency CDFs) is reproduced directly from
this model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.simulation.distributions import SeededRandom
from repro.simulation.engine import Environment


@dataclass(frozen=True)
class DataStoreBackend:
    """Latency/throughput model of one storage backend."""

    name: str
    base_latency_s: float
    latency_sigma: float
    write_bandwidth_bytes_per_s: float
    read_bandwidth_bytes_per_s: float

    def request_latency(self, rng: SeededRandom) -> float:
        return max(self.base_latency_s * 0.25,
                   rng.lognormvariate(math.log(self.base_latency_s), self.latency_sigma))


# Backend presets: magnitudes chosen to match the paper's Figure 11 (p99
# read ≈ 3.95 s and p99 write ≈ 7.07 s for multi-hundred-MB objects over S3).
S3_BACKEND = DataStoreBackend(name="s3", base_latency_s=0.060, latency_sigma=0.5,
                              write_bandwidth_bytes_per_s=180e6,
                              read_bandwidth_bytes_per_s=300e6)
REDIS_BACKEND = DataStoreBackend(name="redis", base_latency_s=0.002, latency_sigma=0.4,
                                 write_bandwidth_bytes_per_s=900e6,
                                 read_bandwidth_bytes_per_s=1100e6)
HDFS_BACKEND = DataStoreBackend(name="hdfs", base_latency_s=0.020, latency_sigma=0.5,
                                write_bandwidth_bytes_per_s=400e6,
                                read_bandwidth_bytes_per_s=550e6)

_BACKENDS = {"s3": S3_BACKEND, "redis": REDIS_BACKEND, "hdfs": HDFS_BACKEND}

#: Latency of a read served from the reading node's cache, in seconds.
CACHE_HIT_S = 0.001


@dataclass
class StoredObject:
    """Metadata for an object persisted to the data store."""

    key: str
    size_bytes: int
    owner: str
    written_at: float
    #: Minted per store write from ``env.next_serial``, so ids restart in
    #: every run and never depend on what ran before in the process.
    object_id: int
    version: int = 1


@dataclass
class ObjectPointer:
    """A Raft-log-sized pointer to a large object in the data store."""

    key: str
    size_bytes: int
    version: int
    backend: str


class DistributedDataStore:
    """A simulated S3/Redis/HDFS-style object store with a node-level cache."""

    def __init__(self, env: Environment, backend: DataStoreBackend | str = "s3",
                 rng: Optional[SeededRandom] = None,
                 node_cache_capacity_bytes: int = 8 * 1024 ** 3) -> None:
        if isinstance(backend, str):
            try:
                backend = _BACKENDS[backend]
            except KeyError:
                raise ValueError(
                    f"unknown data store backend {backend!r}; "
                    f"choose from {sorted(_BACKENDS)}") from None
        self.env = env
        self.backend = backend
        self._rng = rng or SeededRandom(0xDA7A)
        self._objects: Dict[str, StoredObject] = {}
        # node_id -> {key: size} for the simple per-node cache.
        self._node_caches: Dict[str, Dict[str, int]] = {}
        self._node_cache_capacity = node_cache_capacity_bytes
        self.write_latencies: List[float] = []
        self.read_latencies: List[float] = []
        self.cache_hits = 0
        self.cache_misses = 0
        self.bytes_written = 0
        self.bytes_read = 0

    # ------------------------------------------------------------------
    # Writes and reads, in halves and as simulation processes.
    # ------------------------------------------------------------------
    def write(self, key: str, size_bytes: int, owner: str, node_id: Optional[str] = None):
        """Simulation process: persist an object; returns an :class:`ObjectPointer`."""
        start = self.env.now
        yield self.begin_write(size_bytes)
        return self.pointer_to(
            self.finish_write(key, size_bytes, owner, start, node_id))

    def begin_write(self, size_bytes: int) -> float:
        """First half of :meth:`write`: draws and returns the latency.

        A caller that sleeps this latency itself and then calls
        :meth:`finish_write` writes exactly as :meth:`write` does, without
        a generator of its own.
        """
        backend = self.backend
        latency = backend.request_latency(self._rng)
        return latency + size_bytes / backend.write_bandwidth_bytes_per_s

    def finish_write(self, key: str, size_bytes: int, owner: str,
                     start: float, node_id: Optional[str] = None
                     ) -> StoredObject:
        """Second half of :meth:`write`, once the latency has elapsed:
        records a write begun at ``start``; returns the
        :class:`StoredObject` it filed (the store's own record, not a copy).
        """
        now = self.env.now
        existing = self._objects.get(key)
        version = existing.version + 1 if existing else 1
        stored = self._objects[key] = StoredObject(
            key=key, size_bytes=size_bytes, owner=owner, written_at=now,
            object_id=self.env.next_serial("stored-object"), version=version)
        self.bytes_written += size_bytes
        self.write_latencies.append(now - start)
        if node_id is not None:
            self._cache_put(node_id, key, size_bytes)
        return stored

    def pointer_to(self, stored: StoredObject) -> ObjectPointer:
        """The Raft-log pointer to one version of a stored object."""
        return ObjectPointer(key=stored.key, size_bytes=stored.size_bytes,
                             version=stored.version, backend=self.backend.name)

    def read(self, key: str, node_id: Optional[str] = None):
        """Simulation process: fetch an object; returns its :class:`StoredObject`."""
        start = self.env.now
        delay, hit = self.begin_read(key, node_id)
        yield delay
        return self.finish_read(key, start, node_id, hit)

    def begin_read(self, key: str, node_id: Optional[str] = None
                   ) -> Tuple[float, bool]:
        """First half of :meth:`read`: returns ``(delay, hit)``.

        Raises :class:`KeyError` for a missing key before any time passes.
        A hit in ``node_id``'s cache costs :data:`CACHE_HIT_S` and draws
        nothing; a miss draws one request latency from the store's stream
        and adds the transfer time.  The hit or miss is counted here.  A
        caller that sleeps ``delay`` and then calls :meth:`finish_read`
        with ``hit`` reads exactly as :meth:`read` does, without a
        generator of its own.
        """
        stored = self._objects.get(key)
        if stored is None:
            raise KeyError(f"object {key!r} not found in the data store")
        if node_id is not None and key in self._node_caches.get(node_id, ()):
            self.cache_hits += 1
            return CACHE_HIT_S, True
        self.cache_misses += 1
        backend = self.backend
        latency = backend.request_latency(self._rng)
        return (latency + stored.size_bytes
                / backend.read_bandwidth_bytes_per_s), False

    def finish_read(self, key: str, start: float,
                    node_id: Optional[str] = None, hit: bool = False
                    ) -> StoredObject:
        """Second half of :meth:`read`, once the delay has elapsed: records
        a read of ``key`` begun at ``start``; returns the key's current
        :class:`StoredObject`.

        A miss counts the object's bytes and only now fills ``node_id``'s
        cache, so another read of the key on that node while this one is
        in flight misses too.
        """
        stored = self._objects[key]
        self.read_latencies.append(self.env.now - start)
        if not hit:
            self.bytes_read += stored.size_bytes
            if node_id is not None:
                self._cache_put(node_id, key, stored.size_bytes)
        return stored

    def delete(self, key: str) -> bool:
        """Remove an object's metadata (no latency modelled)."""
        return self._objects.pop(key, None) is not None

    def contains(self, key: str) -> bool:
        return key in self._objects

    def object_count(self) -> int:
        return len(self._objects)

    def total_stored_bytes(self) -> int:
        return sum(obj.size_bytes for obj in self._objects.values())

    # ------------------------------------------------------------------
    # Node-level cache.
    # ------------------------------------------------------------------
    def _cache_put(self, node_id: str, key: str, size_bytes: int) -> None:
        cache = self._node_caches.setdefault(node_id, {})
        cache[key] = size_bytes
        # Evict oldest entries when over capacity (insertion-ordered dict).
        while sum(cache.values()) > self._node_cache_capacity and len(cache) > 1:
            oldest = next(iter(cache))
            if oldest == key and len(cache) == 1:
                break
            cache.pop(oldest)

    def invalidate_cache(self, node_id: str) -> None:
        """Drop the cache of a node (e.g. a terminated replica container)."""
        self._node_caches.pop(node_id, None)
