"""Large-object checkpointing to the distributed data store.

The checkpoint manager persists large namespace objects (model parameters,
datasets) for three purposes (§3.2.3–§3.2.5):

1. asynchronous post-execution replication so standby replicas can fetch the
   objects if they later become the executor,
2. state hand-off during replica migration, and
3. recovery after multi-replica failures.

Each write keeps one record: the data store's own
:class:`~repro.cluster.datastore.StoredObject` for that version, held in
:attr:`CheckpointManager.records` until the next write of the same name.
Pointers are built from it only when a caller asks for one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.api.hooks import CHECKPOINT
from repro.cluster.datastore import (
    DistributedDataStore,
    ObjectPointer,
    StoredObject,
)
from repro.simulation.engine import Environment
from repro.statesync.objects import NamespaceObject


@dataclass
class CheckpointManager:
    """Persists and restores a kernel's large objects.

    ``records`` maps each checkpointed object's name to the
    :class:`~repro.cluster.datastore.StoredObject` its latest write filed in
    the data store; that one object is the whole record of the write.

    When a :class:`~repro.api.hooks.HookBus` is attached, every completed
    checkpoint write is published on the ``CHECKPOINT`` topic as
    ``(time, kernel_id, object_name, size_bytes)`` — a synchronous
    notification that adds nothing to the simulation timeline.
    """

    env: Environment
    datastore: DistributedDataStore
    kernel_id: str
    records: Dict[str, StoredObject] = field(default_factory=dict)
    bytes_checkpointed: int = 0
    checkpoints_written: int = 0
    objects_restored: int = 0
    hooks: Optional[object] = None

    def _key(self, name: str) -> str:
        return f"{self.kernel_id}/{name}"

    def checkpoint(self, obj: NamespaceObject):
        """Simulation process: write one large object; returns its pointer."""
        start = self.env.now
        yield self.datastore.begin_write(obj.size_bytes)
        return self.datastore.pointer_to(self._written(obj, start))

    def checkpoint_all(self, objects: List[NamespaceObject]):
        """Simulation process: checkpoint a batch of large objects in
        sequence; returns their pointers."""
        env = self.env
        datastore = self.datastore
        begin_write = datastore.begin_write
        pointers = []
        for obj in objects:
            start = env.now
            yield begin_write(obj.size_bytes)
            pointers.append(datastore.pointer_to(self._written(obj, start)))
        return pointers

    def _written(self, obj: NamespaceObject, start: float) -> StoredObject:
        """Record the write of ``obj`` begun at ``start``, whose latency
        has just elapsed; returns the store's record of it."""
        stored = self.records[obj.name] = self.datastore.finish_write(
            self._key(obj.name), obj.size_bytes, self.kernel_id, start)
        self.bytes_checkpointed += obj.size_bytes
        self.checkpoints_written += 1
        if self.hooks is not None:
            self.hooks.publish(CHECKPOINT, self.env.now, self.kernel_id,
                               obj.name, obj.size_bytes)
        return stored

    def restore(self, name: str):
        """Simulation process: read one checkpointed object back."""
        record = self.records.get(name)
        if record is None:
            raise KeyError(f"no checkpoint for object {name!r} of kernel {self.kernel_id}")
        stored = yield from self.datastore.read(self._key(name))
        self.objects_restored += 1
        return stored

    def restore_all(self):
        """Simulation process: read every checkpointed object (migration path)."""
        restored = []
        for name in list(self.records):
            stored = yield from self.restore(name)
            restored.append(stored)
        return restored

    @property
    def checkpointed_names(self) -> List[str]:
        return list(self.records)

    def pointer_for(self, name: str) -> Optional[ObjectPointer]:
        record = self.records.get(name)
        return self.datastore.pointer_to(record) if record else None

    def total_checkpointed_bytes(self) -> int:
        """Bytes of the *current* versions held in the store."""
        return sum(record.size_bytes for record in self.records.values())
