"""Barrier frames: what shards exchange at each epoch barrier.

At every epoch barrier each shard emits one :class:`ShardFrame` carrying
the GPUs of placement-failure deficit (capacity pressure) it noted during
the epoch.  The coordinator merges the K frames **in shard index order**
into one :class:`GlobalFrame` and broadcasts it back; each shard keeps the
merged fleet pressure, which QoS's shard-aware thresholds read (see
``QosTarget.pressure_relief``).

Determinism contract: frames are *pure functions of shard state* and the
merge is a *pure function of the frames in shard order*, so the serial
in-process driver and the one-process-per-shard driver exchange
byte-identical data — which is why the two execution modes produce
byte-identical merged results (pinned in tests/test_shard.py).  Absorbing
a global frame schedules no simulation event and perturbs no RNG stream.
The frames' dict forms are the parallel driver's wire format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

__all__ = ["ShardFrame", "GlobalFrame", "ShardContext"]


@dataclass
class ShardFrame:
    """One shard's barrier snapshot for one epoch."""

    shard: int
    epoch: int
    time: float
    #: GPUs of placement-failure deficit noted this epoch (see
    #: GlobalScheduler/ShardContext.note_pressure).
    pressure: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {"shard": self.shard, "epoch": self.epoch, "time": self.time,
                "pressure": self.pressure}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ShardFrame":
        return cls(shard=data["shard"], epoch=data["epoch"],
                   time=data["time"], pressure=data["pressure"])


@dataclass
class GlobalFrame:
    """The merged view of one epoch across every shard (shard order)."""

    epoch: int
    time: float
    #: Fleet-wide GPUs of placement-failure deficit noted this epoch.
    pressure: int

    @classmethod
    def merge(cls, frames: Sequence[ShardFrame]) -> "GlobalFrame":
        """Merge one epoch's frames; ``frames`` MUST be in shard order."""
        if not frames:
            raise ValueError("cannot merge zero frames")
        epochs = {f.epoch for f in frames}
        times = {f.time for f in frames}
        if len(epochs) != 1 or len(times) != 1:
            raise ValueError(
                f"barrier skew: epochs {sorted(epochs)} times {sorted(times)}")
        return cls(epoch=frames[0].epoch, time=frames[0].time,
                   pressure=sum(f.pressure for f in frames))

    def to_dict(self) -> Dict[str, object]:
        return {"epoch": self.epoch, "time": self.time,
                "pressure": self.pressure}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "GlobalFrame":
        return cls(epoch=data["epoch"], time=data["time"],
                   pressure=data["pressure"])


class ShardContext:
    """One shard's barrier-side state: counters and the fleet pressure.

    Attached to the platform and the global scheduler by the shard runner
    (duck-typed — the core never imports this module).  Everything here is
    accounting: noting pressure or absorbing a global frame never schedules
    simulation events, which is what keeps the sharded run's per-shard
    event streams identical across execution modes.
    """

    def __init__(self, shard_index: int, num_shards: int) -> None:
        self.shard_index = int(shard_index)
        self.num_shards = int(num_shards)
        #: Pressure of the last merged frame (one epoch stale; 0 before the
        #: first barrier) — what QoS reads as fleet-wide pressure.
        self.fleet_pressure = 0
        self.epochs = 0
        self.barrier_stall_s = 0.0
        self.dispatched_per_epoch: List[int] = []
        self.pressure_events = 0
        self.pressure_gpus = 0
        self._pressure_gpus_last = 0

    # -- producer side (called from inside the shard's simulation) -------
    def note_pressure(self, gpu_deficit: int) -> None:
        """Record a placement-failure capacity deficit (accounting only)."""
        self.pressure_events += 1
        self.pressure_gpus += int(gpu_deficit)

    # -- barrier side (called by the shard runner) -----------------------
    def make_frame(self, epoch: int, time: float,
                   dispatched: int) -> ShardFrame:
        """Snapshot this epoch into a frame carrying its pressure delta."""
        self.epochs += 1
        self.dispatched_per_epoch.append(int(dispatched))
        pressure = self.pressure_gpus - self._pressure_gpus_last
        self._pressure_gpus_last = self.pressure_gpus
        return ShardFrame(shard=self.shard_index, epoch=epoch, time=time,
                          pressure=pressure)

    def absorb_global(self, frame: GlobalFrame) -> None:
        """Keep one merged frame's fleet pressure."""
        self.fleet_pressure = frame.pressure

    def record_stall(self, seconds: float) -> None:
        """Account wall-clock time spent waiting at a barrier."""
        self.barrier_stall_s += max(0.0, seconds)

    # -- reporting --------------------------------------------------------
    def stats_payload(self) -> Dict[str, object]:
        """The ``stats["shard"]`` payload for the RUN_END publish."""
        return {
            "index": self.shard_index,
            "num_shards": self.num_shards,
            "epochs": self.epochs,
            "barrier_stall_s": round(self.barrier_stall_s, 6),
            "dispatched_per_epoch": list(self.dispatched_per_epoch),
            "pressure_events": self.pressure_events,
            "pressure_gpus": self.pressure_gpus,
        }
