"""Deterministic space partition and epoch schedule for sharded runs.

A :class:`ShardPlan` fixes, from nothing but the workload trace and the
shard count, everything a sharded run must agree on before any process
starts:

* **session partition** — sessions are dealt round-robin over the shard
  indices in ``(start_time, session_id)`` order, so every shard receives an
  arrival stream with the same temporal shape as the whole (a contiguous
  split would give shard 0 the morning and shard K-1 the evening).  Within
  a shard, sessions keep their *original trace order* — the order the
  platform creates session processes in, which same-timestamp event
  ordering (and therefore bit-identity) depends on.
* **barrier schedule** — the global horizon is cut into fixed epochs; every
  shard steps to exactly the same barrier times.  Barrier ``k`` sits at
  ``(k + 1) * epoch_s`` (computed by multiplication, not accumulation, so
  every process derives byte-identical floats) and the last barrier is the
  horizon itself.

The plan is pure data: both the in-process serial driver and the
per-process workers derive it independently from the same inputs and get
the same object, which is what makes the two execution modes
interchangeable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.workload.trace import SessionTrace, Trace

__all__ = ["ShardPlan", "default_epoch_s", "partition_sessions",
           "shard_traces", "MIN_EPOCH_S", "MAX_EPOCH_S", "MAX_BARRIERS"]

#: Epoch bounds: barriers are pure synchronization overhead below a minute
#: of simulated time, and above half an hour the frames get too stale to be
#: a useful global view.
MIN_EPOCH_S = 60.0
MAX_EPOCH_S = 1800.0

#: Default barrier count a run is cut into when no epoch length is given.
DEFAULT_EPOCHS_PER_RUN = 64

#: Most barriers a run may be cut into.  The schedule is one float per
#: barrier, so an unbounded count (``epoch_s=1`` over a 1e7 s horizon)
#: would build millions of them.  An explicit ``epoch_s`` over the cap is
#: rejected; the default epoch grows past MAX_EPOCH_S to stay under it,
#: which only happens past a five-year horizon (100k barriers of
#: MAX_EPOCH_S).
MAX_BARRIERS = 100_000


def default_epoch_s(horizon: float) -> float:
    """~64 epochs per run, clamped to [MIN_EPOCH_S, MAX_EPOCH_S], and never
    so short that the run needs more than MAX_BARRIERS barriers."""
    if horizon <= 0:
        return MIN_EPOCH_S
    epoch = max(
        min(MAX_EPOCH_S, max(MIN_EPOCH_S, horizon / DEFAULT_EPOCHS_PER_RUN)),
        horizon / MAX_BARRIERS)
    if horizon / epoch > MAX_BARRIERS:
        # horizon / (horizon / MAX_BARRIERS) can round to just above the
        # cap; one ulp more epoch brings it back to exactly the cap.
        epoch = math.nextafter(epoch, math.inf)
    return epoch


def partition_sessions(sessions: Sequence[SessionTrace],
                       num_shards: int) -> List[List[SessionTrace]]:
    """Round-robin sessions over shards in ``(start_time, session_id)``
    order, preserving original relative order within each shard."""
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    order = sorted(range(len(sessions)),
                   key=lambda i: (sessions[i].start_time,
                                  sessions[i].session_id))
    assigned: List[List[int]] = [[] for _ in range(num_shards)]
    for rank, index in enumerate(order):
        assigned[rank % num_shards].append(index)
    return [[sessions[i] for i in sorted(indices)] for indices in assigned]


def shard_traces(trace: Trace, num_shards: int) -> List[Trace]:
    """The per-shard sub-traces of ``trace`` (shard index order).

    Each sub-trace keeps the parent's sample interval; its name records the
    shard coordinates so per-shard results are tellable apart (the merged
    result restores the parent name).
    """
    parts = partition_sessions(trace.sessions, num_shards)
    return [Trace(name=f"{trace.name}[shard {i}/{num_shards}]",
                  sessions=part, sample_interval=trace.sample_interval)
            for i, part in enumerate(parts)]


@dataclass(frozen=True)
class ShardPlan:
    """Everything the shards of one run agree on, derived deterministically."""

    trace_name: str
    num_shards: int
    horizon: float
    epoch_s: float
    #: Barrier times, strictly increasing, last one == horizon.
    barrier_times: Tuple[float, ...]
    #: Session ids per shard (shard index order, original trace order
    #: within a shard) — recorded for verification/telemetry, the traces
    #: themselves are re-derived by each worker.
    session_ids: Tuple[Tuple[str, ...], ...]

    @classmethod
    def from_trace(cls, trace: Trace, num_shards: int,
                   epoch_s: Optional[float] = None,
                   horizon: Optional[float] = None) -> "ShardPlan":
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        horizon = float(horizon) if horizon is not None else trace.duration
        if not math.isfinite(horizon):
            raise ValueError(f"horizon must be finite, got {horizon}")
        if epoch_s is None:
            epoch = default_epoch_s(horizon)
        else:
            epoch = float(epoch_s)
            if not math.isfinite(epoch) or epoch <= 0:
                raise ValueError(
                    f"epoch_s must be positive and finite, got {epoch}")
            if horizon / epoch > MAX_BARRIERS:
                raise ValueError(
                    f"epoch_s={epoch} over horizon {horizon} s would cut "
                    f"{math.ceil(horizon / epoch)} barriers; at most "
                    f"{MAX_BARRIERS} are allowed")
        n_full = max(0, math.ceil(horizon / epoch) - 1)
        barriers = tuple((k + 1) * epoch for k in range(n_full)) + (horizon,)
        parts = partition_sessions(trace.sessions, num_shards)
        return cls(trace_name=trace.name, num_shards=num_shards,
                   horizon=horizon, epoch_s=epoch, barrier_times=barriers,
                   session_ids=tuple(
                       tuple(s.session_id for s in part) for part in parts))

    @property
    def num_epochs(self) -> int:
        return len(self.barrier_times)

    def to_dict(self) -> Dict[str, object]:
        return {
            "trace_name": self.trace_name,
            "num_shards": self.num_shards,
            "horizon": self.horizon,
            "epoch_s": self.epoch_s,
            "barrier_times": list(self.barrier_times),
            "session_ids": [list(ids) for ids in self.session_ids],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ShardPlan":
        return cls(trace_name=data["trace_name"],
                   num_shards=data["num_shards"],
                   horizon=data["horizon"],
                   epoch_s=data["epoch_s"],
                   barrier_times=tuple(data["barrier_times"]),
                   session_ids=tuple(tuple(ids)
                                     for ids in data["session_ids"]))
