"""Deterministic space partition for sharded runs.

Sessions are dealt round-robin over the shard indices in
``(start_time, session_id)`` order, so every shard receives an arrival
stream with the same temporal shape as the whole (a contiguous split would
give shard 0 the morning and shard K-1 the evening).  Within a shard,
sessions keep their *original trace order* — the order the platform
creates session processes in, which same-timestamp event ordering (and
therefore bit-identity) depends on.

The partition is a pure function of the trace and the shard count, so the
serial in-process driver and the per-process workers replay identical
sub-traces.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.workload.trace import SessionTrace, Trace

__all__ = ["partition_sessions", "shard_traces"]


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
