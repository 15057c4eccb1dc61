"""repro.shard — space-sharded simulation.

Partitions one run's sessions over K shards, each simulated by its own
engine (in-process or one process per shard) as an independent replay of
its sub-trace; nothing crosses shards, and the coordinator merges the K
results in shard order.  Serial and parallel execution of the same K are
byte-identical; ``num_shards=1`` bypasses all of it and is the frozen
serial reference.
"""

from repro.shard.merge import merge_collectors, merge_results
from repro.shard.plan import partition_sessions, shard_traces
from repro.shard.runner import (
    ShardExecutionError,
    ShardRuntime,
    ShardedRunResult,
    run_sharded,
)

__all__ = [
    "ShardRuntime",
    "ShardedRunResult",
    "ShardExecutionError",
    "merge_collectors",
    "merge_results",
    "partition_sessions",
    "run_sharded",
    "shard_traces",
]
