"""repro.shard — space-sharded simulation with deterministic barriers.

Partitions one run's sessions over K shards, each simulated by its own
engine (in-process or one process per shard), exchanging fleet-wide
capacity pressure at fixed epoch barriers; nothing else crosses shards.
Serial and parallel execution of the same K-shard plan are byte-identical;
``num_shards=1`` bypasses all of it and is the frozen serial reference.
"""

from repro.shard.barrier import GlobalFrame, ShardContext, ShardFrame
from repro.shard.merge import merge_collectors, merge_results
from repro.shard.plan import (
    ShardPlan,
    default_epoch_s,
    partition_sessions,
    shard_traces,
)
from repro.shard.runner import (
    ShardExecutionError,
    ShardRuntime,
    ShardedRunResult,
    run_sharded,
)

__all__ = [
    "GlobalFrame",
    "ShardContext",
    "ShardFrame",
    "ShardPlan",
    "ShardRuntime",
    "ShardedRunResult",
    "ShardExecutionError",
    "default_epoch_s",
    "merge_collectors",
    "merge_results",
    "partition_sessions",
    "run_sharded",
    "shard_traces",
]
