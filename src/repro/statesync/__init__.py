"""Kernel state analysis, replication, and checkpointing.

After the executor replica runs a cell, NotebookOS must bring the standby
replicas up to date (§3.2.4).  This package implements that pipeline:

* :mod:`repro.statesync.ast_analysis` — Python ``ast``-based detection of the
  namespace variables a cell defines or mutates;
* :mod:`repro.statesync.objects` — object size classification: small objects
  travel through the Raft log, large objects (model parameters, datasets) are
  checkpointed to the distributed data store and referenced by pointer;
* :mod:`repro.statesync.checkpoint` — the large-object checkpoint manager;
* :mod:`repro.statesync.synchronizer` — the state synchronizer that ties
  the pieces together and records the latencies reported in Figure 11 (the
  Raft commit is a sampled latency, not a simulated Raft group).
"""

from repro.statesync.ast_analysis import (
    CodeAnalysis,
    analyze_code,
    ast_cache_stats,
    clear_ast_cache,
)
from repro.statesync.objects import (
    LARGE_OBJECT_THRESHOLD_BYTES,
    NamespaceObject,
    ObjectClass,
    classify_object,
)
from repro.statesync.checkpoint import CheckpointManager
from repro.statesync.synchronizer import StateSynchronizer, SyncReport

__all__ = [
    "CheckpointManager",
    "CodeAnalysis",
    "LARGE_OBJECT_THRESHOLD_BYTES",
    "NamespaceObject",
    "ObjectClass",
    "StateSynchronizer",
    "SyncReport",
    "analyze_code",
    "ast_cache_stats",
    "classify_object",
    "clear_ast_cache",
]
