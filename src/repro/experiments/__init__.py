"""Parallel sweep orchestration with a persistent result store.

The ``repro.experiments`` subsystem is the layer between one
:class:`repro.api.Simulation` run and the paper-scale evaluation matrix
(policies x seeds x scenarios):

* :mod:`repro.experiments.scenarios` — named, parameterized scenario specs
  with a content hash, the scenario registry (``excerpt``, ``summer``,
  ``smoke`` out of the box), and config presets;
* :mod:`repro.experiments.sweep` — parameter-grid expansion;
* :mod:`repro.experiments.runner` — a process-pool runner whose serial
  fallback is bit-identical to any parallel run;
* :mod:`repro.experiments.store` — a content-addressed on-disk JSON store so
  reruns are cache hits across processes and sessions;
* ``python -m repro.experiments`` — the ``list`` / ``run`` / ``sweep`` CLI.

Quickstart::

    from repro.experiments import SweepGrid, ResultStore, run_specs

    grid = SweepGrid(scenario="excerpt",
                     policies=("reservation", "batch", "notebookos", "lcp"),
                     seeds=(7, 8, 9))
    outcomes = run_specs(grid.expand(), workers=4, store=ResultStore())
    for outcome in outcomes:
        print(outcome.spec.label, outcome.result.summary())

See EXPERIMENTS.md for the full tour.
"""

from repro.experiments.runner import (
    RunOutcome,
    SweepExecutionError,
    run_spec,
    run_specs,
)
from repro.experiments.scenarios import (
    CLUSTER_SCALE_HOURS,
    CLUSTER_SCALE_SESSIONS,
    EXCERPT_HOURS,
    EXCERPT_SESSIONS,
    SIMULATION_DAYS,
    SIMULATION_SESSIONS,
    Scenario,
    ScenarioRegistry,
    ScenarioSpec,
    build_trace,
    default_registry,
    long_run_cluster_config,
    long_run_platform_config,
    register_config_preset,
    resolve_configs,
    stable_hash,
)
from repro.experiments.store import ResultStore, default_store_root
from repro.experiments.sweep import SweepGrid

__all__ = [
    "CLUSTER_SCALE_HOURS",
    "CLUSTER_SCALE_SESSIONS",
    "EXCERPT_HOURS",
    "EXCERPT_SESSIONS",
    "SIMULATION_DAYS",
    "SIMULATION_SESSIONS",
    "RunOutcome",
    "SweepExecutionError",
    "Scenario",
    "ScenarioRegistry",
    "ScenarioSpec",
    "SweepGrid",
    "ResultStore",
    "build_trace",
    "default_registry",
    "default_store_root",
    "long_run_cluster_config",
    "long_run_platform_config",
    "register_config_preset",
    "resolve_configs",
    "run_spec",
    "run_specs",
    "stable_hash",
]
