"""NotebookOS reproduction.

``repro`` is a simulation-based reproduction of *NotebookOS: A Replicated
Notebook Platform for Interactive Training with On-Demand GPUs*
(ASPLOS 2026).  It provides:

* ``repro.simulation`` — a discrete-event engine and seeded distributions;
  control-plane hops (Jupyter Server, Gateway, schedulers, Raft commits)
  are modelled as latencies, not messages;
* ``repro.cluster`` — GPU servers, containers, a pre-warmed container pool,
  a distributed data store, and a VM provisioner;
* ``repro.statesync`` — AST-based kernel state analysis and replication,
  with the Raft commit of each sync modelled as a latency;
* ``repro.core`` — the NotebookOS control plane (global/local schedulers,
  distributed kernels, executor election, migration, auto-scaling);
* ``repro.policies`` — the Reservation, Batch, NotebookOS, LCP, and Oracle
  scheduling policies used in the paper's evaluation;
* ``repro.workload`` — synthetic IDLT/BDLT trace generators calibrated to the
  published AdobeTrace / PhillyTrace / AlibabaTrace statistics;
* ``repro.metrics`` / ``repro.analysis`` — the metrics, cost model, and
  analysis helpers used to regenerate every figure in the paper;
* ``repro.experiments`` — named scenarios, parameter sweeps, a parallel
  runner, and a persistent content-addressed result store (see
  EXPERIMENTS.md; CLI: ``python -m repro.experiments``);
* ``repro.api`` — the unified simulation façade: the :class:`Simulation`
  builder, typed :class:`RunSpec`, the pluggable policy registry
  (``@register_policy``), and the lifecycle hook bus;
* ``repro.profiling`` — hook-bus run profiling: per-phase wall time,
  event-class counters, and engine dispatch statistics (CLI:
  ``python -m repro.experiments profile``).

Quickstart::

    from repro.api import Simulation

    result = Simulation.from_scenario("smoke", policy="notebookos").run()
    print(result.summary())

The heavyweight platform symbols are imported lazily (PEP 562) so that the
substrate packages (``repro.simulation``, ``repro.cluster``, …) can be used
on their own without pulling in the full control plane.
"""

from repro.version import __version__

__all__ = [
    "ClusterConfig",
    "NotebookOSPlatform",
    "PlatformConfig",
    "api",
    "__version__",
]

_LAZY_EXPORTS = {
    "NotebookOSPlatform": ("repro.core.platform", "NotebookOSPlatform"),
    "ClusterConfig": ("repro.core.config", "ClusterConfig"),
    "PlatformConfig": ("repro.core.config", "PlatformConfig"),
}


def __getattr__(name: str):
    """Lazily resolve the top-level platform exports."""
    import importlib

    if name == "api":
        module = importlib.import_module("repro.api")
        globals()[name] = module
        return module
    try:
        module_name, attribute = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    module = importlib.import_module(module_name)
    value = getattr(module, attribute)
    globals()[name] = value
    return value
