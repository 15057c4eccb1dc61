"""``repro.api`` — the unified simulation façade.

One import surface for everything a user of the platform needs:

* **Building and running simulations** — :class:`Simulation` (the fluent
  builder), :class:`RunSpec` (typed, JSON-round-trippable run descriptions),
  and the sweep machinery re-exported from :mod:`repro.experiments`
  (:class:`SweepGrid`, :func:`run_specs`, :class:`ResultStore`);
* **Pluggable policies** — :func:`register_policy`,
  :class:`PolicyRegistry`, and :func:`default_policy_registry`; anything
  registered is immediately runnable by name from every entry point;
* **Lifecycle hooks** — :class:`HookBus` and the topic constants; custom
  instrumentation and failure injection subscribe to the platform's
  published lifecycle instead of editing core files.

Quickstart::

    from repro import api

    result = api.Simulation.from_scenario("excerpt", policy="notebookos").run()
    print(result.summary())

Extending (see EXPERIMENTS.md, "Extending repro")::

    @api.register_policy("greedy", description="always the first ranked host")
    class GreedyPolicy(SchedulingPolicy):
        ...

    migrations = []
    (api.Simulation.from_scenario("smoke", policy="greedy")
        .on(api.MIGRATION, lambda t, k, src, dst: migrations.append((k, src)))
        .run())

The hook and registry primitives are imported eagerly (they depend on
nothing); the builder, spec, and sweep re-exports resolve lazily (PEP 562)
so that core modules can import :mod:`repro.api.hooks` without dragging the
whole control plane — or a circular import — behind them.
"""

from repro.api.hooks import (
    CHECKPOINT,
    MIGRATION,
    PLACEMENT_DECISION,
    PLATFORM_EVENT,
    QOS_ACTION,
    QOS_BREACH,
    QOS_RECOVER,
    RUN_END,
    RUN_START,
    SCALE_IN,
    SCALE_OUT,
    SESSION_END,
    SESSION_START,
    SPEC_RETRY,
    TASK_COMPLETE,
    TASK_SUBMIT,
    TOPICS,
    WORKER_LOST,
    WORKER_RECOVERED,
    HookBus,
)
from repro.api.registry import (
    DuplicatePolicyError,
    PolicyCapabilities,
    PolicyRegistry,
    RegisteredPolicy,
    UnknownPolicyError,
    default_policy_registry,
    register_policy,
)

__all__ = [
    # hooks
    "CHECKPOINT",
    "MIGRATION",
    "PLACEMENT_DECISION",
    "PLATFORM_EVENT",
    "QOS_ACTION",
    "QOS_BREACH",
    "QOS_RECOVER",
    "RUN_END",
    "RUN_START",
    "SCALE_IN",
    "SCALE_OUT",
    "SESSION_END",
    "SESSION_START",
    "SPEC_RETRY",
    "TASK_COMPLETE",
    "TASK_SUBMIT",
    "TOPICS",
    "WORKER_LOST",
    "WORKER_RECOVERED",
    "HookBus",
    # policies
    "DuplicatePolicyError",
    "PolicyCapabilities",
    "PolicyRegistry",
    "RegisteredPolicy",
    "UnknownPolicyError",
    "default_policy_registry",
    "register_policy",
    # qos
    "QosConfig",
    "QosTarget",
    # runs
    "RunSpec",
    "Simulation",
    "default_cluster_config",
    "peak_gpu_demand",
    # sweeps
    "RunOutcome",
    "SweepExecutionError",
    "ResultStore",
    "Scenario",
    "ScenarioRegistry",
    "SweepGrid",
    "build_trace",
    "default_registry",
    "run_spec",
    "run_specs",
]

_LAZY_EXPORTS = {
    "QosConfig": ("repro.qos.targets", "QosConfig"),
    "QosTarget": ("repro.qos.targets", "QosTarget"),
    "RunSpec": ("repro.api.spec", "RunSpec"),
    "Simulation": ("repro.api.simulation", "Simulation"),
    "default_cluster_config": ("repro.api.simulation", "default_cluster_config"),
    "peak_gpu_demand": ("repro.api.simulation", "peak_gpu_demand"),
    "RunOutcome": ("repro.experiments.runner", "RunOutcome"),
    "SweepExecutionError": ("repro.experiments.runner", "SweepExecutionError"),
    "run_spec": ("repro.experiments.runner", "run_spec"),
    "run_specs": ("repro.experiments.runner", "run_specs"),
    "Scenario": ("repro.experiments.scenarios", "Scenario"),
    "ScenarioRegistry": ("repro.experiments.scenarios", "ScenarioRegistry"),
    "build_trace": ("repro.experiments.scenarios", "build_trace"),
    "default_registry": ("repro.experiments.scenarios", "default_registry"),
    "ResultStore": ("repro.experiments.store", "ResultStore"),
    "SweepGrid": ("repro.experiments.sweep", "SweepGrid"),
}


def __getattr__(name: str):
    """Lazily resolve the builder/spec/sweep exports (PEP 562)."""
    try:
        module_name, attribute = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.api' has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), attribute)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
