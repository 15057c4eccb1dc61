"""Scenario specs, config presets, and the named scenario registry.

A :class:`Scenario` is a named, parameterized experiment template: a trace
generator (referenced by its :mod:`repro.workload` registry name), default
policy and seed, and a config preset describing how platform/cluster
configurations are derived.  :meth:`Scenario.instantiate` binds the free
parameters (policy, seed, generator overrides) and yields a
:class:`ScenarioSpec` — plain, JSON-serializable data whose content hash is
the cache key used by the result store.

The paper's experiments are registered out of the box:

* ``excerpt`` — the 17.5-hour AdobeTrace excerpt replayed by the prototype
  evaluation (Figures 7-11 and 15-19);
* ``summer``  — the 90-day summer simulation study (Figures 12-14 and 20),
  scaled down in session count (see EXPERIMENTS.md);
* ``smoke``   — a seconds-scale scenario for CI and quick sanity checks.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.cluster.prewarmer import PrewarmPolicy
from repro.core.config import ClusterConfig, PlatformConfig
from repro.workload.generator import make_generator
from repro.workload.trace import Trace


def stable_hash(payload: object, length: int = 16) -> str:
    """A deterministic content hash of a JSON-serializable payload.

    Keys are sorted so logically identical dicts hash identically regardless
    of insertion order; the hash is stable across processes and sessions
    (unlike ``hash()``, which is salted per process).
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:length]


@dataclass
class ScenarioSpec:
    """One fully bound experiment: generator + policy + seed + configs.

    The spec is pure data — it contains everything needed to deterministically
    regenerate the trace and rerun the experiment, and nothing else.  Its
    :meth:`spec_hash` is the content-addressed key under which results are
    cached by :class:`repro.experiments.store.ResultStore`.
    """

    scenario: str
    generator: str
    policy: str
    seed: int
    generator_kwargs: Dict[str, object] = field(default_factory=dict)
    config_preset: str = "default"
    #: Constructor keyword arguments for the policy (registry knobs, e.g.
    #: ``gpu_wait_poll_s`` for NotebookOS) — tuned policy variants stay
    #: plain data: sweepable, storable, and part of the content hash.
    policy_kwargs: Dict[str, object] = field(default_factory=dict)
    #: The declarative QoS block (``QosConfig.to_dict()`` form; see
    #: :mod:`repro.qos`) — empty means no controller.  Like
    #: ``policy_kwargs`` it stays plain data: sweepable, storable, and
    #: part of the content hash when (and only when) set.
    qos: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        data = {
            "scenario": self.scenario,
            "generator": self.generator,
            "policy": self.policy,
            "seed": self.seed,
            "generator_kwargs": dict(self.generator_kwargs),
            "config_preset": self.config_preset,
        }
        if self.policy_kwargs:
            # Only present when set: specs without tuned knobs keep the
            # content hash (= result-store key) they had before the field
            # existed.
            data["policy_kwargs"] = dict(self.policy_kwargs)
        if self.qos:
            # Same contract: qos-less specs keep their pre-QoS hash.
            data["qos"] = dict(self.qos)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScenarioSpec":
        return cls(scenario=data["scenario"], generator=data["generator"],
                   policy=data["policy"], seed=data["seed"],
                   generator_kwargs=dict(data["generator_kwargs"]),
                   config_preset=data.get("config_preset", "default"),
                   policy_kwargs=dict(data.get("policy_kwargs", {})),
                   qos=dict(data.get("qos", {})))

    def spec_hash(self) -> str:
        return stable_hash(self.to_dict())

    @property
    def label(self) -> str:
        base = f"{self.scenario}/{self.policy}/seed{self.seed}"
        if self.policy_kwargs:
            # Tuned variants must be tellable apart in sweep progress
            # output — the hash differs, but humans read labels.
            knobs = ",".join(f"{key}={value}" for key, value
                             in sorted(self.policy_kwargs.items()))
            base = f"{base}[{knobs}]"
        if self.qos:
            targets = self.qos.get("targets", [])
            names = ",".join(t.get("name", "?") for t in targets)
            base = f"{base}{{qos:{names}}}"
        return base


def build_trace(spec: ScenarioSpec) -> Trace:
    """Deterministically generate the workload trace described by ``spec``."""
    generator = make_generator(spec.generator, seed=spec.seed,
                               **spec.generator_kwargs)
    return generator.generate()


# ----------------------------------------------------------------------
# Config presets.
#
# Specs reference platform/cluster configuration by preset *name* so they
# stay hashable data; the preset resolves to concrete config objects at run
# time (deterministically — presets may inspect the trace, e.g. to size a
# statically provisioned cluster to peak demand).
# ----------------------------------------------------------------------
ConfigResolver = Callable[[ScenarioSpec, Trace],
                          Tuple[Optional[PlatformConfig], Optional[ClusterConfig]]]

_CONFIG_PRESETS: Dict[str, ConfigResolver] = {}


def register_config_preset(name: str, resolver: ConfigResolver,
                           replace: bool = False) -> None:
    if not replace and name in _CONFIG_PRESETS:
        raise ValueError(f"config preset {name!r} is already registered")
    _CONFIG_PRESETS[name] = resolver


def resolve_configs(spec: ScenarioSpec, trace: Trace
                    ) -> Tuple[Optional[PlatformConfig], Optional[ClusterConfig]]:
    """Resolve a spec's config preset to (platform_config, cluster_config)."""
    try:
        resolver = _CONFIG_PRESETS[spec.config_preset]
    except KeyError:
        known = ", ".join(sorted(_CONFIG_PRESETS))
        raise KeyError(f"unknown config preset {spec.config_preset!r} "
                       f"(known: {known})") from None
    return resolver(spec, trace)


def _default_configs(spec: ScenarioSpec, trace: Trace):
    # None lets the Simulation builder pick its per-policy defaults.
    return None, None


def long_run_platform_config() -> PlatformConfig:
    """Platform configuration tuned for multi-week simulated horizons."""
    return PlatformConfig(
        metrics_sample_interval_s=1800.0,
        autoscaler_interval_s=600.0,
        prewarm_policy=PrewarmPolicy(initial_per_host=1, min_per_host=1,
                                     replenish_interval=1800.0))


def long_run_cluster_config(policy: str, trace: Trace) -> ClusterConfig:
    """Per-policy cluster sizing for the 90-day runs."""
    peak = max((sum(s.gpus_requested for s in trace
                    if s.start_time <= t < s.end_time)
                for t in [trace.duration * f for f in (0.25, 0.5, 0.75, 0.999)]),
               default=8)
    if policy in ("notebookos", "lcp"):
        initial = max(2, peak // 32)
    else:
        initial = max(2, peak // 8 + 2)
    return ClusterConfig(initial_hosts=initial, max_hosts=max(80, initial * 4))


def _long_run_configs(spec: ScenarioSpec, trace: Trace):
    return long_run_platform_config(), long_run_cluster_config(spec.policy, trace)


def cluster_scale_platform_config() -> PlatformConfig:
    """Platform configuration for the hundreds-of-hosts stress scenario.

    Control-loop intervals are relaxed so wall-clock time goes into the
    workload itself rather than into sampling an almost-unchanged cluster
    every simulated minute.
    """
    return PlatformConfig(
        metrics_sample_interval_s=300.0,
        autoscaler_interval_s=300.0,
        prewarm_policy=PrewarmPolicy(initial_per_host=1, min_per_host=1,
                                     replenish_interval=3600.0))


def cluster_scale_cluster_config(policy: str, trace: Trace) -> ClusterConfig:
    """Size a cluster of hundreds of hosts to the trace's peak GPU demand."""
    events = []
    for session in trace:
        events.append((session.start_time, session.gpus_requested))
        events.append((session.end_time, -session.gpus_requested))
    peak = current = 0
    for _, delta in sorted(events):
        current += delta
        peak = max(peak, current)
    gpus_per_host = 8
    if policy in ("notebookos", "lcp"):
        initial = max(100, peak // (gpus_per_host * 4))
    else:
        initial = max(100, peak // gpus_per_host + 8)
    return ClusterConfig(initial_hosts=initial,
                         max_hosts=max(initial * 2, peak // gpus_per_host + 32))


def _cluster_scale_configs(spec: ScenarioSpec, trace: Trace):
    return (cluster_scale_platform_config(),
            cluster_scale_cluster_config(spec.policy, trace))


def mega_scale_platform_config() -> PlatformConfig:
    """Platform configuration for the ~1000-host stress scenario.

    Control loops are relaxed further than ``cluster_scale``: at this size
    the workload itself dominates, and a 10-minute sampling/autoscaling
    cadence keeps the per-interval bookkeeping negligible without changing
    what the scenario exercises (placement-decision throughput).
    """
    return PlatformConfig(
        metrics_sample_interval_s=600.0,
        autoscaler_interval_s=600.0,
        prewarm_policy=PrewarmPolicy(initial_per_host=1, min_per_host=1,
                                     replenish_interval=7200.0))


def mega_scale_cluster_config(policy: str, trace: Trace) -> ClusterConfig:
    """Size a ~1000-host cluster to the trace's peak GPU demand.

    Oversubscribing policies start at peak/1.5 (``peak // 12`` 8-GPU hosts —
    about 930 hosts for the default 5000-session trace) and may scale out to
    fully provisioned peak plus headroom; Reservation/Batch cannot
    oversubscribe and get the fully provisioned sizing up front.
    """
    events = []
    for session in trace:
        events.append((session.start_time, session.gpus_requested))
        events.append((session.end_time, -session.gpus_requested))
    peak = current = 0
    for _, delta in sorted(events):
        current += delta
        peak = max(peak, current)
    gpus_per_host = 8
    if policy in ("notebookos", "lcp"):
        initial = max(400, peak // 12)
    else:
        initial = max(400, peak // gpus_per_host + 8)
    return ClusterConfig(initial_hosts=initial,
                         max_hosts=max(initial + 64, peak // gpus_per_host + 64))


def _mega_scale_configs(spec: ScenarioSpec, trace: Trace):
    return (mega_scale_platform_config(),
            mega_scale_cluster_config(spec.policy, trace))


def giga_scale_platform_config() -> PlatformConfig:
    """Platform configuration for the ~10000-host scenario.

    Same relaxed control loops as ``mega_scale`` — at 50k sessions the
    workload dominates entirely; the scenario exists to exercise the
    sharded runner (:mod:`repro.shard`), and an order-of-magnitude larger
    fleet with tighter loops would just multiply bookkeeping noise.
    """
    return PlatformConfig(
        metrics_sample_interval_s=600.0,
        autoscaler_interval_s=600.0,
        prewarm_policy=PrewarmPolicy(initial_per_host=1, min_per_host=1,
                                     replenish_interval=7200.0))


def giga_scale_cluster_config(policy: str, trace: Trace) -> ClusterConfig:
    """Size a ~10000-host cluster to the trace's peak GPU demand.

    Same shape as ``mega_scale``: oversubscribing policies start at
    peak/1.5 (the full 50k-session trace peaks high enough for several
    thousand initial 8-GPU hosts) with scale-out headroom toward fully
    provisioned peak.  The floor deliberately stays at 400 rather than
    scaling with the scenario: under the sharded runner each shard
    resolves this preset against its *sub-trace*, and a scenario-sized
    floor would give every shard the full fleet instead of ~1/K of it.
    """
    events = []
    for session in trace:
        events.append((session.start_time, session.gpus_requested))
        events.append((session.end_time, -session.gpus_requested))
    peak = current = 0
    for _, delta in sorted(events):
        current += delta
        peak = max(peak, current)
    gpus_per_host = 8
    if policy in ("notebookos", "lcp"):
        initial = max(400, peak // 12)
    else:
        initial = max(400, peak // gpus_per_host + 8)
    return ClusterConfig(initial_hosts=initial,
                         max_hosts=max(initial + 64, peak // gpus_per_host + 64))


def _giga_scale_configs(spec: ScenarioSpec, trace: Trace):
    return (giga_scale_platform_config(),
            giga_scale_cluster_config(spec.policy, trace))


def failure_storm_platform_config() -> PlatformConfig:
    """Platform configuration for the host-failure chaos scenario.

    One host failure every 10 simulated minutes (see
    :mod:`repro.core.chaos`), with a tight autoscaler cadence so backfill
    competes with the storm — the condition that makes QoS targets breach
    and recover within a few telemetry windows.
    """
    return PlatformConfig(
        host_failure_interval_s=600.0,
        min_surviving_hosts=2,
        autoscaler_interval_s=120.0,
        metrics_sample_interval_s=120.0)


def failure_storm_cluster_config(policy: str, trace: Trace) -> ClusterConfig:
    """A deliberately tight cluster: the storm must actually hurt.

    Sized just above half the trace's peak GPU demand so every lost host
    is felt, with scale-out headroom for recovery.
    """
    events = []
    for session in trace:
        events.append((session.start_time, session.gpus_requested))
        events.append((session.end_time, -session.gpus_requested))
    peak = current = 0
    for _, delta in sorted(events):
        current += delta
        peak = max(peak, current)
    gpus_per_host = 8
    initial = max(4, peak // (gpus_per_host * 2))
    return ClusterConfig(initial_hosts=initial,
                         max_hosts=max(initial * 3,
                                       peak // gpus_per_host + 8))


def _failure_storm_configs(spec: ScenarioSpec, trace: Trace):
    return (failure_storm_platform_config(),
            failure_storm_cluster_config(spec.policy, trace))


register_config_preset("default", _default_configs)
register_config_preset("long_run", _long_run_configs)
register_config_preset("cluster_scale", _cluster_scale_configs)
register_config_preset("mega_scale", _mega_scale_configs)
register_config_preset("giga_scale", _giga_scale_configs)
register_config_preset("failure_storm", _failure_storm_configs)


# ----------------------------------------------------------------------
# Scenarios and the registry.
# ----------------------------------------------------------------------
@dataclass
class Scenario:
    """A named, parameterized experiment template."""

    name: str
    description: str
    generator: str = "adobe"
    default_policy: str = "notebookos"
    default_seed: int = 0
    generator_kwargs: Dict[str, object] = field(default_factory=dict)
    config_preset: str = "default"

    def instantiate(self, policy: Optional[str] = None,
                    seed: Optional[int] = None,
                    policy_kwargs: Optional[Dict[str, object]] = None,
                    qos: Optional[Dict[str, object]] = None,
                    **generator_overrides) -> ScenarioSpec:
        """Bind the free parameters and return a runnable spec.

        ``generator_overrides`` update the scenario's generator kwargs
        (e.g. ``num_sessions=30``); ``None`` values are ignored so CLI
        plumbing can pass optional flags straight through.
        ``policy_kwargs`` are constructor knobs for the policy (tuned
        variants; part of the spec hash).  ``qos`` is a declarative QoS
        block in ``QosConfig.to_dict()`` form (see :mod:`repro.qos`;
        also part of the spec hash when set).
        """
        kwargs = dict(self.generator_kwargs)
        kwargs.update({key: value for key, value in generator_overrides.items()
                       if value is not None})
        return ScenarioSpec(
            scenario=self.name, generator=self.generator,
            policy=policy or self.default_policy,
            seed=self.default_seed if seed is None else seed,
            generator_kwargs=kwargs, config_preset=self.config_preset,
            policy_kwargs=dict(policy_kwargs or {}),
            qos=dict(qos or {}))


class ScenarioRegistry:
    """Name -> :class:`Scenario` lookup."""

    def __init__(self) -> None:
        self._scenarios: Dict[str, Scenario] = {}

    def register(self, scenario: Scenario, replace: bool = False) -> Scenario:
        if not replace and scenario.name in self._scenarios:
            raise ValueError(f"scenario {scenario.name!r} is already registered")
        self._scenarios[scenario.name] = scenario
        return scenario

    def get(self, name: str) -> Scenario:
        try:
            return self._scenarios[name]
        except KeyError:
            known = ", ".join(sorted(self._scenarios)) or "<none>"
            raise KeyError(f"unknown scenario {name!r} (known: {known})") from None

    def names(self) -> List[str]:
        return sorted(self._scenarios)

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self._scenarios[name] for name in self.names())

    def __contains__(self, name: str) -> bool:
        return name in self._scenarios


# Scale knobs shared with the benchmark harnesses (see EXPERIMENTS.md).
EXCERPT_SESSIONS = 90          # Fig. 7: up to 90 concurrent sessions
EXCERPT_HOURS = 17.5           # the 17.5-hour AdobeTrace excerpt
SIMULATION_SESSIONS = 60       # scaled-down stand-in for the 433-session trace
SIMULATION_DAYS = 90
CLUSTER_SCALE_SESSIONS = 2000  # thousands of sessions on hundreds of hosts
CLUSTER_SCALE_HOURS = 6.0
FAILURE_STORM_SESSIONS = 40    # chaos scenario: host failures under load
FAILURE_STORM_HOURS = 4.0
MEGA_SCALE_SESSIONS = 5000     # placement stress: ~1000 hosts (bench_placement.py)
MEGA_SCALE_HOURS = 8.0
GIGA_SCALE_SESSIONS = 50000    # sharded-runner stress: ~10000 hosts (bench_giga.py)
GIGA_SCALE_HOURS = 8.0

_DEFAULT_REGISTRY: Optional[ScenarioRegistry] = None


def default_registry() -> ScenarioRegistry:
    """The process-wide registry with the paper's scenarios pre-registered."""
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        registry = ScenarioRegistry()
        registry.register(Scenario(
            name="excerpt",
            description="17.5-hour AdobeTrace excerpt, 90 sessions "
                        "(prototype evaluation, Figs. 7-11 and 15-19)",
            generator="adobe", default_seed=7,
            generator_kwargs={"num_sessions": EXCERPT_SESSIONS,
                              "duration_hours": EXCERPT_HOURS}))
        registry.register(Scenario(
            name="summer",
            description="90-day summer trace, scaled to 60 sessions "
                        "(simulation study, Figs. 12-14 and 20)",
            generator="adobe", default_seed=21,
            generator_kwargs={"num_sessions": SIMULATION_SESSIONS,
                              "duration_hours": SIMULATION_DAYS * 24.0,
                              "work_bout_hours": 2.0,
                              "bouts_per_day": 1.5},
            config_preset="long_run"))
        registry.register(Scenario(
            name="smoke",
            description="12 sessions over 2 hours — seconds-scale sanity "
                        "check used by CI",
            generator="adobe", default_seed=7,
            generator_kwargs={"num_sessions": 12, "duration_hours": 2.0}))
        registry.register(Scenario(
            name="cluster_scale",
            description=f"{CLUSTER_SCALE_SESSIONS} sessions over "
                        f"{CLUSTER_SCALE_HOURS:g} hours on hundreds of hosts "
                        "— engine stress test (see bench_engine.py)",
            generator="adobe", default_seed=3,
            generator_kwargs={"num_sessions": CLUSTER_SCALE_SESSIONS,
                              "duration_hours": CLUSTER_SCALE_HOURS,
                              "work_bout_hours": 1.5,
                              "bouts_per_day": 3.0},
            config_preset="cluster_scale"))
        registry.register(Scenario(
            name="mega_scale",
            description=f"{MEGA_SCALE_SESSIONS} sessions over "
                        f"{MEGA_SCALE_HOURS:g} hours on ~1000 hosts — "
                        "placement stress test (see bench_placement.py)",
            generator="adobe", default_seed=5,
            generator_kwargs={"num_sessions": MEGA_SCALE_SESSIONS,
                              "duration_hours": MEGA_SCALE_HOURS,
                              "work_bout_hours": 1.5,
                              "bouts_per_day": 3.0},
            config_preset="mega_scale"))
        registry.register(Scenario(
            name="giga_scale",
            description=f"{GIGA_SCALE_SESSIONS} sessions over "
                        f"{GIGA_SCALE_HOURS:g} hours on ~10000 hosts — "
                        "space-sharded runner stress test (see "
                        "bench_giga.py; run in sketch mode)",
            generator="adobe", default_seed=11,
            generator_kwargs={"num_sessions": GIGA_SCALE_SESSIONS,
                              "duration_hours": GIGA_SCALE_HOURS,
                              "work_bout_hours": 1.5,
                              "bouts_per_day": 3.0},
            config_preset="giga_scale"))
        registry.register(Scenario(
            name="failure_storm",
            description=f"{FAILURE_STORM_SESSIONS} sessions over "
                        f"{FAILURE_STORM_HOURS:g} hours on a tight cluster "
                        "with one host failure every 10 minutes — the "
                        "chaos stressor for QoS triggers (repro.core.chaos)",
            generator="adobe", default_seed=13,
            generator_kwargs={"num_sessions": FAILURE_STORM_SESSIONS,
                              "duration_hours": FAILURE_STORM_HOURS,
                              "work_bout_hours": 1.0,
                              "bouts_per_day": 6.0},
            config_preset="failure_storm"))
        _DEFAULT_REGISTRY = registry
    return _DEFAULT_REGISTRY
