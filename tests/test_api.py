"""Tests for the ``repro.api`` façade.

Covers the four contracts the API redesign must hold:

1. **Policy registry** — error paths (unknown names, duplicate names and
   aliases), alias/case-insensitive resolution, capability introspection,
   and ``@register_policy`` extensibility;
2. **RunSpec** — dict *and* JSON round-trips preserve the content hash;
3. **Hook bus** — subscriber ordering is deterministic (hypothesis over
   random publish sequences), the metrics collector is seated first, and an
   instrumented run is *bit-identical* to a bare one (zero timeline impact);
4. **Regression** — a ``Simulation`` run of the smoke scenario reproduces
   the pre-refactor engine's golden collector digest exactly, and the
   deprecated ``run_experiment`` shim equals the façade output.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.api.hooks import HookBus
from repro.api.registry import (
    DuplicatePolicyError,
    PolicyRegistry,
    UnknownPolicyError,
    default_policy_registry,
)
from repro.api.simulation import Simulation
from repro.api.spec import RunSpec
from repro.experiments.scenarios import ScenarioSpec, default_registry
from repro.policies import SchedulingPolicy, make_policy


# ----------------------------------------------------------------------
# Policy registry.
# ----------------------------------------------------------------------
class _StubPolicy(SchedulingPolicy):
    name = "stub"
    uses_autoscaler = True
    replication_factor = 2

    def __init__(self, knob_s: float = 1.0) -> None:
        self.knob_s = knob_s


def test_registry_unknown_policy_raises():
    registry = default_policy_registry()
    with pytest.raises(UnknownPolicyError, match="unknown policy 'nope'"):
        registry.get("nope")
    with pytest.raises(UnknownPolicyError):
        registry.create("also-nope")
    # The deprecated shim preserves its historical ValueError contract.
    with pytest.raises(ValueError, match="unknown policy"):
        make_policy("nope")


def test_registry_replace_releases_only_its_own_keys():
    """Replacing must not orphan a name another registration now owns."""
    registry = PolicyRegistry()
    registry.register("a", _StubPolicy, aliases=("x",))
    registry.register("x", _StubPolicy, replace=True)   # 'x' re-homed
    registry.register("a", _StubPolicy, replace=True)   # must not evict 'x'
    assert registry.names() == ["a", "x"]
    assert registry.get("x").name == "x"
    assert registry.get("a").name == "a"


def test_registry_duplicate_name_and_alias_rejected():
    registry = PolicyRegistry()
    registry.register("stub", _StubPolicy, aliases=("double",))
    with pytest.raises(DuplicatePolicyError):
        registry.register("stub", _StubPolicy)
    with pytest.raises(DuplicatePolicyError):
        registry.register("fresh", _StubPolicy, aliases=("double",))
    # replace=True re-files the entry and releases its old names.
    registry.register("stub", _StubPolicy, aliases=("renamed",), replace=True)
    assert "renamed" in registry and "double" not in registry
    assert registry.names() == ["stub"]


def test_registry_alias_and_case_insensitive_resolution():
    registry = default_policy_registry()
    assert type(registry.create("LCP")) is type(registry.create("notebookos-lcp"))
    entry = registry.get("NoteBookOS")
    assert entry.name == "notebookos"
    assert entry.capabilities.uses_autoscaler
    assert entry.capabilities.replication_factor == 3
    assert "gpu_wait_poll_s" in entry.config_fields


def test_registry_resolve_instance_passthrough():
    registry = PolicyRegistry()
    policy = _StubPolicy()
    assert registry.resolve(policy) is policy
    with pytest.raises(TypeError):
        registry.resolve(policy, knob_s=2.0)


def test_register_policy_decorator_makes_policy_runnable_by_name():
    registry = PolicyRegistry()

    @api.register_policy("stub", registry=registry, description="test stub")
    class Decorated(_StubPolicy):
        pass

    entry = registry.get("stub")
    assert entry.factory is Decorated
    assert entry.description == "test stub"
    assert entry.capabilities.replication_factor == 2
    policy = registry.create("stub", knob_s=3.5)
    assert isinstance(policy, Decorated) and policy.knob_s == 3.5


def test_builtin_policies_cover_the_paper_baselines():
    names = default_policy_registry().names()
    assert names == ["batch", "lcp", "notebookos", "reservation"]


# ----------------------------------------------------------------------
# RunSpec round-trips.
# ----------------------------------------------------------------------
def test_runspec_json_round_trip_preserves_hash():
    spec = RunSpec.from_scenario("excerpt", policy="batch", seed=11,
                                 num_sessions=30)
    clone = RunSpec.from_json(spec.to_json())
    assert clone == spec
    assert clone.spec_hash() == spec.spec_hash()
    assert clone.generator_kwargs["num_sessions"] == 30
    # The dict form matches ScenarioSpec's exactly (store compatibility).
    assert clone.to_dict() == ScenarioSpec.from_dict(spec.to_dict()).to_dict()


def test_runspec_adopts_scenario_specs_and_dicts():
    base = default_registry().get("smoke").instantiate(policy="reservation")
    adopted = RunSpec.from_spec(base)
    assert isinstance(adopted, RunSpec)
    assert adopted.spec_hash() == base.spec_hash()
    assert RunSpec.from_spec(base.to_dict()).spec_hash() == base.spec_hash()
    assert RunSpec.from_spec(adopted) is adopted


def test_runspec_rejects_non_object_json():
    with pytest.raises(ValueError, match="decode to an object"):
        RunSpec.from_json(json.dumps([1, 2, 3]))


def test_runspec_unknown_scenario_raises():
    with pytest.raises(KeyError, match="unknown scenario"):
        RunSpec.from_scenario("not-a-scenario")


# ----------------------------------------------------------------------
# Hook bus: ordering determinism.
# ----------------------------------------------------------------------
def test_hook_bus_rejects_unknown_topic():
    bus = HookBus()
    with pytest.raises(ValueError, match="unknown hook topic"):
        bus.subscribe("not-a-topic", lambda: None)


def test_hook_bus_first_seats_ahead_of_existing_subscribers():
    bus = HookBus()
    seen = []
    bus.subscribe(api.PLATFORM_EVENT, lambda *a: seen.append("user"))
    bus.subscribe(api.PLATFORM_EVENT, lambda *a: seen.append("metrics"),
                  first=True)
    bus.publish(api.PLATFORM_EVENT, 0.0, None, "")
    assert seen == ["metrics", "user"]


def test_hook_bus_unsubscribe():
    bus = HookBus()
    seen = []
    callback = bus.subscribe(api.MIGRATION, lambda *a: seen.append(a))
    assert bus.unsubscribe(api.MIGRATION, callback)
    assert not bus.unsubscribe(api.MIGRATION, callback)
    bus.publish(api.MIGRATION, 1.0, "k", "a", "b")
    assert seen == [] and bus.subscriber_count(api.MIGRATION) == 0


@settings(max_examples=60, deadline=None)
@given(publishes=st.lists(
    st.tuples(st.sampled_from(api.TOPICS), st.integers(0, 1000)),
    max_size=60),
    num_subscribers=st.integers(1, 4))
def test_hook_bus_delivery_order_is_deterministic(publishes, num_subscribers):
    """Every subscriber sees every publish of its topic, in publish order,
    after all earlier-subscribed callbacks — replayed twice, identically."""
    def replay():
        bus = HookBus()
        logs = [[] for _ in range(num_subscribers)]
        for topic in api.TOPICS:
            for index, log in enumerate(logs):
                bus.subscribe(topic, lambda *payload, log=log: log.append(payload))
        order = []
        bus.subscribe(api.RUN_END, lambda *payload: order.append("late"),
                      first=True)
        for topic, value in publishes:
            bus.publish(topic, topic, value)
        return logs

    first_run, second_run = replay(), replay()
    assert first_run == second_run
    for log in first_run:
        assert log == [(topic, value) for topic, value in publishes]


# ----------------------------------------------------------------------
# Platform integration: hooks observe the run, metrics stay first.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def hooked_smoke():
    """One smoke run with every lifecycle topic recorded."""
    observed = {topic: [] for topic in api.TOPICS}
    bus = HookBus()
    for topic in api.TOPICS:
        bus.subscribe(topic, lambda *payload, topic=topic:
                      observed[topic].append(payload))
    simulation = Simulation.from_scenario("smoke").with_hooks(bus)
    result = simulation.run()
    return simulation, result, observed


def test_hooks_observe_sessions_and_tasks(hooked_smoke):
    _, result, observed = hooked_smoke
    collector = result.collector
    assert len(observed[api.SESSION_START]) == 12
    assert len(observed[api.SESSION_END]) == 12
    assert len(observed[api.TASK_SUBMIT]) == len(collector.tasks)
    assert len(observed[api.TASK_COMPLETE]) == len(collector.tasks)
    assert len(observed[api.PLATFORM_EVENT]) == len(collector.events)
    # NotebookOS places one kernel per session.
    assert len(observed[api.PLACEMENT_DECISION]) >= 12
    assert len(observed[api.RUN_START]) == 1
    assert len(observed[api.RUN_END]) == 1


def test_run_end_surfaces_ast_cache_counters(hooked_smoke):
    _, _, observed = hooked_smoke
    (_platform, _result, stats), = observed[api.RUN_END]
    assert stats["ast_cache_misses"] >= 0
    assert stats["ast_cache_hits"] + stats["ast_cache_misses"] > 0
    # Notebook traces repeat cell templates, so a full run must hit.
    assert stats["ast_cache_hits"] > 0


def test_metrics_collector_is_seated_first():
    """User hooks subscribed before the platform exists still run after
    the collector: the event is already recorded when the hook fires."""
    simulation = Simulation.from_scenario("smoke")
    platform = simulation.build()
    subscribers = platform.hooks._subscribers[api.PLATFORM_EVENT]
    assert subscribers[0] == platform.metrics.record_event

    observed = []
    bus = HookBus()
    bus.subscribe(api.PLATFORM_EVENT, lambda t, kind, detail:
                  observed.append(len(platform2.metrics.events)))
    simulation2 = Simulation.from_scenario("smoke").with_hooks(bus)
    platform2 = simulation2.build()
    trace = simulation2._resolve_trace()
    platform2.run_workload(trace)
    # Every hook invocation saw at least one event already recorded.
    assert observed and all(count >= 1 for count in observed)


def test_instrumented_run_is_bit_identical_to_bare_run(hooked_smoke):
    """Hook callbacks add zero events to the simulation timeline."""
    _, hooked_result, _ = hooked_smoke
    bare = Simulation.from_scenario("smoke").run()
    hooked = dict(hooked_result.to_dict())
    bare_dict = dict(bare.to_dict())
    hooked.pop("wall_clock_runtime")
    bare_dict.pop("wall_clock_runtime")
    assert json.dumps(hooked, sort_keys=True) == \
        json.dumps(bare_dict, sort_keys=True)


# ----------------------------------------------------------------------
# Regression: the façade reproduces the pre-refactor entry points.
# ----------------------------------------------------------------------
def _canonical_collector(result) -> str:
    return json.dumps(result.collector.to_dict(), sort_keys=True,
                      separators=(",", ":"))


def test_simulation_matches_pre_refactor_golden_digest():
    """``repro.api`` runs are bit-identical to the frozen seed engine."""
    import hashlib
    from pathlib import Path

    golden = json.loads(
        (Path(__file__).parent / "golden" / "smoke_metrics.json").read_text())
    for policy in ("notebookos", "reservation"):
        result = Simulation.from_scenario("smoke", policy=policy).run()
        # Materialize through the serialization round-trip the goldens pin.
        from repro.metrics.collector import ExperimentResult

        result = ExperimentResult.from_dict(result.to_dict())
        digest = hashlib.sha256(
            _canonical_collector(result).encode("utf-8")).hexdigest()
        assert digest == golden["policies"][policy]["collector_sha256"], \
            f"{policy}: repro.api drifted from the pre-refactor run_experiment"


def test_rerunning_a_simulation_does_not_pollute_prior_results():
    """Each run() retires the previous platform's collector subscription."""
    simulation = Simulation.from_scenario("smoke")
    first = simulation.run()
    first_events = len(first.collector.events)
    first_canonical = _canonical_collector(first)
    second = simulation.run()
    assert len(first.collector.events) == first_events, \
        "a finished run's collector kept recording the next run's events"
    assert _canonical_collector(second) == first_canonical
    # Finished runs retire their collector: the bus carries no stale
    # subscriptions.
    bus = simulation.platform.hooks
    assert bus.subscriber_count(api.PLATFORM_EVENT) == 0


def test_sharing_one_bus_across_simulations_does_not_cross_record():
    bus = HookBus()
    sim1 = Simulation.from_scenario("smoke").with_hooks(bus)
    first = sim1.run()
    first_events = len(first.collector.events)
    sim2 = Simulation.from_scenario("smoke", policy="reservation") \
        .with_hooks(bus)
    sim2.run()
    assert len(first.collector.events) == first_events, \
        "a shared bus leaked the second run's events into the first result"


def test_run_experiment_shim_keeps_value_error_contract():
    from repro import run_experiment
    from repro.experiments.scenarios import build_trace

    trace = build_trace(RunSpec.from_scenario("smoke"))
    with pytest.raises(ValueError, match="unknown policy"):
        run_experiment(trace, policy="bogus")


def test_run_experiment_shim_equals_facade():
    from repro import run_experiment
    from repro.experiments.scenarios import build_trace

    spec = RunSpec.from_scenario("smoke", policy="reservation", seed=5)
    trace = build_trace(spec)
    via_shim = run_experiment(trace, policy="reservation", seed=5)
    via_api = (Simulation.from_trace(build_trace(spec))
               .with_policy("reservation").with_seed(5).run())
    assert _canonical_collector(via_shim) == _canonical_collector(via_api)


def test_simulation_policy_instance_and_kwargs():
    from repro.policies import ReservationPolicy

    spec = RunSpec.from_scenario("smoke", policy="reservation")
    by_name = Simulation.from_spec(spec).run()
    by_instance = (Simulation.from_spec(spec)
                   .with_policy(ReservationPolicy()).run())
    assert _canonical_collector(by_name) == _canonical_collector(by_instance)
    tweaked = (Simulation.from_spec(spec)
               .with_policy("reservation", state_persist_s=5.0))
    # Tuned variants stay spec-backed: the kwargs live on the spec and give
    # it a distinct content hash (distinct store key).
    assert tweaked.storable
    assert tweaked.spec.policy_kwargs == {"state_persist_s": 5.0}
    assert tweaked.spec.spec_hash() != spec.spec_hash()
    assert _canonical_collector(tweaked.run()) != _canonical_collector(by_name)
    # An instance keeps the spec's provenance honest via its declared name.
    instance_sim = Simulation.from_spec(spec).with_policy(ReservationPolicy())
    assert instance_sim.spec.policy == "reservation"
    assert not instance_sim.storable


@pytest.mark.parametrize("policy, field", [
    ("batch", "queue_poll_interval_s"),
    ("lcp", "gpu_wait_poll_s"),
    ("notebookos", "gpu_wait_poll_s"),
])
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_poll_interval_is_rejected_before_the_run(policy, field, value):
    # Zero would poll forever at one instant, and a negative or NaN sleep
    # would fail from inside the engine.  The policy is built before any
    # platform, so nothing has been dispatched when the error is raised.
    spec = RunSpec.from_scenario("smoke", policy=policy,
                                 policy_kwargs={field: value})
    simulation = Simulation.from_spec(spec)
    with pytest.raises(ValueError, match=field):
        simulation.run()
    assert simulation.platform is None


def test_simulation_store_round_trip(tmp_path):
    from repro.experiments.store import ResultStore

    store = ResultStore(tmp_path)
    spec = RunSpec.from_scenario("smoke", policy="batch")
    fresh_sim = Simulation.from_spec(spec).with_store(store)
    fresh = fresh_sim.run()
    assert store.hits == 0
    assert not fresh_sim.cached and fresh_sim.platform is not None
    cached_sim = Simulation.from_spec(spec).with_store(store)
    cached = cached_sim.run()
    assert store.hits == 1
    assert cached_sim.cached and cached_sim.platform is None
    assert _canonical_collector(fresh) == _canonical_collector(cached)


def test_hook_exception_still_detaches_collector():
    """A crashing user hook must not leave the dead run's collector on the
    bus (a later platform on the same bus would pollute its metrics)."""
    bus = HookBus()
    bus.subscribe(api.TASK_SUBMIT, lambda *a: (_ for _ in ()).throw(
        RuntimeError("buggy hook")))
    simulation = Simulation.from_scenario("smoke").with_hooks(bus)
    with pytest.raises(RuntimeError, match="buggy hook"):
        simulation.run()
    assert bus.subscriber_count(api.PLATFORM_EVENT) == 0


def test_with_policy_canonicalizes_aliases_for_one_store_key():
    by_alias = Simulation.from_scenario("smoke").with_policy("NOTEBOOKOS-LCP")
    by_name = Simulation.from_scenario("smoke").with_policy("lcp")
    assert by_alias.spec.policy == "lcp"
    assert by_alias.spec.spec_hash() == by_name.spec.spec_hash()


def test_with_seed_does_not_mutate_caller_platform_config():
    from repro.core.config import PlatformConfig

    config = PlatformConfig()
    default_seed = config.seed
    simulation = (Simulation.from_scenario("smoke")
                  .with_config(platform_config=config)
                  .with_seed(default_seed + 99))
    simulation.build()
    assert config.seed == default_seed
    assert simulation.platform.config.seed == default_seed + 99


def test_simulation_builder_validation():
    with pytest.raises(ValueError, match="from_scenario"):
        Simulation()
    with pytest.raises(UnknownPolicyError):
        Simulation.from_scenario("smoke").with_policy("nope")
    with pytest.raises(TypeError):
        Simulation.from_scenario("smoke").with_policy(object(), knob=1)
    # with_hooks after .on would silently drop the .on subscription.
    with pytest.raises(ValueError, match="already attached"):
        (Simulation.from_scenario("smoke")
         .on(api.MIGRATION, lambda *a: None)
         .with_hooks(HookBus()))
    from repro.workload.generator import make_generator

    trace = make_generator("adobe", seed=1, num_sessions=1,
                           duration_hours=0.5).generate()
    with pytest.raises(ValueError, match="spec-backed"):
        Simulation.from_trace(trace).with_config(preset="cluster_scale")


# ----------------------------------------------------------------------
# Deprecated shims: one DeprecationWarning per process, not per call.
# ----------------------------------------------------------------------
def test_make_policy_warns_exactly_once_per_process(monkeypatch):
    import warnings

    import repro.policies as policies

    monkeypatch.setattr(policies, "_MAKE_POLICY_WARNED", False)
    with warnings.catch_warnings(record=True) as caught:
        # "always" would surface one warning per call if the shim relied on
        # the default once-per-location dedup; the shim must dedup itself.
        warnings.simplefilter("always")
        for name in ("batch", "lcp", "reservation", "notebookos"):
            policies.make_policy(name)
    deprecations = [w for w in caught
                    if issubclass(w.category, DeprecationWarning)]
    assert len(deprecations) == 1
    assert "make_policy" in str(deprecations[0].message)
    assert "default_policy_registry" in str(deprecations[0].message)


def test_run_experiment_warns_exactly_once_per_process(monkeypatch):
    import warnings

    import repro.core.platform as platform_module
    from repro.workload import SessionTrace, TaskRecord, Trace

    trace = Trace(name="tiny", sessions=[SessionTrace(
        session_id="s0", user_id="u0", start_time=0.0, end_time=60.0,
        gpus_requested=0,
        tasks=[TaskRecord(session_id="s0", submit_time=1.0, duration=5.0,
                          gpus=0, code="", task_index=0)])])
    monkeypatch.setattr(platform_module, "_RUN_EXPERIMENT_WARNED", False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        platform_module.run_experiment(trace, policy="reservation")
        platform_module.run_experiment(trace, policy="reservation")
    deprecations = [w for w in caught
                    if issubclass(w.category, DeprecationWarning)]
    assert len(deprecations) == 1
    assert "Simulation" in str(deprecations[0].message)
