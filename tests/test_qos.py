"""Tests for repro.qos — the closed-loop QoS control plane.

Layered from pure to integrated:

* target parsing, validation, serialization, and the action registry;
* the :class:`TargetState` trigger machine — hysteresis band entry/exit,
  consecutive-window debouncing, cooldown suppression, empty-window
  neutrality — driven with synthetic window snapshots;
* a hypothesis property pinning that a machine's transition sequence is a
  pure, replayable function of the window-snapshot history it is fed;
* the controller's multi-target tie-break (declaration order at a shared
  window close) against a stub platform;
* spec integration: the ``qos`` block participates in spec hashes and the
  sweep grid, and specs without one serialize exactly as before this
  subsystem existed;
* cost: with no ``qos`` block a telemetry-attached run reproduces the
  pre-QoS digest, and an idle target adds at most 5 % more calls into
  ``repro``;
* the full loop: under the ``failure_storm`` scenario a p99-interactivity
  target breaches, fires its action, and recovers — deterministically
  across repeated runs, and bit-identically serial-vs-parallel at K=2.
"""

import cProfile
import hashlib
import json
import os
import pstats
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.api import (
    QOS_ACTION,
    QOS_BREACH,
    QOS_RECOVER,
    RUN_END,
    RUN_START,
    RunSpec,
    Simulation,
)
from repro.api.hooks import HookBus
from repro.experiments.__main__ import main
from repro.experiments.sweep import SweepGrid
from repro.qos import QosConfig, QosTarget, TargetState
from repro.qos.actions import register_action, resolve_action
from repro.qos.controller import QosController
from repro.statesync.ast_analysis import clear_ast_cache
from repro.telemetry.streams import WindowSnapshot

WINDOW = 300.0


def snap(index, value, count=1):
    """One synthetic closed window whose every statistic equals ``value``."""
    start = index * WINDOW
    return WindowSnapshot(
        index=index, start=start, end=start + WINDOW, count=count,
        total=(value or 0.0) * count, minimum=value, maximum=value,
        quantiles={} if value is None else {"p50": value, "p99": value})


def drive(state, snapshots):
    """Feed snapshots through a machine the way the controller does."""
    transitions = []
    for snapshot in snapshots:
        transition = state.observe(snapshot)
        transitions.append(transition)
        if transition in ("breach", "action"):
            state.mark_action(snapshot.end)
    return transitions


# ----------------------------------------------------------------------
# Targets: parsing, validation, serialization.
# ----------------------------------------------------------------------
def test_shorthand_parses_percentile_target():
    target = QosTarget.from_string(
        "interactivity:p99>120:migrate_hottest,gpus_required=2,windows=3")
    assert target.metric == "interactivity"
    assert target.percentile == pytest.approx(0.99)
    assert target.comparison == "above"
    assert target.threshold == 120.0
    assert target.action == "migrate_hottest"
    assert target.windows == 3
    assert target.action_kwargs == {"gpus_required": 2}
    assert target.name == "interactivity:p99>120"


def test_shorthand_parses_aggregate_below_target():
    target = QosTarget.from_string("placement:mean<0.9")
    assert target.percentile is None
    assert target.aggregate == "mean"
    assert target.comparison == "below"
    assert target.action == "log"


@pytest.mark.parametrize("text", [
    "interactivity",                  # no trigger
    "interactivity:p99=120",          # bad operator
    "interactivity:p99>oops",         # non-numeric threshold
    "interactivity:median>5",         # unknown statistic
    "tct:p99>10:no_such_action",      # unknown action (validate)
])
def test_malformed_shorthand_rejected(text):
    with pytest.raises(ValueError):
        target = QosTarget.from_string(text)
        target.validate()


def test_target_on_a_stream_telemetry_never_keeps_is_rejected():
    # A misspelled metric used to validate, then run with 0 breaches and
    # 0 actions: no stream of that name ever closes a window.
    target = QosTarget.from_string(
        "interactivty:p99>0.001:autoscaler_override,extra_hosts=2,hold_s=900")
    with pytest.raises(ValueError, match="'interactivty'") as info:
        QosConfig(targets=[target]).validate()
    # The message names the streams a target may watch.
    assert "interactivity" in str(info.value)
    assert "placement" in str(info.value)


def test_controller_telemetry_keeps_only_its_targets_streams():
    platform = _StubPlatform()
    controller = QosController(platform, QosConfig.from_specs(
        ["tct:p90>900", "interactivity:p99>50", "tct:p50>300"]))
    assert controller.telemetry.stream_names == ("interactivity", "tct")
    platform.hooks.publish(RUN_START, platform, None)
    with pytest.raises(KeyError):
        controller.telemetry.stream("sched_overhead")


@pytest.mark.parametrize("text, key", [
    # Each validated before its action checked its arguments: the first
    # then died mid-run with a TypeError from the controller, the second
    # ran and ignored ``foo``, and the third ran without the option.
    ("interactivity:p99>0.001:autoscaler_override,extra_host=2",
     "extra_host"),
    ("interactivity:p99>60:log,foo=1", "foo"),
    ("interactivity:p99>60:autoscaler_override,extra_hosts=2,"
     "pressure_relief=0.2", "pressure_relief"),
])
def test_action_arguments_are_checked_at_the_boundary(text, key, capsys):
    action = text.split(":")[2].split(",")[0]
    with pytest.raises(ValueError, match=rf"'{action}'.*'{key}'"):
        QosConfig.from_specs([text]).validate()
    code = main(["run", "smoke", "--qos", text])
    captured = capsys.readouterr()
    assert code == 2
    assert f"'{key}'" in captured.err
    assert "Traceback" not in captured.err


def test_from_dict_rejects_unknown_keys():
    data = QosTarget.from_string("interactivity:p99>60").to_dict()
    data["pressure_relief"] = 0.2
    with pytest.raises(ValueError, match="'pressure_relief'"):
        QosTarget.from_dict(data)


def test_target_round_trips_through_dict():
    target = QosTarget.from_string(
        "tct:p90>900:admission_throttle,delay_s=30,cooldown_s=600,"
        "hysteresis=60")
    clone = QosTarget.from_dict(target.to_dict())
    assert clone == target
    config = QosConfig(targets=[target], window_s=120.0)
    assert QosConfig.from_dict(config.to_dict()) == config


def test_config_validate_rejects_duplicate_names():
    config = QosConfig.from_specs(
        ["interactivity:p99>60", "interactivity:p99>60"])
    with pytest.raises(ValueError, match="duplicate"):
        config.validate()


@pytest.mark.parametrize("window_s", [float("nan"), float("inf")])
def test_config_validate_rejects_non_finite_window(window_s):
    config = QosConfig.from_specs(["interactivity:p99>60"], window_s=window_s)
    with pytest.raises(ValueError, match="window_s"):
        config.validate()


def test_config_quantiles_cover_all_targets():
    config = QosConfig.from_specs(
        ["interactivity:p99>60", "tct:p50>300", "placement:mean<0.9"])
    assert config.quantiles() == (0.5, 0.99)


def test_action_registry_rejects_duplicates_and_unknowns():
    with pytest.raises(ValueError, match="already registered"):
        register_action("log")(lambda platform, target, now: {})
    with pytest.raises(ValueError, match="unknown qos action"):
        resolve_action("definitely_not_registered")


# ----------------------------------------------------------------------
# TargetState: the trigger machine.
# ----------------------------------------------------------------------
def test_breach_needs_consecutive_violating_windows():
    state = TargetState(QosTarget(metric="interactivity", threshold=100.0,
                                  windows=2, cooldown_s=1e9))
    transitions = drive(state, [snap(0, 150.0), snap(1, 50.0),
                                snap(2, 150.0), snap(3, 150.0)])
    # A clean window resets the streak: only the 3rd+4th pair breaches.
    assert transitions == [None, None, None, "breach"]
    assert state.breaches == 1


def test_hysteresis_band_entry_and_exit():
    state = TargetState(QosTarget(metric="interactivity", threshold=100.0,
                                  hysteresis=10.0, cooldown_s=1e9))
    transitions = drive(state, [
        snap(0, 120.0),   # above threshold -> breach
        snap(1, 95.0),    # below threshold but inside the band: no recovery
        snap(2, 91.0),    # still inside the band (> 90)
        snap(3, 90.0),    # clears threshold - hysteresis -> recover
        snap(4, 95.0),    # back inside the band, but OK stays OK
    ])
    assert transitions == ["breach", None, None, "recover", None]
    assert (state.breaches, state.recoveries) == (1, 1)


def test_cooldown_suppresses_action_refire():
    state = TargetState(QosTarget(metric="interactivity", threshold=100.0,
                                  cooldown_s=600.0))
    transitions = drive(state, [snap(i, 150.0) for i in range(5)])
    # Breach fires at window 0 (end 300); the cooldown then suppresses the
    # re-fire until two full windows later (end 900), and again at 1500.
    assert transitions == ["breach", None, "action", None, "action"]
    assert state.actions_fired == 3


def test_empty_windows_are_neutral():
    state = TargetState(QosTarget(metric="interactivity", threshold=100.0,
                                  windows=2, cooldown_s=1e9))
    transitions = drive(state, [snap(0, 150.0), snap(1, None, count=0),
                                snap(2, 150.0)])
    # The scrape gap neither extends nor resets the violating streak.
    assert transitions == [None, None, "breach"]


def test_below_comparison_breaches_under_threshold():
    state = TargetState(QosTarget(metric="placement", threshold=0.9,
                                  percentile=None, aggregate="mean",
                                  comparison="below", hysteresis=0.05,
                                  cooldown_s=1e9))
    transitions = drive(state, [snap(0, 0.5), snap(1, 0.92), snap(2, 0.96)])
    # 0.92 is above the threshold but inside the band (needs >= 0.95).
    assert transitions == ["breach", None, "recover"]


# ----------------------------------------------------------------------
# Replayability: decisions are a pure function of the window history.
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(
        st.one_of(st.none(),
                  st.floats(min_value=0.0, max_value=250.0,
                            allow_nan=False, allow_infinity=False)),
        min_size=1, max_size=40),
    windows=st.integers(min_value=1, max_value=3),
    hysteresis=st.floats(min_value=0.0, max_value=50.0),
    cooldown_windows=st.integers(min_value=0, max_value=4),
)
def test_transition_sequence_is_replayable(values, windows, hysteresis,
                                           cooldown_windows):
    target = QosTarget(metric="interactivity", threshold=100.0,
                       windows=windows, hysteresis=hysteresis,
                       cooldown_s=cooldown_windows * WINDOW)
    snapshots = [snap(i, v, count=0 if v is None else 1)
                 for i, v in enumerate(values)]
    first = drive(TargetState(target), snapshots)
    second = drive(TargetState(target), snapshots)
    assert first == second
    # The machine survives the spec round-trip with identical behavior.
    cloned = QosTarget.from_dict(
        json.loads(json.dumps(target.to_dict())))
    assert drive(TargetState(cloned), snapshots) == first
    # Transition counters agree with the sequence.
    replay = TargetState(target)
    transitions = drive(replay, snapshots)
    assert replay.breaches == transitions.count("breach")
    assert replay.recoveries == transitions.count("recover")
    assert replay.actions_fired == (transitions.count("breach")
                                    + transitions.count("action"))


# ----------------------------------------------------------------------
# Controller: multi-target tie-break at a shared window close.
# ----------------------------------------------------------------------
class _StubPlatform:
    """Just enough platform for a controller: hooks, env, a live workload."""

    def __init__(self):
        self.hooks = HookBus()
        self.env = types.SimpleNamespace(now=0.0)
        self._workload = {"live": True}


def test_multi_target_tiebreak_is_declaration_order():
    platform = _StubPlatform()
    config = QosConfig.from_specs(
        ["interactivity:p99>70,name=loose",
         "interactivity:p99>50,name=tight",
         "interactivity:p99>60,name=middle"])
    controller = QosController(platform, config)
    platform.hooks.publish(RUN_START, platform, None)
    stream = controller.telemetry.stream("interactivity")
    stream.observe(10.0, 100.0)     # violates all three targets
    stream.observe(WINDOW + 1.0, 1.0)   # closes window 0 -> evaluation
    breaches = [name for _, kind, name, _ in controller.timeline
                if kind == "breach"]
    assert breaches == ["loose", "tight", "middle"]
    # Each breach immediately fired its (log) action, interleaved in the
    # same declaration order.
    kinds = [(kind, name) for _, kind, name, _ in controller.timeline]
    assert kinds == [("breach", "loose"), ("action", "loose"),
                     ("breach", "tight"), ("action", "tight"),
                     ("breach", "middle"), ("action", "middle")]


def test_controller_suppresses_evaluation_after_workload_end():
    platform = _StubPlatform()
    controller = QosController(
        platform, QosConfig.from_specs(["interactivity:p99>50"]))
    platform.hooks.publish(RUN_START, platform, None)
    stream = controller.telemetry.stream("interactivity")
    stream.observe(10.0, 100.0)
    platform._workload = None       # the run is draining
    stream.observe(WINDOW + 1.0, 100.0)
    assert controller.timeline == []


# ----------------------------------------------------------------------
# Spec and sweep integration.
# ----------------------------------------------------------------------
def test_spec_without_qos_serializes_as_before():
    spec = RunSpec.from_scenario("smoke")
    assert "qos" not in spec.to_dict()
    assert RunSpec.from_dict(spec.to_dict()) == spec


def test_qos_block_participates_in_spec_hash():
    plain = RunSpec.from_scenario("failure_storm")
    qos = QosConfig.from_specs(["interactivity:p99>60"]).to_dict()
    controlled = RunSpec.from_scenario("failure_storm", qos=qos)
    assert plain.spec_hash() != controlled.spec_hash()
    clone = RunSpec.from_json(controlled.to_json())
    assert clone.spec_hash() == controlled.spec_hash()
    assert clone.qos == qos
    assert "qos:" in controlled.label.split("{")[-1]


def test_sweep_grid_qos_axis():
    qos = QosConfig.from_specs(["interactivity:p99>60"]).to_dict()
    grid = SweepGrid(scenario="smoke", policies=("notebookos",),
                     seeds=(1,), qos_axis=({}, qos))
    assert grid.size() == 2
    specs = grid.expand()
    assert [bool(spec.qos) for spec in specs] == [False, True]
    assert specs[0].spec_hash() != specs[1].spec_hash()


# ----------------------------------------------------------------------
# Cost: nothing when disabled, little when idle.
# ----------------------------------------------------------------------
#: Collector digest of ``cluster_scale`` at 300 sessions with telemetry
#: attached (300 s windows) and no ``qos`` block, from the commit before
#: the QoS subsystem landed: the disabled control plane must not move it.
QOS_OFF_DIGEST = \
    "86d9117009c1b7f638e0175ef2bfaf187094f67a93ed3550435841aa413757bf"
#: A target that never breaches: the controller evaluates every window
#: close but schedules nothing, so its extra calls are pure overhead.
IDLE_TARGET = "interactivity:p99>1000000"
COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def _telemetry_run(qos: bool) -> Simulation:
    sim = (Simulation.from_scenario("cluster_scale", num_sessions=300)
           .with_telemetry(window_s=WINDOW))
    if qos:
        sim.with_qos(IDLE_TARGET, window_s=WINDOW)
    return sim


def test_disabled_qos_reproduces_the_pre_qos_digest():
    assert _digest(_telemetry_run(qos=False).run()) == QOS_OFF_DIGEST


def _calls_into_repro(sim: Simulation) -> int:
    """cProfile primitive calls of functions under ``src/repro`` over one
    ``run()`` from a cold AST cache, comprehension frames excluded.  The
    count repeats exactly from run to run, so it needs no noise band."""
    clear_ast_cache()
    profile = cProfile.Profile()
    profile.enable()
    sim.run()
    profile.disable()
    package = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
    return sum(primitive for (path, _, func), (primitive, *_)
               in pstats.Stats(profile).stats.items()
               if path.startswith(package) and func not in COMPREHENSIONS)


def test_an_idle_target_adds_at_most_5_percent_calls():
    plain = _calls_into_repro(_telemetry_run(qos=False))
    controlled = _calls_into_repro(_telemetry_run(qos=True))
    assert controlled / plain <= 1.05, (plain, controlled)


def test_with_qos_accepts_all_spec_forms():
    config = QosConfig.from_specs(["interactivity:p99>60"])
    by_config = Simulation.from_scenario("smoke").with_qos(config)
    by_dict = Simulation.from_scenario("smoke").with_qos(config.to_dict())
    by_string = Simulation.from_scenario("smoke").with_qos(
        "interactivity:p99>60")
    assert by_config._qos == by_dict._qos == by_string._qos
    with pytest.raises(ValueError):
        Simulation.from_scenario("smoke").with_qos(
            "interactivity:p99>60:no_such_action")


# ----------------------------------------------------------------------
# The full loop under the failure storm.
# ----------------------------------------------------------------------
TARGET = "interactivity:p99>60:autoscaler_override,extra_hosts=2,hold_s=900"


def _run_storm():
    qos_stats = {}
    events = []
    sim = (Simulation.from_scenario("failure_storm")
           .with_qos(TARGET, window_s=WINDOW)
           .on(QOS_BREACH, lambda t, n, d: events.append((t, "breach", n)))
           .on(QOS_ACTION, lambda t, n, a, d: events.append((t, "action", n)))
           .on(QOS_RECOVER, lambda t, n, d: events.append((t, "recover", n)))
           .on(RUN_END,
               lambda p, r, stats: qos_stats.update(stats.get("qos", {}))))
    result = sim.run()
    return result, events, qos_stats


def test_failure_storm_closes_the_loop():
    result, events, qos_stats = _run_storm()
    kinds = [kind for _, kind, _ in events]
    assert "breach" in kinds and "action" in kinds and "recover" in kinds
    assert kinds.index("breach") < kinds.index("action") < kinds.index("recover")
    entry = qos_stats["targets"]["interactivity:p99>60"]
    assert entry["breaches"] >= 1
    assert entry["actions_fired"] >= 1
    assert entry["recoveries"] >= 1
    # The hook timeline and the stats timeline are the same record.
    assert [(e["time"], e["kind"]) for e in qos_stats["timeline"]] == \
        [(t, k) for t, k, _ in events]


def test_failure_storm_qos_run_is_deterministic():
    first = _run_storm()
    second = _run_storm()
    assert first[1] == second[1]
    assert first[2] == second[2]
    assert _digest(first[0]) == _digest(second[0])


def test_mitigation_actions_schedule_without_crashing():
    qos_stats = {}
    sim = (Simulation.from_scenario("failure_storm")
           .with_qos("interactivity:p99>10:migrate_hottest",
                     "tct:p99>120:admission_throttle,delay_s=10,hold_s=600",
                     window_s=WINDOW)
           .on(RUN_END,
               lambda p, r, stats: qos_stats.update(stats.get("qos", {}))))
    result = sim.run()
    assert len(result.collector.completed_tasks()) > 0
    fired = sum(entry["actions_fired"]
                for entry in qos_stats["targets"].values())
    assert fired >= 1


def _digest(result):
    payload = json.dumps(result.collector.to_dict(), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def test_storm_with_qos_bit_identical_serial_vs_parallel():
    from repro.shard import run_sharded

    qos = QosConfig.from_specs([TARGET], window_s=WINDOW).to_dict()
    spec = RunSpec.from_scenario("failure_storm", qos=qos, num_sessions=24,
                                 duration_hours=3.0)
    serial = run_sharded(spec, 2, parallel=False)
    parallel = run_sharded(spec, 2, parallel=True)
    assert _digest(serial.result) == _digest(parallel.result)
