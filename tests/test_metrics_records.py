"""The per-cell records: step latencies, task metrics, trace tasks, events.

Pins what the slotted layout must keep: :class:`StepLatencies` records,
reads and serializes like the dict it replaced, a constant hop is one float
shared by every cell, the records carry no ``__dict__``, and every policy
records a request's steps for the first time in ``REQUEST_STEPS`` order.
That last property is why summing the fixed slots in list order gives the
same ``end_to_end``, bit for bit, as summing a dict in recording order.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Simulation
from repro.metrics import (
    EventKind,
    MetricsCollector,
    PlatformEvent,
    REQUEST_STEPS,
    StepLatencies,
    TaskMetrics,
)
from repro.workload import SessionTrace, TaskRecord

# ----------------------------------------------------------------------
# Record semantics.
# ----------------------------------------------------------------------


def test_bad_records_raise_and_leave_the_record_unchanged():
    steps = StepLatencies()
    steps.record("execute_code", 2.5)
    before = steps.to_dict()
    with pytest.raises(KeyError):
        steps.record("unknown_step", 1.0)
    with pytest.raises(KeyError):
        steps.record("unknown_step", -1.0)   # the name is checked first
    with pytest.raises(ValueError):
        steps.record("execute_code", -1.0)
    with pytest.raises(ValueError):
        steps.record("gs_to_ls_hop", -0.5)
    assert steps.to_dict() == before
    assert steps == StepLatencies.from_dict(before)
    assert steps.end_to_end == 2.5


def test_a_recorded_zero_is_kept_and_an_unrecorded_step_is_not():
    steps = StepLatencies()
    steps.record("kernel_postprocess", 0.0)
    steps.record("execute_code", 3)
    assert steps.to_dict() == {"execute_code": 3.0, "kernel_postprocess": 0.0}
    assert type(steps.get("execute_code")) is float
    assert "primary_replica_protocol" not in steps.to_dict()
    assert steps.get("primary_replica_protocol") == 0.0
    assert StepLatencies().to_dict() == {}
    assert StepLatencies().end_to_end == 0


def test_repeated_records_add():
    steps = StepLatencies()
    steps.record("intermediary_interval", 0.25)
    steps.record("intermediary_interval", 1.5)
    steps.record("intermediary_interval", 0.0)
    assert steps.get("intermediary_interval") == 0.25 + 1.5
    assert steps.to_dict() == {"intermediary_interval": 1.75}


@settings(max_examples=40, deadline=None)
@given(recorded=st.lists(st.sampled_from(REQUEST_STEPS), unique=True,
                         min_size=1).flatmap(st.permutations),
       values=st.lists(st.floats(min_value=0.0, max_value=1e6),
                       min_size=len(REQUEST_STEPS),
                       max_size=len(REQUEST_STEPS)))
def test_from_dict_ignores_input_key_order(recorded, values):
    data = {step: values[i] for i, step in enumerate(recorded)}
    in_order = {step: data[step] for step in REQUEST_STEPS if step in data}
    restored = StepLatencies.from_dict(data)
    assert restored == StepLatencies.from_dict(in_order)
    assert list(restored.to_dict().items()) == list(in_order.items())


def test_from_dict_rejects_an_unknown_step():
    with pytest.raises(KeyError):
        StepLatencies.from_dict({"execute_code": 1.0, "unknown_step": 2.0})


def test_a_constant_hop_is_one_float_shared_by_every_cell():
    sim = Simulation.from_scenario("smoke", policy="notebookos")
    sim.run()
    config = sim.platform.config
    first, second = sim.platform.metrics.tasks[:2]
    for step, value in (("gs_to_ls_hop", config.network_hop_s),
                        ("ls_to_kernel_hop", config.network_hop_s),
                        ("kernel_to_ls_hop", config.network_hop_s),
                        ("ls_process_request", config.ls_processing_s),
                        ("kernel_preprocess", config.kernel_preprocess_s)):
        assert first.steps.get(step) is value, step
        assert second.steps.get(step) is value, step


# ----------------------------------------------------------------------
# Layout.
# ----------------------------------------------------------------------


def test_per_cell_records_have_no_instance_dict():
    collector = MetricsCollector()
    metrics = collector.new_task("s1", "k1", submitted_at=0.0, gpus=1)
    collector.record_event(1.0, EventKind.SCALE_OUT, "+1 host")
    task = TaskRecord(session_id="s1", submit_time=0.0, duration=5.0, gpus=1)
    for record in (metrics, metrics.steps, task, collector.events[0]):
        assert not hasattr(record, "__dict__"), type(record).__name__
    assert isinstance(metrics, TaskMetrics)
    assert isinstance(collector.events[0], PlatformEvent)
    with pytest.raises(AttributeError):
        metrics.not_a_field = 1


@pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
def test_trace_records_survive_pickle(protocol):
    task = TaskRecord(session_id="s1", submit_time=12.5, duration=60.0, gpus=2,
                      is_gpu_task=True, gpu_utilization=0.5,
                      code="model = train(model, data)\n", task_index=3)
    session = SessionTrace(session_id="s1", user_id="u1", start_time=0.0,
                           end_time=900.0, gpus_requested=2, tasks=[task])
    assert pickle.loads(pickle.dumps(task, protocol)) == task
    restored = pickle.loads(pickle.dumps(session, protocol))
    assert restored.tasks == [task]
    steps = StepLatencies()
    steps.record("execute_code", 60.0)
    assert pickle.loads(pickle.dumps(steps, protocol)) == steps


# ----------------------------------------------------------------------
# The recording-order invariant the fixed slots rest on.
# ----------------------------------------------------------------------


def _replay_recording_orders(monkeypatch, scenario, policy):
    """Run ``scenario`` under ``policy`` with ``StepLatencies.record``
    wrapped; return each record with its first-write order, the dict the
    old dict-backed record would have held, and the number of repeats."""
    real_record = StepLatencies.record
    seen = {}          # id(record) -> (record, first-write order, old dict)
    repeats = [0]

    def record(self, step, latency):
        entry = seen.get(id(self))
        if entry is None:
            entry = seen[id(self)] = (self, [], {})
        _, order, old = entry
        if step in old:
            repeats[0] += 1
        else:
            order.append(step)
        real_record(self, step, latency)
        old[step] = old.get(step, 0.0) + latency

    monkeypatch.setattr(StepLatencies, "record", record)
    Simulation.from_scenario(scenario, policy=policy).run()
    monkeypatch.undo()
    return list(seen.values()), repeats[0]


@pytest.mark.parametrize("scenario,policy", [
    ("smoke", "notebookos"),
    ("smoke", "batch"),
    ("smoke", "lcp"),
    ("smoke", "reservation"),
    ("failure_storm", "notebookos"),
    ("failure_storm", "lcp"),
])
def test_policies_record_steps_first_in_request_order(monkeypatch, scenario,
                                                       policy):
    records, repeats = _replay_recording_orders(monkeypatch, scenario, policy)
    assert records
    rank = {step: i for i, step in enumerate(REQUEST_STEPS)}
    for steps, order, old in records:
        assert order == sorted(order, key=rank.__getitem__), order
        # The old dict-backed record, kept here as the oracle: same keys in
        # the same order, and the same end-to-end sum bit for bit.
        assert list(steps.to_dict().items()) == list(old.items())
        assert steps.end_to_end == sum(old.values())
    if (scenario, policy) == ("failure_storm", "notebookos"):
        # The migration path records intermediary_interval twice.
        assert repeats > 0


# ----------------------------------------------------------------------
# Sketch mode.
# ----------------------------------------------------------------------


def test_sketch_mode_keeps_no_latency_breakdown():
    sim = Simulation.from_scenario("smoke").with_sketch_metrics()
    result = sim.run()
    assert result.collector.sketch_mode
    assert result.collector.tasks == []
    assert result.breakdown is None
    assert result.to_dict()["breakdown"] is None
    assert result.summary()["tasks_completed"] > 0
