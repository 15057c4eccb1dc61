"""JSON round-trip tests for the metrics layer.

The experiment result store persists :class:`ExperimentResult` as JSON; these
tests pin the guarantee the store relies on: ``from_dict(json(to_dict(x)))``
reproduces every metric bit-for-bit (floats survive JSON exactly in Python).
"""

import json

from repro.api import Simulation
from repro.analysis.timeline import Timeline
from repro.metrics.collector import (
    EventKind,
    ExperimentResult,
    MetricsCollector,
)
from repro.metrics.latency_breakdown import LatencyBreakdown, StepLatencies
from repro.workload import AdobeTraceGenerator


def json_roundtrip(data):
    return json.loads(json.dumps(data))


def test_timeline_roundtrip():
    timeline = Timeline("gpus")
    timeline.record(0.0, 4)
    timeline.record(60.0, 7.5)
    timeline.record(120.0, 3)
    restored = Timeline.from_dict(json_roundtrip(timeline.to_dict()))
    assert restored.name == "gpus"
    assert restored.points == [(0.0, 4.0), (60.0, 7.5), (120.0, 3.0)]
    assert restored.integral() == timeline.integral()


def test_step_latencies_and_breakdown_roundtrip():
    sample = StepLatencies()
    sample.record("gs_process_request", 0.003)
    sample.record("execute_code", 12.5)
    breakdown = LatencyBreakdown(policy="notebookos", samples=[sample])
    restored = LatencyBreakdown.from_dict(json_roundtrip(breakdown.to_dict()))
    assert restored.policy == "notebookos"
    assert len(restored) == 1
    assert restored.samples[0].steps == sample.steps
    assert restored.samples[0].end_to_end == sample.end_to_end
    assert restored.table() == breakdown.table()


def test_collector_roundtrip_handbuilt():
    collector = MetricsCollector(sample_interval=30.0)
    task = collector.new_task("s1", "k1", submitted_at=10.0, gpus=2)
    task.started_at = 11.5
    task.completed_at = 42.0
    task.status = "completed"
    task.executor_replica = "k1-replica-0-1"
    task.steps.record("execute_code", 30.5)
    collector.new_task("s2", "k2", submitted_at=20.0, gpus=0, is_gpu_task=False)
    collector.record_event(5.0, EventKind.SCALE_OUT, "+2 hosts")
    collector.sample_cluster(0.0, provisioned_gpus=16, committed_gpus=4,
                             active_sessions=2, active_trainings=1,
                             subscription_ratio=1.5, provisioned_hosts=2)
    collector.datastore_read_latencies = [0.01, 0.02]
    collector.raft_sync_latencies = [0.001]
    collector.record_executor_decision(immediate_commit=True, same_executor=False)

    restored = MetricsCollector.from_dict(json_roundtrip(collector.to_dict()))
    assert restored.sample_interval == 30.0
    assert len(restored.tasks) == 2
    assert restored.tasks[0].interactivity_delay == task.interactivity_delay
    assert restored.tasks[0].task_completion_time == task.task_completion_time
    assert restored.tasks[0].steps.steps == task.steps.steps
    assert restored.tasks[1].is_gpu_task is False
    assert restored.events[0].kind is EventKind.SCALE_OUT
    assert restored.events[0].detail == "+2 hosts"
    assert restored.provisioned_gpus.points == collector.provisioned_gpus.points
    assert restored.subscription_ratio.points == collector.subscription_ratio.points
    assert restored.datastore_read_latencies == [0.01, 0.02]
    assert restored.raft_sync_latencies == [0.001]
    assert restored.executor_decisions == 1
    assert restored.immediate_commit_fraction() == 1.0


def test_experiment_result_roundtrip_from_real_run():
    trace = AdobeTraceGenerator(seed=3, num_sessions=8,
                                duration_hours=1.5).generate()
    result = (Simulation.from_trace(trace).with_policy("notebookos")
              .with_seed(3).run())
    restored = ExperimentResult.from_dict(json_roundtrip(result.to_dict()))

    assert restored.summary() == result.summary()
    assert restored.interactivity_cdf.values == result.interactivity_cdf.values
    assert restored.tct_cdf.values == result.tct_cdf.values
    assert restored.provisioned_gpu_hours == result.provisioned_gpu_hours
    assert restored.collector.provisioned_gpus.points == \
        result.collector.provisioned_gpus.points
    assert [(e.time, e.kind, e.detail) for e in restored.collector.events] == \
        [(e.time, e.kind, e.detail) for e in result.collector.events]
    assert restored.breakdown is not None
    assert restored.breakdown.table() == result.breakdown.table()
    # A second round trip is a fixed point.
    assert restored.to_dict() == json_roundtrip(result.to_dict())
