"""Tests for repro.shard — partition, merge, independence and bit-identity.

The load-bearing guarantees, in increasing order of integration:

* the session partition is a deterministic round-robin that preserves
  every session and each shard's original trace order;
* result merging is a pure, order-stable function of its inputs in shard
  order;
* ``num_shards=1`` is byte-identical to a plain serial run (the frozen
  reference path);
* each shard of a K-shard run replays exactly as it would alone;
* for any K, in-process serial execution and one-process-per-shard
  parallel execution produce byte-identical merged collectors;
* a shard failing mid-replay — raising, or its worker killed — tears the
  run down with an error naming the shard instead of hanging the
  coordinator, and leaves no worker process behind.
"""

import hashlib
import json
import multiprocessing
import os
import signal
import time as wallclock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.timeline import Timeline
from repro.api import TASK_COMPLETE, RunSpec, Simulation
from repro.experiments.scenarios import build_trace
from repro.metrics.collector import ExperimentResult
from repro.qos import QosConfig
from repro.shard import (
    ShardExecutionError,
    ShardRuntime,
    merge_results,
    partition_sessions,
    run_sharded,
    shard_traces,
)
from repro.shard.merge import (
    merge_timelines_sum,
    merge_timelines_weighted_mean,
)
from repro.shard.runner import _drain_and_close, _drive_serial
from repro.workload.trace import SessionTrace, Trace


def _digest(result: ExperimentResult) -> str:
    payload = json.dumps(result.collector.to_dict(), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _sessions(count: int, seed: int = 0) -> list:
    import random

    rng = random.Random(seed)
    sessions = []
    for i in range(count):
        start = rng.uniform(0, 10_000)
        sessions.append(SessionTrace(
            session_id=f"s{i:04d}", user_id=f"u{i % 7}", start_time=start,
            end_time=start + rng.uniform(100, 5_000),
            gpus_requested=rng.choice([1, 2, 4, 8])))
    return sessions


# ----------------------------------------------------------------------
# Partition properties.
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(count=st.integers(0, 120), num_shards=st.integers(1, 9),
       seed=st.integers(0, 1000))
def test_partition_preserves_and_balances(count, num_shards, seed):
    sessions = _sessions(count, seed)
    parts = partition_sessions(sessions, num_shards)
    assert len(parts) == num_shards
    # Every session lands on exactly one shard.
    merged = [s.session_id for part in parts for s in part]
    assert sorted(merged) == sorted(s.session_id for s in sessions)
    # Round-robin over arrival order balances to within one session.
    sizes = [len(part) for part in parts]
    assert max(sizes) - min(sizes) <= 1
    # Within a shard, original trace order is preserved (the platform
    # creates session processes in trace order; bit-identity depends on it).
    index = {s.session_id: i for i, s in enumerate(sessions)}
    for part in parts:
        ranks = [index[s.session_id] for s in part]
        assert ranks == sorted(ranks)


@settings(max_examples=20, deadline=None)
@given(count=st.integers(1, 60), num_shards=st.integers(1, 6),
       seed=st.integers(0, 100))
def test_partition_is_deterministic(count, num_shards, seed):
    sessions = _sessions(count, seed)
    once = partition_sessions(sessions, num_shards)
    twice = partition_sessions(list(sessions), num_shards)
    assert [[s.session_id for s in part] for part in once] == \
           [[s.session_id for s in part] for part in twice]


def test_shard_traces_names_and_interval():
    trace = Trace(name="toy", sessions=_sessions(10), sample_interval=30.0)
    subs = shard_traces(trace, 3)
    assert [t.name for t in subs] == [
        "toy[shard 0/3]", "toy[shard 1/3]", "toy[shard 2/3]"]
    assert all(t.sample_interval == 30.0 for t in subs)
    assert sum(len(t.sessions) for t in subs) == 10


# ----------------------------------------------------------------------
# Timeline merge combinators.
# ----------------------------------------------------------------------
def test_merge_timelines_sum_is_stepwise():
    a = Timeline("x")
    a.record(0.0, 1.0)
    a.record(10.0, 3.0)
    b = Timeline("x")
    b.record(5.0, 2.0)
    merged = merge_timelines_sum("x", [a, b])
    # Before b's first sample it contributes 0; after, the step values add.
    assert merged.points == [(0.0, 1.0), (5.0, 3.0), (10.0, 5.0)]


def test_merge_timelines_weighted_mean():
    values = [Timeline("sr"), Timeline("sr")]
    weights = [Timeline("hosts"), Timeline("hosts")]
    values[0].record(0.0, 2.0)
    weights[0].record(0.0, 3.0)
    values[1].record(0.0, 1.0)
    weights[1].record(0.0, 1.0)
    merged = merge_timelines_weighted_mean("sr", values, weights)
    assert merged.points == [(0.0, (2.0 * 3 + 1.0 * 1) / 4)]
    # Zero total weight falls back to the plain mean instead of dividing.
    zero_w = [Timeline("hosts"), Timeline("hosts")]
    merged = merge_timelines_weighted_mean("sr", values, zero_w)
    assert merged.points == [(0.0, 1.5)]


def test_merge_results_validations():
    with pytest.raises(ValueError):
        merge_results([], trace_name="x")
    spec = RunSpec.from_scenario("smoke", seed=7)
    result = Simulation.from_spec(spec).run()
    other = ExperimentResult.from_dict(result.to_dict())
    other.policy = "different"
    with pytest.raises(ValueError, match="policies"):
        merge_results([result, other], trace_name="x")


# ----------------------------------------------------------------------
# Bit-identity: reference path, serial vs parallel, sketch mode.
# ----------------------------------------------------------------------
def test_single_shard_is_byte_identical_to_plain_run():
    spec = RunSpec.from_scenario("smoke", seed=7)
    plain = Simulation.from_spec(spec).run()
    sharded = run_sharded(spec, 1)
    assert sharded.mode == "reference"
    assert _digest(sharded.result) == _digest(plain)


@settings(max_examples=3, deadline=None)
@given(num_shards=st.integers(2, 4), seed=st.sampled_from([7, 11]))
def test_serial_and_parallel_sharding_are_byte_identical(num_shards, seed):
    spec = RunSpec.from_scenario("smoke", seed=seed)
    serial = run_sharded(spec, num_shards, parallel=False)
    parallel = run_sharded(spec, num_shards, parallel=True)
    assert serial.mode == "serial" and parallel.mode == "parallel"
    assert _digest(serial.result) == _digest(parallel.result)
    # Determinism across repeated parallel runs, too.
    again = run_sharded(spec, num_shards, parallel=True)
    assert _digest(again.result) == _digest(parallel.result)
    # Shard payloads come back in shard order, each with its own process's
    # memory reading.
    for index, payload in enumerate(parallel.shard_payloads):
        assert payload["index"] == index
        assert payload["memory"]["peak_rss_bytes"] > 0


def test_sharded_run_merges_the_full_workload():
    spec = RunSpec.from_scenario("smoke", seed=7)
    plain = Simulation.from_spec(spec).run()
    sharded = run_sharded(spec, 2, parallel=False)
    assert sharded.result.trace_name == plain.trace_name
    assert len(sharded.result.collector.tasks) == len(plain.collector.tasks)
    # Task stream is time-merged.
    submitted = [t.submitted_at for t in sharded.result.collector.tasks]
    assert submitted == sorted(submitted)
    events = [e.time for e in sharded.result.collector.events]
    assert events == sorted(events)


#: perfbench's ``storm_shards`` QoS target.
STORM_QOS = "interactivity:p99>60:autoscaler_override,extra_hosts=2,hold_s=900"


def test_each_shard_replays_exactly_as_it_would_alone():
    qos = QosConfig.from_specs([STORM_QOS], window_s=300.0).to_dict()
    spec = RunSpec.from_scenario("failure_storm", policy="notebookos",
                                 qos=qos)
    sharded = run_sharded(spec, 2, parallel=False)
    full_trace = build_trace(spec)
    for index, trace in enumerate(shard_traces(full_trace, 2)):
        alone = ShardRuntime(spec, index, trace, full_trace.duration)
        alone.setup()
        result = alone.finalize()
        payload = sharded.shard_payloads[index]
        assert payload["index"] == index
        assert _digest(ExperimentResult.from_dict(payload["result"])) == \
            _digest(ExperimentResult.from_dict(result.to_dict()))


def test_sketch_mode_sharding_is_byte_identical_across_modes():
    spec = RunSpec.from_scenario("smoke", seed=7)
    serial = run_sharded(spec, 2, parallel=False, sketch=True)
    parallel = run_sharded(spec, 2, parallel=True, sketch=True)
    assert serial.result.collector.sketch_mode
    assert _digest(serial.result) == _digest(parallel.result)


# ----------------------------------------------------------------------
# Failure handling.
# ----------------------------------------------------------------------
class _StubRuntime:
    """Stands in for a ShardRuntime whose replay may fail."""

    def __init__(self, fails):
        self.fails = fails
        self.aborted = False

    def setup(self):
        pass

    def finalize(self):
        if self.fails:
            raise RuntimeError("shard blew up mid-replay")

    def payload(self):
        return {}

    def abort(self):
        self.aborted = True


def test_serial_driver_tears_down_when_a_replay_fails():
    # Shard 0 finishes its replay before shard 1's fails; both are torn
    # down.
    finished, failing = _StubRuntime(fails=False), _StubRuntime(fails=True)
    with pytest.raises(RuntimeError, match="mid-replay"):
        _drive_serial([finished, failing])
    assert finished.aborted and failing.aborted


def test_parallel_driver_surfaces_worker_errors():
    spec = RunSpec.from_scenario("smoke", seed=7).to_dict()
    spec["policy"] = "no-such-policy"
    with pytest.raises(ShardExecutionError, match="no-such-policy"):
        run_sharded(spec, 2, parallel=True)


def _inject(fault: str) -> None:
    if fault == "sigkill":
        os.kill(os.getpid(), signal.SIGKILL)
    raise RuntimeError("injected shard failure")


def _assert_fails_fast(spec, pattern: str) -> None:
    started = wallclock.monotonic()
    with pytest.raises(ShardExecutionError, match=pattern):
        run_sharded(spec, 2, parallel=True)
    assert wallclock.monotonic() - started < 10.0
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("fault", ["sigkill", "raise"])
def test_parallel_driver_fails_fast_when_a_worker_is_lost_mid_run(
        monkeypatch, fault):
    # Patched before the fork, so only the workers inherit the fault; it
    # fires at shard 1's first task completion, mid-replay.
    setup = ShardRuntime.setup

    def faulty_setup(self):
        setup(self)
        if self.shard_index == 1:
            self.platform.hooks.subscribe(
                TASK_COMPLETE, lambda *_payload: _inject(fault))

    monkeypatch.setattr(ShardRuntime, "setup", faulty_setup)
    _assert_fails_fast(RunSpec.from_scenario("smoke", seed=7), r"shard 1\b")


def test_parallel_driver_fails_fast_when_a_worker_dies_before_its_result(
        monkeypatch):
    finalize = ShardRuntime.finalize

    def dying_finalize(self):
        result = finalize(self)
        if self.shard_index == 1:
            _inject("sigkill")
        return result

    monkeypatch.setattr(ShardRuntime, "finalize", dying_finalize)
    _assert_fails_fast(RunSpec.from_scenario("smoke", seed=7), r"shard 1\b")


def test_drain_and_close_is_idempotent_and_never_raises():
    parent, child = multiprocessing.get_context("fork").Pipe()
    child.send(("result", {"x": 1}))  # leave data in flight
    _drain_and_close(parent)
    _drain_and_close(parent)  # double close must not raise
    assert parent.closed
    child.close()


def test_run_sharded_rejects_bad_shard_counts():
    spec = RunSpec.from_scenario("smoke", seed=7)
    with pytest.raises(ValueError):
        run_sharded(spec, 0)


def test_cli_run_sharded_smoke(capsys):
    from repro.experiments.__main__ import main

    code = main(["run", "smoke", "--shards", "2", "--no-store"])
    captured = capsys.readouterr()
    assert code == 0
    assert "mode=parallel" in captured.out
    assert "shards=2" in captured.out


# ----------------------------------------------------------------------
# Full-trace replays (slow lane).
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("num_shards", [2, 3, 4])
def test_failure_storm_serial_and_parallel_are_byte_identical(num_shards):
    spec = RunSpec.from_scenario("failure_storm", seed=11)
    serial = run_sharded(spec, num_shards, parallel=False)
    parallel = run_sharded(spec, num_shards, parallel=True)
    assert _digest(serial.result) == _digest(parallel.result)


@pytest.mark.slow
def test_excerpt_serial_vs_parallel_bit_identity_full_trace():
    spec = RunSpec.from_scenario("excerpt", seed=7)
    serial = run_sharded(spec, 4, parallel=False)
    parallel = run_sharded(spec, 4, parallel=True)
    assert _digest(serial.result) == _digest(parallel.result)


@pytest.mark.slow
@pytest.mark.parametrize("policy", ["reservation", "batch", "lcp"])
def test_excerpt_policies_shard_deterministically(policy):
    spec = RunSpec.from_scenario("excerpt", policy=policy, seed=7)
    serial = run_sharded(spec, 2, parallel=False)
    parallel = run_sharded(spec, 2, parallel=True)
    assert _digest(serial.result) == _digest(parallel.result)
