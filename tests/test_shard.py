"""Tests for repro.shard — partition, barriers, merge, and bit-identity.

The load-bearing guarantees, in increasing order of integration:

* the session partition is a deterministic round-robin that preserves
  every session and each shard's original trace order;
* the barrier schedule is derived by multiplication (never accumulation)
  and ends exactly at the horizon;
* frame merging and result merging are pure, order-stable functions of
  their inputs in shard order;
* ``num_shards=1`` is byte-identical to a plain serial run (the frozen
  reference path);
* for any K, in-process serial execution and one-process-per-shard
  parallel execution produce byte-identical merged collectors;
* a shard failing mid-epoch tears the run down with a diagnosable error
  instead of hanging the barrier.
"""

import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.timeline import Timeline
from repro.api import RunSpec, Simulation
from repro.metrics.collector import ExperimentResult
from repro.shard import (
    GlobalFrame,
    ShardContext,
    ShardExecutionError,
    ShardFrame,
    ShardPlan,
    merge_results,
    partition_sessions,
    run_sharded,
    shard_traces,
)
from repro.shard.merge import (
    merge_timelines_sum,
    merge_timelines_weighted_mean,
)
from repro.shard.plan import MAX_BARRIERS, default_epoch_s
from repro.shard.runner import _drive_serial
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
# Plan / barrier schedule.
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(horizon=st.floats(1.0, 1e7), epoch=st.floats(1.0, 1e5))
def test_barrier_schedule_covers_horizon(horizon, epoch):
    trace = Trace(name="toy", sessions=_sessions(4))
    if horizon / epoch > MAX_BARRIERS:
        # Too many barriers: rejected up front, naming epoch_s, the horizon
        # and the count, instead of building the schedule.
        with pytest.raises(ValueError, match="epoch_s") as error:
            ShardPlan.from_trace(trace, 2, epoch_s=epoch, horizon=horizon)
        assert str(horizon) in str(error.value)
        assert str(math.ceil(horizon / epoch)) in str(error.value)
        return
    plan = ShardPlan.from_trace(trace, 2, epoch_s=epoch, horizon=horizon)
    barriers = plan.barrier_times
    assert len(barriers) <= MAX_BARRIERS
    assert barriers[-1] == horizon
    assert list(barriers) == sorted(set(barriers))  # strictly increasing
    # Every interior barrier is an exact multiple of the epoch (derived by
    # multiplication, so all processes agree on the floats bit-for-bit).
    for k, barrier in enumerate(barriers[:-1]):
        assert barrier == (k + 1) * plan.epoch_s
        assert barrier < horizon


@pytest.mark.parametrize("epoch", [float("nan"), float("inf"),
                                   float("-inf"), 0.0, -60.0])
def test_plan_rejects_bad_epoch(epoch):
    trace = Trace(name="toy", sessions=_sessions(4))
    with pytest.raises(ValueError, match="epoch_s"):
        ShardPlan.from_trace(trace, 2, epoch_s=epoch, horizon=3600.0)


@pytest.mark.parametrize("horizon", [float("nan"), float("inf")])
def test_plan_rejects_non_finite_horizon(horizon):
    trace = Trace(name="toy", sessions=_sessions(4))
    with pytest.raises(ValueError, match="horizon"):
        ShardPlan.from_trace(trace, 2, horizon=horizon)


def test_plan_accepts_exactly_the_barrier_cap():
    trace = Trace(name="toy", sessions=_sessions(4))
    plan = ShardPlan.from_trace(trace, 2, epoch_s=1.0,
                                horizon=float(MAX_BARRIERS))
    assert plan.num_epochs == MAX_BARRIERS
    with pytest.raises(ValueError, match="epoch_s"):
        ShardPlan.from_trace(trace, 2, epoch_s=1.0,
                             horizon=MAX_BARRIERS + 0.5)


def test_plan_round_trips_and_default_epoch():
    trace = Trace(name="toy", sessions=_sessions(12))
    plan = ShardPlan.from_trace(trace, 4)
    assert plan == ShardPlan.from_dict(plan.to_dict())
    assert plan.num_epochs == len(plan.barrier_times)
    assert default_epoch_s(0.0) == 60.0
    assert default_epoch_s(3600.0) == 60.0          # clamped up
    assert default_epoch_s(64 * 3600.0) == 1800.0   # clamped down
    assert default_epoch_s(64 * 600.0) == 600.0     # horizon / 64


# ----------------------------------------------------------------------
# Frame merge and the mailbox.
# ----------------------------------------------------------------------
def _frame(shard, epoch=0, time=60.0, **overrides):
    frame = ShardFrame(shard=shard, epoch=epoch, time=time, dispatched=10,
                       active_hosts=5, total_gpus=40, committed_gpus=8,
                       subscribed_gpus=16, idle_gpu_histogram={8: 3, 4: 2},
                       sessions_active=4)
    for key, value in overrides.items():
        setattr(frame, key, value)
    return frame


def test_global_frame_merges_aggregates_and_routes_messages():
    frames = [
        _frame(0, messages=[(1, {"kind": "hint"})]),
        _frame(1, idle_gpu_histogram={8: 1}, messages=[(0, {"kind": "ack"}),
                                                       (1, {"kind": "self"})]),
    ]
    merged = GlobalFrame.merge(frames)
    assert merged.active_hosts == 10
    assert merged.total_gpus == 80
    assert merged.committed_gpus == 16
    assert merged.idle_gpu_histogram == {8: 4, 4: 2}
    assert merged.sessions_active == 8
    assert merged.deliveries[1] == [{"kind": "hint"}, {"kind": "self"}]
    assert merged.deliveries[0] == [{"kind": "ack"}]
    # Round-trips through the wire format used by the parallel driver.
    assert GlobalFrame.from_dict(merged.to_dict()).to_dict() == merged.to_dict()


def test_global_frame_merge_rejects_barrier_skew():
    with pytest.raises(ValueError, match="skew"):
        GlobalFrame.merge([_frame(0, epoch=1), _frame(1, epoch=2)])


def test_shard_context_mailbox_and_stats():
    context = ShardContext(0, 2)
    context.send(1, {"kind": "hint"})
    with pytest.raises(ValueError):
        context.send(7, {"kind": "lost"})
    frame = context.make_frame(0, 60.0, dispatched=5,
                               aggregate={"active_hosts": 1, "total_gpus": 8,
                                          "committed_gpus": 0,
                                          "subscribed_gpus": 0},
                               idle_gpu_histogram={8: 1}, sessions_active=1)
    assert frame.messages == [[1, {"kind": "hint"}]]

    other = ShardContext(1, 2)
    peer = other.make_frame(0, 60.0, dispatched=3,
                            aggregate={"active_hosts": 1, "total_gpus": 8,
                                       "committed_gpus": 0,
                                       "subscribed_gpus": 0},
                            idle_gpu_histogram={8: 1}, sessions_active=1)
    merged = GlobalFrame.merge([frame, peer])
    other.absorb_global(merged)
    assert other.drain_inbox() == [{"kind": "hint"}]
    assert other.drain_inbox() == []
    stats = other.stats_payload()
    assert stats["epochs"] == 1
    assert stats["messages_received"] == 1
    assert stats["dispatched_per_epoch"] == [3]


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
    # Shard payloads carry the barrier accounting.
    for index, payload in enumerate(parallel.shard_payloads):
        stats = payload["shard"]
        assert stats["index"] == index
        assert stats["epochs"] == len(stats["dispatched_per_epoch"])
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


def test_sketch_mode_sharding_is_byte_identical_across_modes():
    spec = RunSpec.from_scenario("smoke", seed=7)
    serial = run_sharded(spec, 2, parallel=False, sketch=True)
    parallel = run_sharded(spec, 2, parallel=True, sketch=True)
    assert serial.result.collector.sketch_mode
    assert _digest(serial.result) == _digest(parallel.result)


# ----------------------------------------------------------------------
# Failure handling.
# ----------------------------------------------------------------------
class _FailingRuntime:
    """Stands in for a ShardRuntime that dies mid-epoch."""

    def __init__(self, fail_epoch):
        self.fail_epoch = fail_epoch
        self.aborted = False

    def setup(self):
        pass

    def step_epoch(self, epoch, time):
        if epoch >= self.fail_epoch:
            raise RuntimeError("shard blew up mid-epoch")
        return _frame(0, epoch=epoch, time=time)

    def absorb(self, frame):
        pass

    def abort(self):
        self.aborted = True


def test_serial_driver_tears_down_on_mid_epoch_failure():
    trace = Trace(name="toy", sessions=_sessions(4))
    plan = ShardPlan.from_trace(trace, 2, epoch_s=60.0, horizon=600.0)
    healthy = _FailingRuntime(fail_epoch=10_000)
    failing = _FailingRuntime(fail_epoch=2)
    # Frames must agree on shard index for the merge; patch them apart.
    healthy.step_epoch = lambda e, t: _frame(0, epoch=e, time=t)
    with pytest.raises(RuntimeError, match="mid-epoch"):
        _drive_serial([healthy, failing], plan)
    assert healthy.aborted and failing.aborted


def test_parallel_driver_surfaces_worker_errors():
    spec = RunSpec.from_scenario("smoke", seed=7).to_dict()
    spec["policy"] = "no-such-policy"
    with pytest.raises(ShardExecutionError, match="no-such-policy"):
        run_sharded(spec, 2, parallel=True)


def test_run_sharded_rejects_bad_shard_counts():
    spec = RunSpec.from_scenario("smoke", seed=7)
    with pytest.raises(ValueError):
        run_sharded(spec, 0)


# ----------------------------------------------------------------------
# Full-trace replays (slow lane).
# ----------------------------------------------------------------------
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
