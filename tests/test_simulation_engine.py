"""Unit tests for the discrete-event simulation engine."""

import warnings

import pytest

from repro.api import Simulation
from repro.core import ClusterConfig
from repro.simulation import AllOf, Environment, SimulationError
from repro.simulation.engine import SAME_TIME_BUDGET


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.at(5.0)
        return env.now

    process = env.process(proc())
    result = env.run(until=process)
    assert result == 5.0
    assert env.now == 5.0


def test_negative_timeout_rejected():
    env = Environment()
    env.run(until=2.0)
    with pytest.raises(ValueError):
        env.at(1.0)


def _sleep_nan(env):
    def sleeper():
        yield float("nan")

    env.process(sleeper())
    env.run()


@pytest.mark.parametrize("entry", ["sleep", "at", "defer", "run"])
def test_nan_time_rejected(entry):
    # NaN compares false with everything, so each check is written to fail
    # on it: it raises the error the entry point raises for a past time.
    env = Environment()
    nan = float("nan")
    calls = {
        "sleep": (SimulationError, lambda: _sleep_nan(env)),
        "at": (ValueError, lambda: env.at(nan)),
        "defer": (SimulationError, lambda: env.defer(nan, lambda _: None)),
        "run": (SimulationError, lambda: env.run(until=nan)),
    }
    error, call = calls[entry]
    with pytest.raises(error):
        call()
    assert env.now == 0.0


def test_processes_interleave_in_time_order():
    env = Environment()
    order = []

    def worker(name, delay):
        yield delay
        order.append((name, env.now))

    env.process(worker("b", 2.0))
    env.process(worker("a", 1.0))
    env.process(worker("c", 3.0))
    env.run()
    assert order == [("a", 1.0), ("b", 2.0), ("c", 3.0)]


def test_run_until_time_stops_clock_at_limit():
    env = Environment()
    seen = []

    def ticker():
        while True:
            yield 1.0
            seen.append(env.now)

    env.process(ticker())
    env.run(until=10.5)
    assert env.now == 10.5
    assert seen == [float(i) for i in range(1, 11)]


def test_run_until_past_time_raises():
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(SimulationError):
        env.run(until=1.0)


def test_event_succeed_delivers_value():
    env = Environment()
    event = env.event()
    results = []

    def waiter():
        value = yield event
        results.append(value)

    def trigger():
        yield 2.0
        event.succeed("payload")

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert results == ["payload"]


def test_event_cannot_trigger_twice():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(RuntimeError):
        event.succeed(2)


def test_process_return_value_propagates_to_waiters():
    env = Environment()

    def child():
        yield 1.0
        return 42

    def parent():
        value = yield env.process(child())
        return value * 2

    process = env.process(parent())
    assert env.run(until=process) == 84


def test_yielding_non_event_fails_the_process():
    env = Environment()

    def bad():
        yield "not-an-event"

    env.process(bad(), name="bad-yield")
    with pytest.raises(SimulationError, match="bad-yield"):
        env.run()


def test_yielding_number_sleeps():
    """``yield delay`` parks the process without allocating an event."""
    env = Environment()
    log = []

    def sleeper():
        yield 2.5
        log.append(env.now)
        yield 1          # ints sleep too
        log.append(env.now)
        return env.now

    process = env.process(sleeper())
    assert env.run(until=process) == 3.5
    assert log == [2.5, 3.5]


def test_yielding_negative_number_fails_the_process():
    env = Environment()

    def bad():
        yield -1.0

    env.process(bad(), name="backwards")
    with pytest.raises(SimulationError, match="backwards"):
        env.run()


def test_number_sleep_schedules_identically_to_timeout():
    """Number sleeps and ``env.at`` wake-ups interleave in the same order."""
    def run(use_numbers):
        env = Environment()
        order = []

        def worker(name, delay):
            if use_numbers:
                yield delay
            else:
                yield env.at(env.now + delay)
            order.append((name, env.now))

        for name, delay in [("a", 1.0), ("b", 1.0), ("c", 0.5), ("d", 1.5)]:
            env.process(worker(name, delay))
        env.run()
        return order

    assert run(True) == run(False)


def test_allof_waits_for_every_event():
    env = Environment()

    def proc():
        timeouts = [env.at(d, value=d) for d in (1.0, 3.0, 2.0)]
        values = yield AllOf(env, timeouts)
        assert sorted(values.values()) == [1.0, 2.0, 3.0]
        return env.now

    process = env.process(proc())
    assert env.run(until=process) == 3.0


def test_unhandled_process_crash_escalates_from_run():
    """A background process dying of a real bug surfaces at run()."""
    env = Environment()

    def crasher():
        yield 1.0
        raise ValueError("bug in background process")

    env.process(crasher())
    with pytest.raises(ValueError, match="bug in background process"):
        env.run()


def test_run_until_event_leaves_the_rest_queued():
    env = Environment()
    fired = []
    signal = env.event()

    def trigger():
        yield 1.0
        signal.succeed("go")
        env.defer(0.0, lambda _s: fired.append("behind"))

    env.process(trigger())
    env.defer(2.0, lambda _s: fired.append("later"))
    assert env.run(until=signal) == "go"
    assert env.now == 1.0 and fired == []
    env.run()
    assert fired == ["behind", "later"]


def test_run_until_event_raises_if_the_queue_drains_first():
    env = Environment()
    never = env.event()
    env.defer(1.0, lambda _s: None)
    with pytest.raises(SimulationError, match="drained"):
        env.run(until=never)


def test_same_time_livelock_raises_naming_the_timestamp():
    env = Environment()
    spins = [0]

    def spinner():
        yield 2.5
        while True:
            spins[0] += 1
            yield 0.0

    env.process(spinner())
    with pytest.raises(SimulationError, match="livelock.* 2.5"):
        env.run()
    assert env.now == 2.5
    # The bootstrap ran at 0.0; the budget covers everything at 2.5.
    assert env.dispatch_stats()["dispatched"] == 1 + SAME_TIME_BUDGET
    assert spins[0] == SAME_TIME_BUDGET


def test_dispatch_stats_reads_the_serials_without_deprecated_calls():
    """``serials`` comes from the counter's repr, not its pickle support
    (deprecated in Python 3.12, removed in 3.14), whatever its digits."""
    env = Environment()
    env.defer(0.0, lambda _call: None)      # FIFO lane: mints no serial
    for delay in (1.0, 2.0, 2.0):
        env.defer(delay, lambda _call: None)
    env.run(until=1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        assert env.dispatch_stats() == {"dispatched": 2, "batches": 2,
                                        "serials": 3}
        for _ in range(1000):
            env.defer(5.0, lambda _call: None)
        assert env.dispatch_stats()["serials"] == 1003


@pytest.mark.slow
def test_reservation_livelock_at_max_hosts_raises():
    """Reservation retries ``scale_out`` at the same instant while the
    fleet is at ``max_hosts``; the run used to hang at t = 1,366.94 s."""
    simulation = (Simulation.from_scenario("smoke", policy="reservation",
                                           seed=319, num_sessions=15,
                                           duration_hours=0.5)
                  .with_config(cluster_config=ClusterConfig(
                      initial_hosts=4, min_hosts=1, max_hosts=5)))
    with pytest.raises(SimulationError, match="livelock.* 1366.94"):
        simulation.run()


def test_determinism_same_structure_same_schedule():
    def build_and_run():
        env = Environment()
        order = []

        def worker(name, delay):
            yield delay
            order.append(name)

        for name, delay in [("x", 1.0), ("y", 1.0), ("z", 0.5)]:
            env.process(worker(name, delay))
        env.run()
        return order

    assert build_and_run() == build_and_run()
