"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.simulation import (
    AllOf,
    AnyOf,
    Environment,
    Interrupt,
    SimulationError,
    Store,
    PriorityStore,
    Resource,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(5.0)
        return env.now

    process = env.process(proc())
    result = env.run(until=process)
    assert result == 5.0
    assert env.now == 5.0


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


@pytest.mark.parametrize("entry", ["timeout", "at", "defer", "schedule",
                                   "run"])
def test_nan_time_rejected(entry):
    # NaN compares false with everything, so each check is written to fail
    # on it: it raises the error the entry point raises for a past time.
    env = Environment()
    nan = float("nan")
    calls = {
        "timeout": (ValueError, lambda: env.timeout(nan)),
        "at": (ValueError, lambda: env.at(nan)),
        "defer": (SimulationError, lambda: env.defer(nan, lambda _: None)),
        "schedule": (SimulationError, lambda: env.schedule(env.event(), nan)),
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
        yield env.timeout(delay)
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
            yield env.timeout(1.0)
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
        yield env.timeout(2.0)
        event.succeed("payload")

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert results == ["payload"]


def test_event_fail_raises_in_waiter():
    env = Environment()
    event = env.event()

    def waiter():
        with pytest.raises(RuntimeError, match="boom"):
            yield event
        return "handled"

    def trigger():
        yield env.timeout(1.0)
        event.fail(RuntimeError("boom"))

    process = env.process(waiter())
    env.process(trigger())
    assert env.run(until=process) == "handled"


def test_event_cannot_trigger_twice():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(RuntimeError):
        event.succeed(2)


def test_process_return_value_propagates_to_waiters():
    env = Environment()

    def child():
        yield env.timeout(1.0)
        return 42

    def parent():
        value = yield env.process(child())
        return value * 2

    process = env.process(parent())
    assert env.run(until=process) == 84


def test_process_exception_propagates_to_waiters():
    env = Environment()

    def child():
        yield env.timeout(1.0)
        raise ValueError("child failed")

    def parent():
        try:
            yield env.process(child())
        except ValueError as exc:
            return str(exc)

    process = env.process(parent())
    assert env.run(until=process) == "child failed"


def test_yielding_non_event_fails_the_process():
    env = Environment()

    def bad():
        yield "not-an-event"

    def parent():
        with pytest.raises(SimulationError):
            yield env.process(bad())
        return "ok"

    process = env.process(parent())
    assert env.run(until=process) == "ok"


def test_yielding_number_sleeps():
    """``yield delay`` is the allocation-free equivalent of a timeout."""
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

    def parent():
        with pytest.raises(SimulationError):
            yield env.process(bad())
        return "ok"

    process = env.process(parent())
    assert env.run(until=process) == "ok"


def test_number_sleep_schedules_identically_to_timeout():
    """Mixed timeout/number sleeps interleave in the same global order."""
    def run(use_numbers):
        env = Environment()
        order = []

        def worker(name, delay):
            if use_numbers:
                yield delay
            else:
                yield env.timeout(delay)
            order.append((name, env.now))

        for name, delay in [("a", 1.0), ("b", 1.0), ("c", 0.5), ("d", 1.5)]:
            env.process(worker(name, delay))
        env.run()
        return order

    assert run(True) == run(False)


def test_interrupt_wakes_sleeping_process():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100.0)
            log.append("slept")
        except Interrupt as interrupt:
            log.append(("interrupted", interrupt.cause, env.now))

    def interrupter(target):
        yield env.timeout(3.0)
        target.interrupt("wake up")

    target = env.process(sleeper())
    env.process(interrupter(target))
    env.run()
    assert log == [("interrupted", "wake up", 3.0)]


def test_interrupted_process_can_continue():
    env = Environment()

    def sleeper():
        try:
            yield env.timeout(100.0)
        except Interrupt:
            pass
        yield env.timeout(1.0)
        return env.now

    def interrupter(target):
        yield env.timeout(5.0)
        target.interrupt()

    target = env.process(sleeper())
    env.process(interrupter(target))
    assert env.run(until=target) == 6.0


def test_allof_waits_for_every_event():
    env = Environment()

    def proc():
        timeouts = [env.timeout(d, value=d) for d in (1.0, 3.0, 2.0)]
        yield AllOf(env, timeouts)
        return env.now

    process = env.process(proc())
    assert env.run(until=process) == 3.0


def test_anyof_returns_on_first_event():
    env = Environment()

    def proc():
        timeouts = [env.timeout(d, value=d) for d in (4.0, 1.5, 3.0)]
        yield AnyOf(env, timeouts)
        return env.now

    process = env.process(proc())
    assert env.run(until=process) == 1.5


def test_store_fifo_ordering():
    env = Environment()
    store = Store(env)
    received = []

    def producer():
        for i in range(3):
            yield env.timeout(1.0)
            store.put(i)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            received.append((item, env.now))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert received == [(0, 1.0), (1, 2.0), (2, 3.0)]


def test_store_get_before_put_blocks():
    env = Environment()
    store = Store(env)

    def consumer():
        item = yield store.get()
        return (item, env.now)

    def producer():
        yield env.timeout(7.0)
        store.put("late")

    consumer_proc = env.process(consumer())
    env.process(producer())
    assert env.run(until=consumer_proc) == ("late", 7.0)


def test_priority_store_orders_by_priority():
    env = Environment()
    store = PriorityStore(env)
    store.put("low", priority=10)
    store.put("high", priority=1)
    store.put("mid", priority=5)

    def consumer():
        items = []
        for _ in range(3):
            items.append((yield store.get()))
        return items

    process = env.process(consumer())
    assert env.run(until=process) == ["high", "mid", "low"]


def test_resource_limits_concurrency():
    env = Environment()
    resource = Resource(env, capacity=2)
    concurrency = []

    def worker():
        yield resource.request()
        concurrency.append(resource.in_use)
        yield env.timeout(1.0)
        resource.release()

    for _ in range(5):
        env.process(worker())
    env.run()
    assert max(concurrency) <= 2
    assert resource.in_use == 0


def test_resource_release_without_request_raises():
    env = Environment()
    resource = Resource(env, capacity=1)
    with pytest.raises(RuntimeError):
        resource.release()


def test_resource_resize_grants_waiters():
    env = Environment()
    resource = Resource(env, capacity=0)
    granted = []

    def worker():
        yield resource.request()
        granted.append(env.now)

    def grower():
        yield env.timeout(4.0)
        resource.resize(1)

    env.process(worker())
    env.process(grower())
    env.run()
    assert granted == [4.0]


def test_interrupt_while_waiting_ignores_stale_wakeup():
    """An interrupted process must not be woken by the event it abandoned."""
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(10.0)
            log.append(("woke-from-timeout", env.now))
        except Interrupt as interrupt:
            log.append(("interrupted", interrupt.cause, env.now))
        # Re-wait: the abandoned 10s timeout still fires at t=10 but must be
        # ignored as stale; only the new 20s sleep may resume the process.
        yield env.timeout(20.0)
        log.append(("woke-from-second", env.now))

    def interrupter(target):
        yield env.timeout(3.0)
        target.interrupt("migrate")

    target = env.process(sleeper())
    env.process(interrupter(target))
    env.run(until=target)
    assert log == [("interrupted", "migrate", 3.0), ("woke-from-second", 23.0)]


def test_interrupt_while_waiting_on_shared_event_leaves_event_intact():
    """Interrupting one waiter must not consume the event for other waiters."""
    env = Environment()
    shared = env.event()
    log = []

    def waiter(name):
        try:
            value = yield shared
            log.append((name, "got", value, env.now))
        except Interrupt:
            log.append((name, "interrupted", env.now))

    first = env.process(waiter("first"))
    env.process(waiter("second"))

    def driver():
        yield env.timeout(1.0)
        first.interrupt()
        yield env.timeout(1.0)
        shared.succeed("payload")

    env.process(driver())
    env.run()
    assert ("first", "interrupted", 1.0) in log
    assert ("second", "got", "payload", 2.0) in log


def test_unhandled_event_failure_escalates_from_run():
    """A failed event nobody waits on must not vanish silently."""
    env = Environment()
    event = env.event()

    def failer():
        yield env.timeout(1.0)
        event.fail(RuntimeError("nobody handles this"))

    env.process(failer())
    with pytest.raises(RuntimeError, match="nobody handles this"):
        env.run()


def test_defused_failure_does_not_escalate():
    """Setting defused marks the failure as handled out-of-band."""
    env = Environment()
    event = env.event()

    def failer():
        yield env.timeout(1.0)
        event.fail(RuntimeError("pre-acknowledged"))
        event.defused = True

    env.process(failer())
    env.run()  # must not raise
    assert event.defused and not event.ok


def test_waiter_defuses_failure_automatically():
    env = Environment()
    event = env.event()

    def waiter():
        try:
            yield event
        except RuntimeError:
            pass

    def failer():
        yield env.timeout(1.0)
        event.fail(RuntimeError("handled by waiter"))

    env.process(waiter())
    env.process(failer())
    env.run()  # the waiter absorbed the failure; nothing escalates
    assert event.defused


def test_uncaught_interrupt_kills_process_without_escalating():
    """Interrupt-to-death is cancellation, not an engine-level error."""
    env = Environment()

    def stubborn():
        yield env.timeout(100.0)  # never catches Interrupt

    target = env.process(stubborn())
    def killer():
        yield env.timeout(1.0)
        target.interrupt("shutdown")

    env.process(killer())
    env.run()  # must not raise
    assert not target.is_alive
    assert target.defused
    with pytest.raises(Interrupt):
        _ = target.value


def test_unhandled_process_crash_escalates_from_run():
    """A background process dying of a real bug surfaces at run()."""
    env = Environment()

    def crasher():
        yield env.timeout(1.0)
        raise ValueError("bug in background process")

    env.process(crasher())
    with pytest.raises(ValueError, match="bug in background process"):
        env.run()


def test_determinism_same_structure_same_schedule():
    def build_and_run():
        env = Environment()
        order = []

        def worker(name, delay):
            yield env.timeout(delay)
            order.append(name)

        for name, delay in [("x", 1.0), ("y", 1.0), ("z", 0.5)]:
            env.process(worker(name, delay))
        env.run()
        return order

    assert build_and_run() == build_and_run()
