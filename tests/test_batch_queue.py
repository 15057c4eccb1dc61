"""Batch's FCFS queue: only the head polls; followers park until handed it.

``BatchPolicy._acquire_host`` parks every job behind the head on its queue
ticket and hands the head to the next ticket when the head leaves.  The
oracle, :class:`PollingBatchPolicy`, is the plain loop in which every queued
job wakes every ``queue_poll_interval_s`` and polls only if it is at the
head.  Both must poll at the same instants and acquire hosts at the same
instants, except where the tie rule applies (see ``_acquire_host``); the
explicit tie cases below pin what each one does there.
"""

import hashlib
import json
from itertools import count

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.api import RunSpec, Simulation
from repro.policies.batch import BatchPolicy
from repro.simulation import Environment, Interrupt


class PollingBatchPolicy(BatchPolicy):
    """The oracle: every queued job wakes every interval, and only the
    head looks for a host.

    It also records each handoff, an instant at which the head left a
    non-empty queue, with the arrival time of the job that became the head,
    so a test can tell where the tie rule applies.
    """

    def __init__(self, queue_poll_interval_s: float = 5.0) -> None:
        super().__init__(queue_poll_interval_s)
        self._ticket_counter = count(1)
        self._arrivals = {}
        self.handoffs = []

    def _acquire_host(self, platform, gpus):
        ticket = next(self._ticket_counter)
        self._queue.append(ticket)
        self._arrivals[ticket] = platform.env.now
        try:
            while True:
                if self._queue[0] == ticket:
                    host = self._find_host(platform, gpus)
                    if host is not None:
                        return host
                yield self.queue_poll_interval_s
        finally:
            was_head = self._queue[0] == ticket
            self._queue.remove(ticket)
            if was_head and self._queue:
                self.handoffs.append(
                    (platform.env.now, self._arrivals[self._queue[0]]))


def on_later_grid(arrival: float, interval: float, instant: float) -> bool:
    """Whether ``instant`` is one of a job's poll-grid instants after its
    arrival, found with the float additions its sleeps would make."""
    wake = arrival + interval
    while wake < instant:
        wake += interval
    return wake == instant


def tie_rule_applies(oracle: PollingBatchPolicy) -> bool:
    """Whether some handoff of an oracle run landed on a later grid instant
    of the job it handed the head to.

    Each recorded instant is a point of the leaving head's own grid (the
    engine made its float additions) or an interrupt time; the new head's
    grid is replayed from its arrival.
    """
    interval = oracle.queue_poll_interval_s
    return any(on_later_grid(arrival, interval, instant)
               for instant, arrival in oracle.handoffs)


# ----------------------------------------------------------------------
# A stub platform with scripted capacity.
# ----------------------------------------------------------------------
class ScriptedCluster:
    """``most_idle_host`` over capacity that is a pure function of time.

    Free GPUs at ``now`` are the last scripted step at or before ``now``
    minus the GPUs of jobs holding at ``now``, each job holding over
    ``[acquired, acquired + hold)``.  So reads at one instant agree
    whatever order that instant's queue entries run in.  ``on_grant`` maps
    a grant's number to processes to interrupt from inside that poll,
    before the polling head gets its host and leaves.
    """

    def __init__(self, env, steps) -> None:
        self.env = env
        self.steps = sorted(steps)
        self.holds = []
        self.polls = []
        self.grants = 0
        self.on_grant = {}

    def most_idle_host(self, gpus):
        now = self.env.now
        self.polls.append(now)
        capacity = 0
        for time, value in self.steps:
            if time <= now:
                capacity = value
        held = sum(g for start, end, g in self.holds if start <= now < end)
        if capacity - held < gpus:
            return None
        for process in self.on_grant.get(self.grants, ()):
            process.interrupt("cancelled")
        self.grants += 1
        return self


class StubPlatform:
    """The two things ``_acquire_host`` reads: ``env`` and a cluster."""

    runstate = None

    def __init__(self, steps) -> None:
        self.env = Environment()
        self.cluster = ScriptedCluster(self.env, steps)
        self.tickets = []
        create = self.env.event

        def recording_event():
            ticket = create()
            self.tickets.append(ticket)
            return ticket

        self.env.event = recording_event


def replay(policy, jobs, steps, interrupts=(), on_grant=()):
    """Run ``jobs`` — ``(arrival, gpus, hold)`` each — through ``policy``.

    ``interrupts`` are ``(time, job index)`` pairs, and ``on_grant`` are
    ``(grant number, job index)`` pairs (see :class:`ScriptedCluster`).
    Returns the log of acquisitions and interrupts, the poll instants, and
    the platform.  The queue must be empty once the run ends.
    """
    platform = StubPlatform(steps)
    env = platform.env
    log = []

    def job(index, arrival, gpus, hold):
        try:
            yield env.at(arrival)
            yield from policy._acquire_host(platform, gpus)
        except Interrupt:
            log.append(("interrupted", index, env.now))
            return
        platform.cluster.holds.append((env.now, env.now + hold, gpus))
        log.append(("acquired", index, env.now))

    processes = [env.process(job(index, *spec))
                 for index, spec in enumerate(jobs)]

    def interrupter(time, index):
        yield env.at(time)
        processes[index].interrupt("cancelled")

    for time, index in interrupts:
        env.process(interrupter(time, index))
    for grant, index in on_grant:
        platform.cluster.on_grant.setdefault(grant, []).append(
            processes[index])
    env.run()
    assert not policy._queue
    return log, platform.cluster.polls, platform


# ----------------------------------------------------------------------
# Differential against the oracle.
# ----------------------------------------------------------------------
#: Instants on a 0.5 s lattice, so arrivals, capacity steps, interrupts and
#: poll grids often coincide, or tenths of a second, which floats cannot
#: hold exactly.
instants = (st.integers(0, 120).map(lambda n: n * 0.5)
            | st.integers(0, 600).map(lambda n: n * 0.1))
#: After every scripted step, enough capacity for any job, so queues drain.
FINAL_STEP = (100.0, 3)


@st.composite
def queue_scenarios(draw):
    interval = draw(st.sampled_from([5.0, 2.5, 0.7]))
    jobs = draw(st.lists(
        st.tuples(instants, st.integers(1, 3),
                  st.integers(1, 60).map(lambda n: n * 0.5)),
        min_size=1, max_size=8))
    steps = draw(st.lists(st.tuples(instants, st.integers(0, 3)),
                          max_size=4))
    victims = st.integers(0, len(jobs) - 1)
    interrupts = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            time = draw(instants)
        else:
            # A point of some job's poll grid, where it polls if it is the
            # head: the interrupt is queued before that poll runs.
            time = jobs[draw(victims)][0]
            for _ in range(draw(st.integers(0, 6))):
                time += interval
        interrupts.append((time, draw(victims)))
    # Interrupts queued from inside a poll that finds a host: a victim
    # queued right behind the head is handed the head before its interrupt
    # is delivered.
    on_grant = draw(st.lists(st.tuples(st.integers(0, 7), victims),
                             max_size=6))
    return interval, jobs, steps + [FINAL_STEP], interrupts, on_grant


@settings(max_examples=200, deadline=None)
@given(scenario=queue_scenarios())
def test_head_only_polling_matches_the_polling_oracle(scenario):
    interval, *inputs = scenario
    oracle = PollingBatchPolicy(interval)
    expected_log, expected_polls, _ = replay(oracle, *inputs)
    # Only inputs where the tie rule applies are excluded: there the new
    # head polls at the handoff instant, and the oracle's follower polls
    # then or one interval later depending on the order of the two queue
    # entries at that instant.  The explicit cases below cover them.
    assume(not tie_rule_applies(oracle))
    log, polls, _ = replay(BatchPolicy(interval), *inputs)
    assert log == expected_log
    assert polls == expected_polls


def test_interrupted_head_hands_off_on_the_followers_grid():
    jobs = [(0.0, 1, 5.0), (1.0, 1, 5.0)]
    steps = [(20.0, 1)]
    interrupts = [(7.0, 0)]
    expected = replay(PollingBatchPolicy(), jobs, steps, interrupts)
    log, polls, _ = replay(BatchPolicy(), jobs, steps, interrupts)
    assert (log, polls) == expected[:2]
    assert log == [("interrupted", 0, 7.0), ("acquired", 1, 21.0)]
    # The head polls on its grid; the follower first polls on its own grid
    # (arrival 1.0) at the first instant after the 7.0 s handoff.
    assert polls == [0.0, 5.0, 11.0, 16.0, 21.0]


def test_first_poll_after_a_handoff_lands_exactly_on_the_grid():
    # The follower sleeps from the 1.1 s handoff to exactly 0.2 + 5.0; a
    # relative sleep of (5.2 - 1.1) would wake it at 5.199999999999999.
    jobs = [(0.0, 1, 5.0), (0.2, 1, 5.0)]
    steps = [(5.0, 1)]
    interrupts = [(1.1, 0)]
    expected = replay(PollingBatchPolicy(), jobs, steps, interrupts)
    log, polls, _ = replay(BatchPolicy(), jobs, steps, interrupts)
    assert (log, polls) == expected[:2]
    assert polls == [0.0, 0.2 + 5.0]


def test_interrupted_parked_follower_leaves_the_queue():
    jobs = [(0.0, 1, 5.0), (1.0, 1, 5.0), (2.0, 1, 5.0)]
    steps = [(10.0, 2)]
    interrupts = [(3.0, 1)]
    expected = replay(PollingBatchPolicy(), jobs, steps, interrupts)
    log, polls, platform = replay(BatchPolicy(), jobs, steps, interrupts)
    assert (log, polls) == expected[:2]
    assert log == [("interrupted", 1, 3.0), ("acquired", 0, 10.0),
                   ("acquired", 2, 12.0)]
    # The interrupted follower was never handed the head.
    assert not platform.tickets[1].triggered


def test_follower_interrupted_after_handoff_before_resuming():
    """The interrupter wakes at 10.0 ahead of the head's poll there, so the
    interrupt is queued first; the head then gets a host and hands the head
    to job 1, whose interrupt lands before its ticket does.  Job 1 must pass
    the head straight on to job 2 without polling."""
    jobs = [(0.0, 1, 5.0), (1.0, 1, 5.0), (2.0, 1, 5.0)]
    steps = [(10.0, 3)]
    interrupts = [(10.0, 1)]
    expected = replay(PollingBatchPolicy(), jobs, steps, interrupts)
    log, polls, platform = replay(BatchPolicy(), jobs, steps, interrupts)
    assert (log, polls) == expected[:2]
    assert log == [("acquired", 0, 10.0), ("interrupted", 1, 10.0),
                   ("acquired", 2, 12.0)]
    assert polls == [0.0, 5.0, 10.0, 12.0]
    assert platform.tickets[1].triggered and platform.tickets[2].triggered


# ----------------------------------------------------------------------
# The tie rule.
# ----------------------------------------------------------------------
def _head_and_follower(policy, follower_first: bool, follower_delay: float):
    """A head polling from 0.0 and a follower arriving ``follower_delay``
    later; capacity for both from 10.0.  Returns the follower's acquire
    time.  Whichever process is created first schedules its first entry
    first, which orders the two jobs' entries at shared instants."""
    platform = StubPlatform([(10.0, 2)])
    env = platform.env
    acquired = {}

    def head():
        yield from policy._acquire_host(platform, 1)
        platform.cluster.holds.append((env.now, env.now + 60.0, 1))
        acquired["head"] = env.now

    def follower():
        yield follower_delay
        yield from policy._acquire_host(platform, 1)
        acquired["follower"] = env.now

    if follower_first:
        env.process(follower())
        env.process(head())
    else:
        env.process(head())
        env.process(follower())
    env.run()
    assert acquired["head"] == 10.0
    assert not policy._queue
    return acquired["follower"]


def test_follower_arriving_as_the_head_leaves_polls_one_interval_later():
    # The follower arrives at 10.0 ahead of the head's poll there, so it has
    # already looked at the queue when it is handed the head at 10.0.
    for policy in (BatchPolicy(), PollingBatchPolicy()):
        assert _head_and_follower(policy, True, 10.0) == 15.0


def test_phantom_tie_with_the_heads_entry_first_polls_at_the_instant():
    # Arrival 5.0 puts 10.0 on the follower's grid; the head's entry at
    # 10.0 runs first, so the old loop's follower also polls at 10.0.
    for policy in (BatchPolicy(), PollingBatchPolicy()):
        assert _head_and_follower(policy, False, 5.0) == 10.0


def test_phantom_tie_with_the_followers_entry_first_polls_at_the_instant():
    # The follower's entry at 10.0 runs before the head leaves: the old
    # loop's follower sleeps on to 15.0, while the new head polls at the
    # handoff instant.
    assert _head_and_follower(BatchPolicy(), True, 5.0) == 10.0
    assert _head_and_follower(PollingBatchPolicy(), True, 5.0) == 15.0


# ----------------------------------------------------------------------
# End to end on a contended trace.
# ----------------------------------------------------------------------
def _digest(result) -> str:
    canonical = json.dumps(result.collector.to_dict(), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def test_contended_replay_matches_the_polling_oracle():
    spec = RunSpec.from_scenario("cluster_scale", policy="batch", seed=3,
                                 num_sessions=500, duration_hours=1.0)
    runs = {}
    oracle = PollingBatchPolicy()
    for policy in (BatchPolicy(), oracle):
        simulation = Simulation.from_spec(spec).with_policy(policy)
        result = simulation.run()
        dispatched = simulation.platform.env.dispatch_stats()["dispatched"]
        runs[policy is oracle] = (_digest(result), dispatched)
    # A queue formed: hundreds of heads left with followers behind them.
    assert len(oracle.handoffs) > 500
    assert runs[False][0] == runs[True][0]
    assert runs[False][1] < runs[True][1]
