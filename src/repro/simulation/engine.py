"""The discrete-event simulation engine.

:class:`Environment` owns the simulation clock and the pending-entry queue.
:class:`Process` wraps a Python generator so that it can take part in the
simulation: the generator ``yield``\\ s a delay (a number of seconds) or an
:class:`~repro.simulation.events.Event`, and the process resumes when the
delay has passed or the event has been processed.

The engine is single-threaded and fully deterministic: two runs with the
same seeds and the same process structure produce identical schedules.

Dispatch order
--------------
Every scheduled entry is dispatched in ``(time, serial)`` order, where the
serial reflects scheduling order.  That contract is what the golden-metrics
digests and the serial-vs-parallel determinism suite pin.  Two lanes hold
the pending entries:

* **the heap** holds ``(time, serial, item)`` tuples for entries in the
  future.  A serial is minted only for these.
* **the same-time FIFO lane** holds entries scheduled at exactly the current
  time: process bootstraps, ``succeed``, process completions, zero-delay
  sleeps and ``defer`` calls.  They need no tuple and no serial, because
  FIFO order *is* serial order among entries scheduled at one instant.

Fused same-timestamp dispatch
-----------------------------
:meth:`Environment.run` dispatches one *batch* per distinct timestamp ``t``:
first every heap entry at ``t`` (scheduled before the clock reached ``t``,
so with smaller serials), then the FIFO lane, which may grow while it
drains.  The clock and the ``until`` bound are touched once per batch.  No
new entry can land ahead of the batch: scheduling at ``t`` goes to the FIFO
lane, and scheduling later goes to the heap behind ``t``.

A timestamp that dispatches more than :data:`SAME_TIME_BUDGET` entries is a
livelock (something reschedules itself at the same instant forever), and
:meth:`Environment.run` raises :class:`SimulationError` naming the time
instead of hanging.

A process that raises ends the run: the exception propagates out of
:meth:`Environment.run` unchanged.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import count
from types import GeneratorType
from typing import Any, Generator, Optional

from repro.simulation.events import _PROCESSED, Event, Timeout

#: The most entries one timestamp may dispatch before the run is declared
#: a livelock.  The largest same-timestamp batch measured in a replay is
#: 9,432 entries (``mega_scale``).
SAME_TIME_BUDGET = 1_000_000

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation engine and for livelocks."""


class _Call:
    """A bare scheduled callback: the cheapest possible queue entry.

    It has just the two slots the dispatch loop and :meth:`Process._resume`
    read (``_callbacks`` and a ``None`` ``_value``), so it dispatches like an
    event.  Used for process bootstraps and sleeps (each process's reusable
    stub) and for :meth:`Environment.defer`.
    """

    __slots__ = ("_callbacks", "_value")


class Process(Event):
    """A running simulation process, built by ``Environment.process()``.

    A process is itself an event: it triggers with the generator's return
    value when the generator finishes, so other processes can ``yield`` it to
    wait for completion.
    """

    # ``__weakref__`` lets tests and tools watch a process get freed.
    __slots__ = ("_name", "_generator", "_resume_cb", "_sleep_call",
                 "__weakref__")

    @property
    def name(self) -> str:
        """The process name (defaults to the generator's function name)."""
        return self._name or getattr(self._generator, "__name__", "process")

    @property
    def is_alive(self) -> bool:
        """Whether the process has not yet finished."""
        return not self._triggered

    def _resume(self, event: Any) -> None:
        # The hottest callback in the engine: every sleep and every event a
        # process waits on lands here.  A process is only ever woken by
        # what it waits on, so there is no stale wake-up to reject.
        try:
            target = self._generator.send(event._value)
        except StopIteration as stop:
            # The bound resume callback and the sleep stub both point back
            # at this process; dropping them leaves a finished process
            # cycle-free, so reference counting frees it.
            self._resume_cb = self._sleep_call = None
            self._triggered = True
            self._value = stop.value
            self.env._fifo.append(self)
            return

        cls = target.__class__
        if cls is float or cls is int:
            # ``yield delay``: reuse the process's sleep stub, which is never
            # queued while the process runs, so no allocation per sleep.
            if not target >= 0:  # NaN fails too
                raise SimulationError(
                    f"process {self.name!r} yielded a negative sleep: "
                    f"{target!r}")
            call = self._sleep_call
            call._callbacks = self._resume_cb
            env = self.env
            now = env._now
            time = now + target
            if time == now:
                env._fifo.append(call)
            else:
                heappush(env._heap, (time, env._mint(), call))
        elif cls is Timeout or isinstance(target, Event):
            cbs = target._callbacks
            if cbs is None:
                target._callbacks = self._resume_cb
            elif cbs is _PROCESSED:  # late waiter resumes now
                self._resume(target)
            elif type(cbs) is list:
                cbs.append(self._resume_cb)
            else:
                target._callbacks = [cbs, self._resume_cb]
        else:
            raise SimulationError(
                f"process {self.name!r} yielded non-event {target!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self._triggered else "alive"
        return f"<Process {self.name} {state}>"


class Environment:
    """Owns simulation time and the pending-entry queue.

    ``event``/``at``/``process``/``defer`` are *instance* attributes
    (closures created in ``__init__``) rather than methods, and they are the
    only constructors of :class:`Event`, :class:`Timeout`, :class:`Process`
    and the internal ``_Call``.  They are the simulator's hottest allocation
    sites: a closure call skips the bound-method allocation and the
    type-call/``__init__`` dispatch, writing the slots directly.
    """

    __slots__ = ("_now", "_counter", "_mint", "_serials", "_heap", "_fifo",
                 "event", "at", "process", "defer",
                 "_stat_disp", "_stat_batches")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        counter = count()
        self._counter = counter
        mint = counter.__next__
        self._mint = mint
        self._serials: dict[str, int] = {}
        heap: list[tuple] = []
        self._heap = heap
        fifo: Any = deque()
        self._fifo = fifo
        fifo_append = fifo.append
        self._stat_disp = 0
        self._stat_batches = 0

        def event(_new=Event.__new__, _cls=Event) -> Event:
            """Create an untriggered event bound to this environment."""
            e = _new(_cls)
            e.env = self
            e._callbacks = None
            e._value = None
            e._triggered = False
            return e

        self.event = event

        def at(time: float, value: Any = None,
               _new=Timeout.__new__, _cls=Timeout) -> Timeout:
            """An event that triggers at *absolute* simulation time ``time``.

            ``yield env.at(t)`` parks the process until exactly ``t``, with
            no float round-off from re-deriving a relative delay.  The
            request-path fast paths accumulate their per-hop delays into an
            absolute wake-up time with the same float additions the
            individual sleeps would make, then schedule one entry there.
            """
            now = self._now
            if not time >= now:  # NaN fails too
                raise ValueError(
                    f"cannot sleep until {time}: simulation time is already {now}")
            t = _new(_cls)
            t.env = self
            t._callbacks = None
            t._value = value
            t._triggered = True
            if time == now:
                fifo_append(t)
            else:
                heappush(heap, (time, mint(), t))
            return t

        self.at = at

        def process(generator: Generator[Any, Any, Any],
                    name: Optional[str] = None,
                    _new=Process.__new__, _cls=Process,
                    _call=_Call.__new__) -> Process:
            """Register ``generator`` as a new simulation process."""
            if type(generator) is not GeneratorType \
                    and not hasattr(generator, "send"):
                raise SimulationError(
                    f"process body must be a generator, "
                    f"got {type(generator).__name__}")
            p = _new(_cls)
            p.env = self
            p._callbacks = None
            p._triggered = False
            p._name = name
            p._generator = generator
            # Bind the resume callback once; it is registered on every event
            # this process waits for.  The bootstrap entry is the process's
            # sleep stub: popping it drives the first generator step through
            # the same path as any resume, and each ``yield delay`` reuses it.
            resume = p._resume
            p._resume_cb = resume
            stub = _call(_Call)
            stub._callbacks = resume
            stub._value = None
            p._sleep_call = stub
            fifo_append(stub)  # bootstrap runs at the current time
            return p

        self.process = process

        def defer(delay: float, fn, _new=_Call.__new__, _cls=_Call) -> None:
            """Call ``fn`` after ``delay`` seconds; no :class:`Event` is made.

            ``fn`` gets one throwaway argument (the queue stub) and is
            ordered exactly as an event scheduled at the same moment would
            be; nothing can wait on it.  Post-cell state replication
            (:meth:`StateSynchronizer.replicate`) schedules its Raft commit
            and each large-object write this way.
            """
            if not delay >= 0:  # NaN fails too
                raise SimulationError(
                    f"cannot schedule callback in the past: {delay}")
            c = _new(_cls)
            c._callbacks = fn
            c._value = None
            now = self._now
            time = now + delay
            if time == now:
                fifo_append(c)
            else:
                heappush(heap, (time, mint(), c))

        self.defer = defer

    @property
    def now(self) -> float:
        """Current simulation time, in seconds."""
        return self._now

    def next_serial(self, category: str = "") -> int:
        """A per-environment monotonic serial for ``category`` (1, 2, 3, ...).

        Identifiers minted from process-global counters embed the process's
        prior run history, so two runs of the same seeded experiment produce
        different ID strings depending on what ran before them.  Simulation
        components mint IDs from here instead: serials are scoped to one
        environment, keeping every run's output identical whether it executes
        first or fiftieth, serially or in a worker process.
        """
        value = self._serials.get(category, 0) + 1
        self._serials[category] = value
        return value

    def dispatch_stats(self) -> dict:
        """Cumulative dispatch counters.

        ``dispatched`` counts processed queue entries, ``batches`` counts
        fused same-timestamp batches (``dispatched / batches`` is the mean
        fusion factor), and ``serials`` counts heap entries ever scheduled
        (``dispatched - serials`` over a run is the same-time FIFO lane's
        share).  The :mod:`repro.profiling` subsystem snapshots these
        around a run.
        """
        # itertools.count exposes its next value only through __reduce__;
        # this is a cold introspection path.
        return {
            "dispatched": self._stat_disp,
            "batches": self._stat_batches,
            "serials": self._counter.__reduce__()[1][0],
        }

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until no entries remain), a time (run
        until the clock reaches it, dispatching everything at that time),
        or an :class:`Event` (run until it has been processed and return
        its value, leaving the rest queued).
        """
        if isinstance(until, Event):
            stop = until
            if stop._callbacks is _PROCESSED:
                return stop._value
            limit = _INF
        else:
            stop = None
            limit = _INF if until is None else float(until)
            if not limit >= self._now:  # NaN fails too
                raise SimulationError(
                    f"cannot run until {limit}: simulation time is already "
                    f"{self._now}")
        heap = self._heap
        fifo = self._fifo
        popleft = fifo.popleft
        n_disp = n_batches = 0
        try:
            while True:
                if fifo:
                    # Entries at the current time: only possible on entry
                    # to run(), because every batch drains the FIFO lane.
                    t = self._now
                elif heap and heap[0][0] <= limit:
                    t = self._now = heap[0][0]
                else:
                    break
                n_batches += 1
                cap = n_disp + SAME_TIME_BUDGET
                # Both lanes spell out the dispatch of one entry: a helper
                # would cost a call frame per entry on the hottest path.
                while heap and heap[0][0] == t:
                    event = heappop(heap)[2]
                    n_disp += 1
                    cbs = event._callbacks
                    event._callbacks = _PROCESSED
                    if cbs is not None:
                        if type(cbs) is list:
                            for callback in cbs:
                                callback(event)
                        else:
                            cbs(event)
                    if event is stop:
                        return stop._value
                while fifo:
                    if n_disp >= cap:
                        raise SimulationError(
                            f"livelock: more than {SAME_TIME_BUDGET:,} "
                            f"entries dispatched at simulation time {t}")
                    event = popleft()
                    n_disp += 1
                    cbs = event._callbacks
                    event._callbacks = _PROCESSED
                    if cbs is not None:
                        if type(cbs) is list:
                            for callback in cbs:
                                callback(event)
                        else:
                            cbs(event)
                    if event is stop:
                        return stop._value
        finally:
            self._stat_disp += n_disp
            self._stat_batches += n_batches
        if stop is not None:
            raise SimulationError(
                "event queue drained before the awaited event triggered")
        if limit != _INF:
            self._now = limit
        return None

    def run_until(self, time: float) -> int:
        """Epoch-bounded stepping: advance the clock to exactly ``time``.

        A resumable alternative to ``run(until=time)`` for callers that
        drive the simulation in fixed epochs (the shard runner steps every
        shard to the same barrier time with it).  Entries at exactly
        ``time`` are dispatched *in this epoch* — the bound is inclusive and
        a same-timestamp batch is never split across a boundary — so
        repeated ``run_until`` calls partition the timeline exactly like one
        unbounded run.  Returns the number of entries dispatched, the
        per-epoch progress signal the barrier frames carry.
        """
        before = self._stat_disp
        self.run(until=time)
        return self._stat_disp - before
