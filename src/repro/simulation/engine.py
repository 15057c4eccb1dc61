"""The discrete-event simulation engine.

:class:`Environment` owns the simulation clock and the pending-event queue.
:class:`Process` wraps a Python generator so that it can participate in the
simulation: each time the generator ``yield``\\ s an :class:`~repro.simulation.events.Event`
the process suspends until that event is processed.

The engine is single-threaded and fully deterministic: two runs with the same
seeds and the same process structure produce identical schedules.

Dispatch order
--------------
Every scheduled entry is dispatched in ``(time, serial)`` order, where the
serial reflects scheduling order — exactly the order a single global
``(time, serial, item)`` heap would produce.  That contract is what the
golden-metrics digests and the serial-vs-parallel determinism suite pin;
every structure below is an *implementation* of it, never a relaxation.

Calendar queue
--------------
The pending-event queue is a three-tier calendar queue instead of one
global heap (this is the hottest data structure in the repository — the
90-day summer trace pops millions of entries):

* **same-time lane** — entries scheduled at exactly the current simulation
  time (process bootstraps, ``succeed``/``fail``, completions, interrupt
  deliveries, zero-delay timeouts) go to a plain FIFO deque: no heap
  entry, no ``(time, serial, item)`` tuple, no serial minted.  FIFO order
  *is* serial order for same-time entries, because serials are monotonic.
* **near-future buckets** — entries within ``num_buckets * bucket_width``
  seconds of the window base land in a fixed-width time bucket.  Future
  buckets are plain lists (schedule = ``append``, O(1), no comparisons);
  a bucket is heapified once, lazily, when the clock enters it, after
  which pops and same-bucket inserts are heap operations on a *small*
  heap.  Bucket placement ``int((t - base) / width)`` is monotonic in
  ``t``, so cross-bucket order is correct even at float boundaries.
* **overflow heap** — entries beyond the window go to an ordinary heap
  and migrate into the buckets when the window is re-based onto them.
  Far-future/irregular events (session starts hours ahead, multi-minute
  task durations, stale interrupted sleeps) pay one extra pop+append.

Fused same-timestamp dispatch
-----------------------------
The run loops dispatch one *batch* per distinct timestamp: all bucket
entries at that time, then the same-time FIFO (which may grow while it
drains), without re-entering the outer loop — the clock is written once
per batch and the ``until`` bound is checked once per batch.  New entries
cannot land ahead of the batch cursor: scheduling *at* the current time
goes to the FIFO (by definition after everything already queued at that
time, which holds smaller serials), and scheduling later goes to a
bucket/overflow position the batch has already passed.

Failed events whose exception nobody handled are re-raised out of the run
loop unless they are *defused* — see :class:`~repro.simulation.events.Event`.
"""

from __future__ import annotations

import heapq
from heapq import heapify, heappush
from itertools import count
from types import GeneratorType
from typing import Any, Generator, Iterable, Optional

from repro.simulation.events import _PROCESSED, Event, Interrupt, Timeout

#: Default calendar geometry.  The width is sized so the simulator's dense
#: short delays (network hops, processing delays, election latencies, sleeps
#: of a few seconds) spread across a handful of small buckets, while the
#: window (width * count = 256 s) still covers container cold starts and the
#: relaxed control-loop intervals without touching the overflow heap.
BUCKET_WIDTH = 0.25
NUM_BUCKETS = 1024


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation engine."""


class _Call:
    """A bare scheduled callback: the cheapest possible queue entry.

    Implements just enough of the event-dispatch protocol (``_callbacks``,
    ``_exception``, ``_value``) for the engine's dispatch loops —
    and for :meth:`Process._resume` — to treat it like a processed-on-pop
    event that succeeded with ``None``.  Used for process bootstrap,
    interrupt delivery, and deferred internal callbacks
    (:meth:`Environment.defer`), where a full :class:`Event` would be wasted
    allocation.
    """

    __slots__ = ("_callbacks", "_exception", "_value", "payload")

    # _exception/_value are real slots (not class-level constants): the
    # reusable per-process sleep stub is popped many times, and a slot read
    # beats an MRO lookup on every one of those pops.  ``payload`` is an
    # optional uninitialized slot for callbacks that need one argument
    # (e.g. the Interrupt instance an interrupt delivery will throw).

    def __init__(self, fn) -> None:
        self._callbacks = fn
        self._exception = None
        self._value = None


_call_new = _Call.__new__


class Process(Event):
    """A running simulation process.

    A process is itself an event: it triggers (with the generator's return
    value) when the generator finishes, so other processes can ``yield`` it to
    wait for completion.
    """

    # ``__weakref__`` lets tests and tools watch a process get freed.
    __slots__ = ("_name", "_generator", "_waiting_on", "_resume_cb",
                 "_sleep_call", "__weakref__")

    def __init__(self, env: "Environment", generator: Generator[Event, Any, Any],
                 name: Optional[str] = None) -> None:
        if type(generator) is not GeneratorType and not hasattr(generator, "send"):
            raise SimulationError(
                f"process body must be a generator, got {type(generator).__name__}")
        # Event.__init__ inlined: processes are created once per task/session.
        # _value is deliberately left unset — the completion paths always
        # write it (or _exception) before anything reads it.
        self.env = env
        self._callbacks = None
        self._exception = None
        self._triggered = False
        self.defused = False
        self._name = name
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        # Bind the resume callback once; it is registered on every event this
        # process ever waits for.  The bootstrap entry reuses it too: a _Call
        # looks like an event that succeeded with None, so popping it drives
        # the first generator step through the same fast path as any resume.
        resume = self._resume
        self._resume_cb = resume
        call = _Call(resume)
        # The bootstrap stub doubles as this process's reusable sleep stub:
        # a process waits on at most one sleep at a time, so once the stub
        # has been popped it can carry the next ``yield delay`` — zero
        # allocations per sleep in the steady state.
        self._sleep_call = call
        env._fifo.append(call)  # bootstrap runs at the current time

    @property
    def name(self) -> str:
        """The process name (defaults to the generator's function name)."""
        return self._name or getattr(self._generator, "__name__", "process")

    @property
    def is_alive(self) -> bool:
        """Whether the process has not yet finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield."""
        if self._triggered:
            return
        call = _Call(self._deliver_interrupt)
        call.payload = Interrupt(cause)
        self.env._fifo.append(call)  # delivery at the current time

    def _deliver_interrupt(self, call: _Call) -> None:
        if not self._triggered:
            self._step(throw=call.payload)

    def _resume(self, event: Event) -> None:
        # This is the hottest callback in the engine (every timeout tick and
        # message delivery lands here), so _step's body is inlined — one
        # Python call per resume instead of two — and the waiter
        # registration skips Event.add_callback for the empty-slot case.
        if self._triggered:
            return
        waiting = self._waiting_on
        if event is not waiting and waiting is not None:
            # A stale wake-up (e.g. the event we were interrupted away from).
            return
        # _waiting_on is deliberately NOT reset here: a finished process
        # ignores every further wake-up via the _triggered guard above, and
        # a process that keeps running overwrites it at its next yield.
        try:
            exc = event._exception  # noqa: SLF001 - engine-internal fast path
            if exc is None:
                target = self._generator.send(event._value)  # noqa: SLF001
            else:
                # The exception is about to be thrown at this process's
                # yield: from here on, handling it is this process's
                # responsibility.
                event.defused = True
                target = self._generator.throw(exc)
        except StopIteration as stop:
            # _finish inlined: trigger this process's completion event, and
            # drop the self-references (see _finish).
            self._resume_cb = self._sleep_call = None
            if not self._triggered:
                self._triggered = True
                self._value = stop.value
                self.env._fifo.append(self)
            return
        except Interrupt as interrupt:
            self._resume_cb = self._sleep_call = None
            if not self._triggered:
                self._triggered = True
                self._exception = interrupt
                # Deliberate cancellation, not an engine-level error.
                self.defused = True
                self.env._fifo.append(self)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate into waiters
            self._resume_cb = self._sleep_call = None
            if not self._triggered:
                self._triggered = True
                self._exception = exc
                self.env._fifo.append(self)
            return

        cls = target.__class__
        if cls is float or cls is int:
            # Sleep fast path: ``yield delay`` parks the process for ``delay``
            # seconds without allocating an Event at all — just the queue
            # stub.  Scheduling order is identical to
            # ``yield env.timeout(delay)``.
            if target >= 0:
                call = self._sleep_call
                if call._callbacks is _PROCESSED:
                    call._callbacks = self._resume_cb
                else:
                    # The stub is still pending in the queue (we were
                    # interrupted away from it); it must keep its identity so
                    # the stale-wake-up guard can reject it when it pops.
                    call = _Call(self._resume_cb)
                    self._sleep_call = call
                self._waiting_on = call  # type: ignore[assignment]
                # This is the hottest schedule site in the engine (every
                # sleep of every process): same-time sleeps take the FIFO
                # lane directly; the rest inlines the _put placement (a
                # second call frame costs more than the slot reads here).
                # Keep in sync with Environment._put.
                env = self.env
                now = env._now
                time = now + target
                if time == now:
                    env._fifo.append(call)
                else:
                    offset = time - env._base
                    if offset >= 0.0:
                        idx = int(offset * env._inv_width)
                        if idx < env._nbuckets:
                            entry = (time, env._mint(), call)
                            if idx > env._cur:
                                env._buckets[idx].append(entry)
                                if idx > env._max:
                                    env._max = idx
                            else:
                                heappush(env._inc, entry)
                        else:
                            heappush(env._overflow,
                                     (time, env._mint(), call))
                    else:
                        env._put(time, call)  # cold: window rebuild
            else:
                self._finish(exception=SimulationError(
                    f"process {self.name!r} yielded a negative sleep: {target!r}"))
        elif cls is Timeout or isinstance(target, Event):
            self._waiting_on = target
            cbs = target._callbacks  # noqa: SLF001 - add_callback inlined
            if cbs is None:
                target._callbacks = self._resume_cb
            elif cbs is _PROCESSED:  # late waiter resumes now
                self._resume(target)
            elif type(cbs) is list:
                cbs.append(self._resume_cb)
            else:
                target._callbacks = [cbs, self._resume_cb]
        else:
            self._finish(exception=SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"))

    def _step(self, send: Any = None, throw: Optional[BaseException] = None) -> None:
        try:
            if throw is not None:
                target = self._generator.throw(throw)
            else:
                target = self._generator.send(send)
        except StopIteration as stop:
            self._finish(value=stop.value)
            return
        except Interrupt as interrupt:
            self._finish(exception=interrupt)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate into waiters
            self._finish(exception=exc)
            return

        cls = target.__class__
        if cls is float or cls is int:
            # Cold path (one _step per interrupt delivery): delegate to the
            # shared helper rather than duplicating _resume's inline copy.
            self._park_for_sleep(target)
        elif isinstance(target, Event):
            self._waiting_on = target
            target.add_callback(self._resume_cb)
        else:
            self._finish(exception=SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"))

    def _park_for_sleep(self, delay) -> None:
        """Park this process for ``delay`` seconds (the ``yield number`` form).

        Single source of truth for the sleep-stub reuse rules; _resume
        inlines an identical copy for speed — keep the two in sync.
        """
        if delay >= 0:
            call = self._sleep_call
            if call._callbacks is _PROCESSED:
                call._callbacks = self._resume_cb
            else:
                # The stub is still pending in the queue (we were interrupted
                # away from it); it must keep its identity so the stale-wake-
                # up guard can reject it when it pops.
                call = _Call(self._resume_cb)
                self._sleep_call = call
            self._waiting_on = call  # type: ignore[assignment]
            env = self.env
            now = env._now
            time = now + delay
            if time == now:
                env._fifo.append(call)
            else:
                env._put(time, call)
        else:
            self._finish(exception=SimulationError(
                f"process {self.name!r} yielded a negative sleep: {delay!r}"))

    def _finish(self, value: Any = None, exception: Optional[BaseException] = None) -> None:
        # succeed()/fail() inlined: _finish runs once per completed process
        # and has already established that the event is untriggered.
        self._waiting_on = None
        # The bound resume callback and the sleep stub that carries it both
        # point back at this process; dropping them leaves a finished
        # process cycle-free, so reference counting frees it without the
        # cyclic garbage collector.  A stale stub still queued holds its own
        # reference to the bound method, and _resume ignores it once
        # _triggered is set.
        self._resume_cb = self._sleep_call = None
        if self._triggered:
            return
        self._triggered = True
        if exception is not None:
            self._exception = exception
            if isinstance(exception, Interrupt):
                # Dying of an uncaught Interrupt is deliberate cancellation
                # (an owner interrupting a loop it no longer needs), not an
                # error the engine should escalate.  Waiters still receive it.
                self.defused = True
        else:
            self._value = value
        self.env._fifo.append(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self._triggered else "alive"
        return f"<Process {self.name} {state}>"


class Environment:
    """Owns simulation time and the scheduled-event calendar queue.

    The factory helpers ``event``/``timeout``/``process`` are *instance*
    attributes (closures created in ``__init__``) rather than methods: the
    call sites are the hottest allocation points in the simulator, and a
    closure call skips both the per-call bound-method allocation and — for
    ``timeout`` and ``event`` — the type-call/``__init__`` dispatch, writing
    the slots directly.  Their behaviour is identical to calling the
    ``Timeout``/``Event``/``Process`` constructors.

    The current bucket is kept *sorted* (one C sort when the clock enters
    it) and drained through a cursor — a fused same-timestamp batch is a
    contiguous slice, dispatched with one list read per entry instead of a
    heappop.  Entries that land at or before the current bucket after it
    was sorted go to a small *incursion* heap (``_inc``); its entries
    always carry larger serials than same-time cursor entries, so draining
    cursor-then-incursion preserves exact ``(time, serial)`` order.

    ``bucket_width``/``num_buckets`` tune the calendar window (see the
    module docstring); the defaults fit the simulator's delay mix, and the
    engine tests shrink them to force bucket-boundary and rebase paths.
    """

    __slots__ = ("_now", "_counter", "_mint", "_serials",
                 "_fifo", "_buckets", "_cur", "_cur_list", "_pos", "_inc",
                 "_max", "_overflow",
                 "_base", "_inv_width", "_nbuckets", "_push", "_put",
                 "event", "timeout", "at", "process", "defer",
                 "_stat_disp", "_stat_batches",
                 "_stat_overflow", "_stat_rebases")

    def __init__(self, initial_time: float = 0.0,
                 bucket_width: float = BUCKET_WIDTH,
                 num_buckets: int = NUM_BUCKETS) -> None:
        now = float(initial_time)
        self._now = now
        counter = count()
        self._counter = counter
        mint = counter.__next__
        self._mint = mint
        self._serials: dict[str, int] = {}

        # Calendar-queue state (see the module docstring for the tiers).
        from collections import deque

        fifo: Any = deque()
        self._fifo = fifo
        buckets: list[list] = [[] for _ in range(num_buckets)]
        self._buckets = buckets
        self._cur = 0            # index of the current (sorted) bucket
        self._cur_list = buckets[0]
        self._pos = 0            # dispatch cursor into _cur_list
        inc: list[tuple] = []    # incursions at/before the current bucket
        self._inc = inc
        self._max = 0            # upper-bound hint of the highest nonempty bucket
        overflow: list[tuple] = []
        self._overflow = overflow
        self._base = now         # time of bucket 0's left edge
        inv_width = 1.0 / bucket_width
        self._inv_width = inv_width
        self._nbuckets = num_buckets
        self._stat_disp = 0
        self._stat_batches = 0
        self._stat_overflow = 0
        self._stat_rebases = 0

        push = self._schedule_entry
        self._push = push            # slot read beats a descriptor bind
        fifo_append = fifo.append

        def put(time: float, item: Any, _mint=mint, _heappush=heappush,
                _buckets=buckets, _inc=inc, _overflow=overflow,
                _inv_w=inv_width, _n=num_buckets) -> None:
            """Place a ``(time, serial, item)`` entry (``time > now``).

            Canonical tuple placement: an O(1) append for buckets past the
            current one; the incursion heap for the current bucket (and,
            after a stopped-early rebase, for times before it); the
            overflow heap beyond the window.  Immutable structure (the list objects, the
            geometry, the serial minter) is bound once as defaults; the
            ``timeout``/``at``/``defer`` closures inline this body to save
            their callers a frame — keep them in sync.
            """
            offset = time - self._base
            if offset >= 0.0:
                idx = int(offset * _inv_w)
                if idx < _n:
                    entry = (time, _mint(), item)
                    if idx > self._cur:
                        _buckets[idx].append(entry)
                        if idx > self._max:
                            self._max = idx
                    else:
                        _heappush(_inc, entry)
                else:
                    _heappush(_overflow, (time, _mint(), item))
            else:
                # time < base: only possible after run(until=t) stopped
                # short of a rebased window.  Re-anchor and place again.
                self._rebuild(time)
                put(time, item)

        self._put = put

        # NOTE: these closures mirror Timeout.__init__ / Event.__init__ in
        # events.py slot for slot, and inline ``put`` above; keep them in
        # sync.
        timeout_new = Timeout.__new__

        def timeout(delay: float, value: Any = None,
                    _new=timeout_new, _cls=Timeout, _mint=mint,
                    _heappush=heappush, _buckets=buckets, _inc=inc,
                    _overflow=overflow, _inv_w=inv_width,
                    _n=num_buckets) -> Timeout:
            """Create a timeout event that triggers after ``delay`` seconds."""
            if not delay >= 0:  # NaN fails too
                raise ValueError(f"negative timeout delay: {delay}")
            t = _new(_cls)
            t.env = self
            t.delay = delay
            t._callbacks = None
            t._value = value
            t._triggered = True
            now = self._now
            time = now + delay
            if time == now:
                fifo_append(t)
                return t
            offset = time - self._base
            if offset >= 0.0:
                idx = int(offset * _inv_w)
                if idx < _n:
                    entry = (time, _mint(), t)
                    if idx > self._cur:
                        _buckets[idx].append(entry)
                        if idx > self._max:
                            self._max = idx
                    else:
                        _heappush(_inc, entry)
                else:
                    _heappush(_overflow, (time, _mint(), t))
            else:
                push(time, t)  # cold: window rebuild
            return t

        self.timeout = timeout

        def at(time: float, value: Any = None,
               _new=timeout_new, _cls=Timeout, _mint=mint,
               _heappush=heappush, _buckets=buckets, _inc=inc,
               _overflow=overflow, _inv_w=inv_width,
               _n=num_buckets) -> Timeout:
            """A timeout that fires at *absolute* simulation time ``time``.

            ``yield env.at(t)`` parks the process until exactly ``t`` — no
            float round-off from re-deriving a relative delay.  The batched
            request-path fast paths accumulate their per-hop delays into an
            absolute wake-up time with the same float additions the
            individual sleeps performed, then schedule one event at that
            exact time: one queue entry instead of several, with
            bit-identical timestamps.
            """
            now = self._now
            if not time >= now:  # NaN fails too
                raise ValueError(
                    f"cannot sleep until {time}: simulation time is already {now}")
            t = _new(_cls)
            t.env = self
            t.delay = time - now
            t._callbacks = None
            t._value = value
            t._triggered = True
            if time == now:
                fifo_append(t)
                return t
            offset = time - self._base
            if offset >= 0.0:
                idx = int(offset * _inv_w)
                if idx < _n:
                    entry = (time, _mint(), t)
                    if idx > self._cur:
                        _buckets[idx].append(entry)
                        if idx > self._max:
                            self._max = idx
                    else:
                        _heappush(_inc, entry)
                else:
                    _heappush(_overflow, (time, _mint(), t))
            else:
                push(time, t)  # cold: window rebuild
            return t

        self.at = at

        event_new = Event.__new__

        def event(_new=event_new, _cls=Event) -> Event:
            """Create an untriggered event bound to this environment."""
            e = _new(_cls)
            e.env = self
            e._callbacks = None
            e._value = None
            e._exception = None
            e._triggered = False
            e.defused = False
            return e

        self.event = event

        process_new = Process.__new__

        def process(generator: Generator[Event, Any, Any],
                    name: Optional[str] = None,
                    _new=process_new, _cls=Process) -> Process:
            """Register ``generator`` as a new simulation process."""
            # Mirrors Process.__init__ slot for slot; keep the two in sync.
            if type(generator) is not GeneratorType \
                    and not hasattr(generator, "send"):
                raise SimulationError(
                    f"process body must be a generator, "
                    f"got {type(generator).__name__}")
            p = _new(_cls)
            p.env = self
            p._callbacks = None
            p._exception = None
            p._triggered = False
            p.defused = False
            p._name = name
            p._generator = generator
            p._waiting_on = None
            resume = p._resume
            p._resume_cb = resume
            call = _Call(resume)
            p._sleep_call = call
            fifo_append(call)
            return p

        self.process = process

        def defer(delay: float, fn, _new=_call_new, _cls=_Call, _mint=mint,
                  _heappush=heappush, _buckets=buckets, _inc=inc,
                  _overflow=overflow, _inv_w=inv_width,
                  _n=num_buckets) -> None:
            """Schedule a bare callback — no :class:`Event` is allocated.

            ``fn`` is invoked with one throwaway argument (the internal queue
            stub) after ``delay`` seconds, ordered exactly as an event
            scheduled at the same moment would be.  It is the
            allocation-light form of ``timeout(delay).add_callback(fn)``;
            nothing can wait on a deferred call.  Post-cell state
            replication (:meth:`StateSynchronizer.replicate`) schedules its
            Raft commit and each large-object write this way.
            """
            if not delay >= 0:  # NaN fails too
                raise SimulationError(
                    f"cannot schedule callback in the past: {delay}")
            c = _new(_cls)
            c._callbacks = fn
            c._exception = None
            c._value = None
            now = self._now
            time = now + delay
            if time == now:
                fifo_append(c)
                return
            offset = time - self._base
            if offset >= 0.0:
                idx = int(offset * _inv_w)
                if idx < _n:
                    entry = (time, _mint(), c)
                    if idx > self._cur:
                        _buckets[idx].append(entry)
                        if idx > self._max:
                            self._max = idx
                    else:
                        _heappush(_inc, entry)
                else:
                    _heappush(_overflow, (time, _mint(), c))
            else:
                push(time, c)  # cold: window rebuild

        self.defer = defer

    @property
    def now(self) -> float:
        """Current simulation time, in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Calendar-queue internals.
    # ------------------------------------------------------------------
    def _schedule_entry(self, time: float, item: Any) -> None:
        """Place ``item`` for dispatch at ``time`` (``time >= now``).

        Same-time entries go to the FIFO lane (no serial, no tuple, no heap
        operation — FIFO order is serial order because serials are
        monotonic); everything else is a ``(time, serial, item)`` tuple
        placed by the bound :attr:`_put` closure.  Serials are minted only
        for tuple entries, so relative order among them is exactly global
        scheduling order.
        """
        if time == self._now:
            self._fifo.append(item)
        else:
            self._put(time, item)

    def _rebuild(self, new_base: float) -> None:
        """Cold path: re-anchor the window at ``new_base`` (< current base).

        Every pending tuple entry — future buckets, the current bucket\'s
        undispatched suffix, the incursion heap — is folded into the
        overflow heap and the window is refilled from it, exactly as a
        rebase would.  Placement stays consistent with the (new) base, so
        dispatch order is unchanged.
        """
        overflow = self._overflow
        lst = self._cur_list
        del lst[:self._pos]          # drop the dispatched prefix
        self._pos = 0
        for bucket in self._buckets:
            if bucket:
                for entry in bucket:
                    heappush(overflow, entry)
                del bucket[:]
        inc = self._inc
        for entry in inc:
            heappush(overflow, entry)
        del inc[:]
        self._base = new_base
        self._cur = 0
        self._cur_list = self._buckets[0]
        self._max = 0
        self._refill()
        self._cur_list.sort()        # _cur == 0 asserts sorted form

    def _refill(self) -> None:
        """Migrate overflow entries that now fall inside the window."""
        overflow = self._overflow
        if not overflow:
            return
        base = self._base
        inv_w = self._inv_width
        n = self._nbuckets
        buckets = self._buckets
        mx = self._max
        migrated = 0
        while overflow:
            idx = int((overflow[0][0] - base) * inv_w)
            if idx >= n:
                break
            buckets[idx].append(heapq.heappop(overflow))
            migrated += 1
            if idx > mx:
                mx = idx
        self._max = mx
        self._stat_overflow += migrated

    def _advance_time(self) -> Optional[float]:
        """Time of the next tuple entry, readying its bucket; ``None`` if none.

        Leaves the cursor (``_cur``/``_cur_list``/``_pos``) and incursion
        heap positioned so their earliest entry is the next one.  Clears a
        drained bucket and sorts the next nonempty one; re-bases the window
        onto the overflow heap when the buckets are exhausted.  The FIFO
        lane is *not* consulted — callers order it explicitly (same-time
        tuple entries first, then FIFO).
        """
        lst = self._cur_list
        pos = self._pos
        inc = self._inc
        if pos < len(lst):
            t = lst[pos][0]
            if inc:
                ti = inc[0][0]
                if ti < t:
                    return ti
            return t
        if inc:
            return inc[0][0]
        # Current bucket (and its incursions) exhausted: clear and scan on.
        if lst:
            del lst[:]
            self._pos = 0
        buckets = self._buckets
        cur = self._cur + 1
        mx = self._max
        while cur <= mx:
            b = buckets[cur]
            if b:
                b.sort()
                self._cur = cur
                self._cur_list = b
                return b[0][0]
            cur += 1
        overflow = self._overflow
        if not overflow:
            return None
        # Rebase the window to start at the earliest overflow time; its
        # entry lands in bucket 0 by construction.
        self._stat_rebases += 1
        self._base = overflow[0][0]
        self._cur = 0
        b = buckets[0]
        self._cur_list = b
        self._max = 0
        self._refill()
        b.sort()
        return b[0][0]

    def _pop_tuple(self) -> Any:
        """Pop the earliest tuple entry (cursor vs incursion); cold path.

        Only :meth:`step` uses this — the run loops inline the same
        selection.  At equal times the cursor entry wins: incursions
        always carry larger serials than same-time cursor entries.
        """
        lst = self._cur_list
        pos = self._pos
        inc = self._inc
        if pos < len(lst):
            entry = lst[pos]
            if inc and inc[0][0] < entry[0]:
                return heapq.heappop(inc)[2]
            self._pos = pos + 1
            return entry[2]
        return heapq.heappop(inc)[2]

    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Schedule ``event`` for processing ``delay`` seconds from now."""
        if not delay >= 0:  # NaN fails too
            raise SimulationError(f"cannot schedule event in the past: {delay}")
        self._push(self._now + delay, event)

    def next_serial(self, category: str = "") -> int:
        """A per-environment monotonic serial for ``category`` (1, 2, 3, ...).

        Identifiers minted from process-global counters embed the process\'s
        prior run history, so two runs of the same seeded experiment produce
        different ID strings depending on what ran before them.  Simulation
        components mint IDs from here instead: serials are scoped to one
        environment, keeping every run\'s output identical whether it executes
        first or fiftieth, serially or in a worker process.
        """
        value = self._serials.get(category, 0) + 1
        self._serials[category] = value
        return value

    def dispatch_stats(self) -> dict:
        """Cumulative dispatch counters (engine-structural, always on).

        ``dispatched`` counts processed queue entries, ``batches`` counts
        fused same-timestamp dispatch iterations (``dispatched / batches``
        is the mean fusion factor), ``serials`` counts ``(time, serial,
        item)`` tuple entries ever scheduled (``dispatched - serials`` over
        a run approximates the same-time FIFO-lane share), ``overflow``
        counts entries scheduled beyond the calendar window and later
        migrated into it, and ``rebases`` counts window migrations onto
        the overflow heap.  The :mod:`repro.profiling` subsystem snapshots
        these around a run.
        """
        # itertools.count exposes its next value only through __reduce__;
        # this is a cold introspection path.
        serials = self._counter.__reduce__()[1][0]
        return {
            "dispatched": self._stat_disp,
            "batches": self._stat_batches,
            "serials": serials,
            "overflow": self._stat_overflow,
            "rebases": self._stat_rebases,
        }

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Process the next scheduled event."""
        t = self._advance_time()
        fifo = self._fifo
        if t is not None and t == self._now:
            # Tuple entries at the current time precede the FIFO lane:
            # they were scheduled earlier, with smaller serials.
            event = self._pop_tuple()
        elif fifo:
            event = fifo.popleft()
        elif t is not None:
            self._now = t
            event = self._pop_tuple()
        else:
            raise SimulationError("no more events to process")
        self._stat_disp += 1
        cbs = event._callbacks
        event._callbacks = _PROCESSED
        if cbs is not None:
            if type(cbs) is list:
                for callback in cbs:
                    callback(event)
            else:
                cbs(event)
        exc = event._exception
        if exc is not None and not event.defused:
            raise exc

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain.

        A pure read: unlike :meth:`_advance_time` it never sorts, clears,
        or re-bases anything, so it is safe to call from *inside* event
        callbacks while a run loop is mid-batch — the loop's cached cursor
        state stays valid.  (:meth:`step`/:meth:`run` themselves are not
        reentrant from callbacks.)
        """
        if self._fifo:
            return self._now
        lst = self._cur_list
        pos = self._pos
        inc = self._inc
        if pos < len(lst):
            t = lst[pos][0]
            if inc and inc[0][0] < t:
                return inc[0][0]
            return t
        if inc:
            return inc[0][0]
        buckets = self._buckets
        for cur in range(self._cur + 1, self._max + 1):
            b = buckets[cur]
            if b:
                # min() over (time, serial, item) tuples: time decides.
                return min(b)[0]
        overflow = self._overflow
        if overflow:
            return overflow[0][0]
        return float("inf")

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), a time (run
        until the clock reaches it), or an :class:`Event` (run until it has
        been processed, returning its value).

        Raises the exception of any failed event processed along the way
        whose failure nobody handled (see ``Event.defused``).
        """
        if isinstance(until, Event):
            return self._run_until_event(until)
        limit = float("inf") if until is None else float(until)
        if not limit >= self._now:  # NaN fails too
            raise SimulationError(
                f"cannot run until {limit}: simulation time is already {self._now}")
        # Hot loop: one fused batch per distinct timestamp — the clock and
        # the bound are touched once per batch, not once per event — with
        # _advance_time\'s fast path (cursor/incursion heads) inlined, so
        # its call only happens on bucket changes.  The cursor position
        # lives in a local and is committed in the ``finally``.
        fifo = self._fifo
        popleft = fifo.popleft
        pop = heapq.heappop
        inc = self._inc
        advance = self._advance_time
        unbounded = limit == float("inf")
        lst = self._cur_list
        pos = self._pos
        n_disp = n_batches = 0
        try:
            while True:
                if fifo:
                    # Entries at the current time (only possible on entry to
                    # run(): the batch body always drains the FIFO).
                    t = self._now
                elif pos < len(lst):
                    t = lst[pos][0]
                    if inc:
                        ti = inc[0][0]
                        if ti < t:
                            t = ti
                    if not unbounded and t > limit:
                        break
                    self._now = t
                elif inc:
                    t = inc[0][0]
                    if not unbounded and t > limit:
                        break
                    self._now = t
                else:
                    self._pos = pos
                    t = advance()
                    lst = self._cur_list
                    pos = self._pos
                    if t is None:
                        break
                    if not unbounded and t > limit:
                        break
                    self._now = t
                n_batches += 1
                # Cursor entries at t: a contiguous sorted slice — one list
                # read per entry.  All their serials precede same-time
                # incursions, which precede same-time FIFO entries.  The
                # slice is stable during the batch (same-time schedules go
                # to the FIFO, later ones to other structures), so its
                # length is hoisted.
                n_lst = len(lst)
                while pos < n_lst:
                    entry = lst[pos]
                    if entry[0] != t:
                        break
                    pos += 1
                    # Committed before the callback runs: peek() (legal
                    # from inside callbacks) reads the slot, not our local.
                    self._pos = pos
                    event = entry[2]
                    n_disp += 1
                    cbs = event._callbacks
                    event._callbacks = _PROCESSED
                    if cbs is not None:
                        if type(cbs) is list:
                            for callback in cbs:
                                callback(event)
                        else:
                            cbs(event)
                    exc = event._exception
                    if exc is not None and not event.defused:
                        raise exc
                while inc and inc[0][0] == t:
                    event = pop(inc)[2]
                    n_disp += 1
                    cbs = event._callbacks
                    event._callbacks = _PROCESSED
                    if cbs is not None:
                        if type(cbs) is list:
                            for callback in cbs:
                                callback(event)
                        else:
                            cbs(event)
                    exc = event._exception
                    if exc is not None and not event.defused:
                        raise exc
                while fifo:
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
                    exc = event._exception
                    if exc is not None and not event.defused:
                        raise exc
        finally:
            self._pos = pos
            self._stat_disp += n_disp
            self._stat_batches += n_batches
        if not unbounded:
            self._now = limit
        return None

    def run_until(self, time: float) -> int:
        """Epoch-bounded stepping: advance the clock to exactly ``time``.

        A resumable alternative to ``run(until=time)`` for callers that
        drive the simulation in fixed epochs (the shard runner steps every
        shard to the same barrier time with it).  Events scheduled at
        exactly ``time`` are dispatched *in this epoch* — the bound is
        inclusive and a same-timestamp batch is never split across a
        boundary — so repeated ``run_until`` calls partition the timeline
        exactly like one unbounded run.  Returns the number of events
        dispatched, the per-epoch progress signal the barrier frames carry.
        """
        before = self._stat_disp
        self.run(until=time)
        return self._stat_disp - before

    def _run_until_event(self, until: Event) -> Any:
        if until._callbacks is _PROCESSED:  # noqa: SLF001 - fast path
            return until.value
        # Mirrors run()\'s fused batch loop, with the awaited-event check
        # after every dispatch (events queued behind it stay queued).
        fifo = self._fifo
        popleft = fifo.popleft
        pop = heapq.heappop
        inc = self._inc
        advance = self._advance_time
        processed = _PROCESSED
        lst = self._cur_list
        pos = self._pos
        n_disp = n_batches = 0
        try:
            while True:
                if fifo:
                    t = self._now
                elif pos < len(lst):
                    t = lst[pos][0]
                    if inc:
                        ti = inc[0][0]
                        if ti < t:
                            t = ti
                    self._now = t
                elif inc:
                    t = inc[0][0]
                    self._now = t
                else:
                    self._pos = pos
                    t = advance()
                    lst = self._cur_list
                    pos = self._pos
                    if t is None:
                        raise SimulationError(
                            "event queue drained before the awaited "
                            "event triggered")
                    self._now = t
                n_batches += 1
                n_lst = len(lst)
                while pos < n_lst:
                    entry = lst[pos]
                    if entry[0] != t:
                        break
                    pos += 1
                    # Committed before the callback runs (see run()).
                    self._pos = pos
                    event = entry[2]
                    n_disp += 1
                    cbs = event._callbacks
                    event._callbacks = processed
                    if cbs is not None:
                        if type(cbs) is list:
                            for callback in cbs:
                                callback(event)
                        else:
                            cbs(event)
                    exc = event._exception
                    if exc is not None and not event.defused:
                        raise exc
                    if until._callbacks is processed:  # noqa: SLF001
                        return until.value
                while inc and inc[0][0] == t:
                    event = pop(inc)[2]
                    n_disp += 1
                    cbs = event._callbacks
                    event._callbacks = processed
                    if cbs is not None:
                        if type(cbs) is list:
                            for callback in cbs:
                                callback(event)
                        else:
                            cbs(event)
                    exc = event._exception
                    if exc is not None and not event.defused:
                        raise exc
                    if until._callbacks is processed:  # noqa: SLF001
                        return until.value
                while fifo:
                    event = popleft()
                    n_disp += 1
                    cbs = event._callbacks
                    event._callbacks = processed
                    if cbs is not None:
                        if type(cbs) is list:
                            for callback in cbs:
                                callback(event)
                        else:
                            cbs(event)
                    exc = event._exception
                    if exc is not None and not event.defused:
                        raise exc
                    if until._callbacks is processed:  # noqa: SLF001
                        return until.value
        finally:
            self._pos = pos
            self._stat_disp += n_disp
            self._stat_batches += n_batches

    def run_all(self, processes: Iterable[Process]) -> list[Any]:
        """Run until every process in ``processes`` has finished."""
        results = []
        for process in processes:
            results.append(self.run(until=process))
        return results
