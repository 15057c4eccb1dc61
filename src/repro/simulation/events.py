"""Waitable event primitives for the discrete-event engine.

A process ``yield``\\ s an event and resumes, with the event's value, once
the engine has *processed* it: popped it from the queue and run its
callbacks.  The engine (:mod:`repro.simulation.engine`) owns the queue and
builds ``Event``\\ s and ``Timeout``\\ s through its ``event``/``at``
closures; this module defines the objects themselves.

Events never fail.  A process that raises ends the run (the exception
leaves :meth:`Environment.run <repro.simulation.engine.Environment.run>`
unchanged), so there is nothing to propagate to waiters.

Events are the simulator's most-allocated objects, so they are kept
allocation-light: ``__slots__`` everywhere, and a callback slot that holds
the single waiter directly and becomes a list only when a second waiter
registers.  ``succeed`` triggers at the current time, so it appends the
event straight to the environment's same-time FIFO lane: no serial, no
tuple, no heap operation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.simulation.engine import Environment


#: Stored in ``_callbacks`` once an event has been processed; it doubles as
#: the "processed" flag, so no separate boolean slot is needed.
_PROCESSED = object()


class Event:
    """A one-shot waitable event, built by ``Environment.event()``.

    An event starts untriggered.  :meth:`succeed` triggers it, which queues
    it at the current time; once the engine pops it, every registered
    callback runs and waiting processes resume with :attr:`value`.
    """

    __slots__ = ("env", "_callbacks", "_value", "_triggered")

    @property
    def triggered(self) -> bool:
        """Whether the event has been triggered (queued for processing)."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already run."""
        return self._callbacks is _PROCESSED

    @property
    def value(self) -> Any:
        """The value the event was triggered with."""
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event with ``value``."""
        if self._triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._triggered = True
        self._value = value
        self.env._fifo.append(self)  # triggers at the current time
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._callbacks is _PROCESSED else (
            "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.env.now:.3f}>"


class Timeout(Event):
    """An event born triggered at an absolute time: what ``env.at`` returns."""

    __slots__ = ()


class AllOf(Event):
    """Triggers once every child event has been processed.

    Its value is a dict from child event to that child's value.  One is
    built per fan-out (replica starts, the platform's session join).
    """

    __slots__ = ("events", "_completed")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        self.env = env
        self._callbacks = None
        self._value = None
        self._triggered = False
        if type(events) is not list:
            events = list(events)
        self.events = events
        self._completed: dict[Event, Any] = {}
        if not events:
            self.succeed({})
            return
        on_child = self._on_child
        for event in events:
            cbs = event._callbacks
            if cbs is _PROCESSED:
                on_child(event)
            elif cbs is None:
                event._callbacks = on_child
            elif type(cbs) is list:
                cbs.append(on_child)
            else:
                event._callbacks = [cbs, on_child]

    def _on_child(self, event: Event) -> None:
        completed = self._completed
        completed[event] = event._value
        if len(completed) == len(self.events):
            # _completed is never mutated after this, so it is handed out
            # as the value without a defensive copy.
            self.succeed(completed)
