"""The lifecycle hook bus: pluggable instrumentation without core edits.

A :class:`HookBus` is a synchronous publish/subscribe fan-out for platform
lifecycle events.  The platform (and the components it wires — the Global
Scheduler, the checkpoint manager) publishes every notable occurrence as a
*plain function call*: callbacks run inline, create no simulation events, and
never advance or touch the simulation clock.  That guarantee is what keeps
instrumented runs bit-identical to bare ones — the golden-metrics digests and
the serial-vs-parallel determinism suite pin it.

Subscribers are invoked in subscription order, and the platform always seats
its :class:`~repro.metrics.collector.MetricsCollector` adapter first, so
custom hooks observe a collector that already reflects the event being
published.

Topics and payloads (all positional):

=====================  ====================================================
topic                  payload
=====================  ====================================================
``RUN_START``          ``(platform, trace)``
``RUN_END``            ``(platform, result, stats)`` — ``stats`` is a dict
                       of run-scoped counters (e.g. AST-cache hits/misses)
``SESSION_START``      ``(time, session)`` — the :class:`SessionTrace`
``SESSION_END``        ``(time, session)``
``TASK_SUBMIT``        ``(time, session, task, metrics)``
``TASK_COMPLETE``      ``(time, session, task, metrics)``
``PLACEMENT_DECISION`` ``(time, kernel_id, decision)`` — a
                       :class:`~repro.core.placement.PlacementDecision`
``CHECKPOINT``         ``(time, kernel_id, name, size_bytes)``
``MIGRATION``          ``(time, kernel_id, source_host, target_host)``
``SCALE_OUT``          ``(time, num_hosts, reason)``
``SCALE_IN``           ``(time, num_hosts)``
``PLATFORM_EVENT``     ``(time, kind, detail)`` — every discrete
                       :class:`~repro.metrics.collector.EventKind` record;
                       this is the topic the metrics collector subscribes to
``QOS_BREACH``         ``(time, target, detail)`` — a QoS target entered its
                       breached state (``target`` is the target name,
                       ``detail`` a plain dict; see :mod:`repro.qos`)
``QOS_RECOVER``        ``(time, target, detail)`` — a breached QoS target
                       recovered through its hysteresis band
``QOS_ACTION``         ``(time, target, action, detail)`` — a QoS controller
                       fired a mitigation action
=====================  ====================================================

Example — count migrations without touching core code::

    from repro.api import HookBus, MIGRATION, Simulation

    moved = []
    sim = (Simulation.from_scenario("smoke")
           .on(MIGRATION, lambda t, kernel, src, dst: moved.append(kernel)))
    result = sim.run()
"""

from __future__ import annotations

from typing import Callable, Dict, List

# -- topic names -------------------------------------------------------
RUN_START = "run_start"
RUN_END = "run_end"
SESSION_START = "session_start"
SESSION_END = "session_end"
TASK_SUBMIT = "task_submit"
TASK_COMPLETE = "task_complete"
PLACEMENT_DECISION = "placement_decision"
CHECKPOINT = "checkpoint"
MIGRATION = "migration"
SCALE_OUT = "scale_out"
SCALE_IN = "scale_in"
PLATFORM_EVENT = "platform_event"
QOS_BREACH = "qos_breach"
QOS_RECOVER = "qos_recover"
QOS_ACTION = "qos_action"

#: Every topic the platform publishes, in documentation order.
TOPICS = (RUN_START, RUN_END, SESSION_START, SESSION_END, TASK_SUBMIT,
          TASK_COMPLETE, PLACEMENT_DECISION, CHECKPOINT, MIGRATION,
          SCALE_OUT, SCALE_IN, PLATFORM_EVENT, QOS_BREACH, QOS_RECOVER,
          QOS_ACTION)

HookCallback = Callable[..., None]


class HookBus:
    """Synchronous, ordered publish/subscribe for platform lifecycle events.

    Publishing to a topic with no subscribers costs one dictionary lookup, so
    the platform can publish unconditionally from hot paths.  Callbacks must
    not interact with the simulation environment (no ``env.process``, no
    event creation): the bus adds **zero events to the simulation timeline**
    by construction, and instrumented runs stay bit-identical to bare runs.
    Subscribing or unsubscribing from inside a callback is undefined
    behaviour for the in-flight publish.
    """

    __slots__ = ("_subscribers",)

    def __init__(self) -> None:
        self._subscribers: Dict[str, List[HookCallback]] = {}

    # ------------------------------------------------------------------
    # Subscription.
    # ------------------------------------------------------------------
    def subscribe(self, topic: str, callback: HookCallback,
                  first: bool = False) -> HookCallback:
        """Append ``callback`` to ``topic``'s subscriber list.

        ``first=True`` *prepends* instead — the platform uses it to seat the
        metrics-collector adapter ahead of any hooks subscribed before the
        platform was built.  Returns the callback so the call can be used as
        a decorator::

            @bus.subscribe_to(MIGRATION)  # or: bus.subscribe(MIGRATION, fn)
        """
        if topic not in TOPICS:
            raise ValueError(f"unknown hook topic {topic!r}; choose from "
                             f"{', '.join(TOPICS)}")
        subscribers = self._subscribers.setdefault(topic, [])
        if first:
            subscribers.insert(0, callback)
        else:
            subscribers.append(callback)
        return callback

    def subscribe_to(self, topic: str) -> Callable[[HookCallback], HookCallback]:
        """Decorator form of :meth:`subscribe`."""
        def decorator(callback: HookCallback) -> HookCallback:
            return self.subscribe(topic, callback)
        return decorator

    def unsubscribe(self, topic: str, callback: HookCallback) -> bool:
        """Remove one subscription; returns whether it was present."""
        subscribers = self._subscribers.get(topic)
        if subscribers and callback in subscribers:
            subscribers.remove(callback)
            return True
        return False

    def subscriber_count(self, topic: str) -> int:
        return len(self._subscribers.get(topic, ()))

    # ------------------------------------------------------------------
    # Publishing.
    # ------------------------------------------------------------------
    def publish(self, topic: str, *payload) -> None:
        """Invoke every subscriber of ``topic`` synchronously, in order."""
        subscribers = self._subscribers.get(topic)
        if subscribers:
            for callback in subscribers:
                callback(*payload)
