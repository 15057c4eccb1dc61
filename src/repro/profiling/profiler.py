"""The :class:`Profiler`: hook-bus instrumentation for simulation runs.

A profiler measures *where a run's wall-clock time goes* and *what the run
dispatched*, without touching the simulation timeline:

* **phases** — wall seconds per named phase.  ``replay`` is measured
  between the ``RUN_START`` and ``RUN_END`` hooks; the
  :class:`~repro.api.Simulation` builder adds ``trace_build`` and
  ``platform_build`` around trace generation and platform wiring when a
  profiler is attached (see :meth:`Profiler.phase`).
* **event-class counters** — every ``PLATFORM_EVENT`` publication is
  counted by its :class:`~repro.metrics.collector.EventKind`, and every
  lifecycle topic (task submit/complete, placement decisions, migrations,
  scale events, ...) by topic name.
* **engine dispatch counters** — the run-scoped delta of
  :meth:`Environment.dispatch_stats` (queue entries dispatched, fused
  same-timestamp batches, heap serials), published by the platform in the
  ``RUN_END`` stats payload.

Everything is collected through :class:`~repro.api.hooks.HookBus`
subscriptions made by :meth:`Profiler.attach`; a run without a profiler
attached executes exactly zero profiler code.
"""

from __future__ import annotations

import json
import time as _wallclock
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.api.hooks import (
    PLATFORM_EVENT,
    RUN_END,
    RUN_START,
    TOPICS,
    HookBus,
)

__all__ = ["ProfileReport", "Profiler"]


@dataclass
class ProfileReport:
    """One run's profile: phases, counters, and derived rates."""

    policy: str = "unknown"
    trace_name: str = "unknown"
    #: Wall seconds per phase (``replay`` always present; ``trace_build``
    #: and ``platform_build`` when the run went through ``Simulation``).
    phases: Dict[str, float] = field(default_factory=dict)
    #: Engine dispatch counters for the run (delta of
    #: ``Environment.dispatch_stats``).
    dispatch: Dict[str, int] = field(default_factory=dict)
    #: Discrete platform events by ``EventKind`` value.
    event_counts: Dict[str, int] = field(default_factory=dict)
    #: Lifecycle hook publications by topic name.
    hook_counts: Dict[str, int] = field(default_factory=dict)
    #: Run-scoped cache counters (currently the statesync AST cache).
    ast_cache: Dict[str, int] = field(default_factory=dict)
    #: Peak process memory at run end (``peak_rss_bytes`` always on POSIX,
    #: ``peak_traced_bytes`` when tracemalloc is running) — see
    #: :func:`repro.profiling.memory_stats`.
    memory: Dict[str, int] = field(default_factory=dict)
    #: Simulated seconds covered by the run.
    sim_time_s: float = 0.0

    # ------------------------------------------------------------------
    # Derived rates.
    # ------------------------------------------------------------------
    @property
    def wall_time_s(self) -> float:
        """Total wall time across the measured phases."""
        return sum(self.phases.values())

    @property
    def events_per_sec(self) -> float:
        """Dispatched queue entries per replay wall second."""
        replay = self.phases.get("replay", 0.0)
        if replay <= 0:
            return 0.0
        return self.dispatch.get("dispatched", 0) / replay

    @property
    def batch_fusion(self) -> float:
        """Mean entries dispatched per fused same-timestamp batch."""
        batches = self.dispatch.get("batches", 0)
        if batches <= 0:
            return 0.0
        return self.dispatch.get("dispatched", 0) / batches

    def to_dict(self) -> Dict[str, Any]:
        return {
            "policy": self.policy,
            "trace_name": self.trace_name,
            "phases": dict(self.phases),
            "dispatch": dict(self.dispatch),
            "event_counts": dict(self.event_counts),
            "hook_counts": dict(self.hook_counts),
            "ast_cache": dict(self.ast_cache),
            "memory": dict(self.memory),
            "sim_time_s": self.sim_time_s,
            "derived": {
                "wall_time_s": round(self.wall_time_s, 3),
                "events_per_sec": round(self.events_per_sec, 1),
                "batch_fusion": round(self.batch_fusion, 3),
            },
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    def format(self) -> str:
        """Human-readable multi-line summary (what the CLI prints)."""
        lines = [f"profile: {self.trace_name} / {self.policy}"]
        lines.append("  phases:")
        for name, seconds in self.phases.items():
            lines.append(f"    {name:<16} {seconds:>9.3f} s")
        lines.append(f"    {'total':<16} {self.wall_time_s:>9.3f} s"
                     f"   (simulated {self.sim_time_s:,.0f} s)")
        d = self.dispatch
        if d:
            lines.append(
                f"  dispatch: {d.get('dispatched', 0):,} entries in "
                f"{d.get('batches', 0):,} batches "
                f"(fusion {self.batch_fusion:.2f}x), "
                f"{self.events_per_sec:,.0f} entries/s")
            lines.append(f"            {d.get('serials', 0):,} heap serials")
        if self.ast_cache:
            lines.append(f"  ast cache: {self.ast_cache.get('hits', 0):,} hits"
                         f" / {self.ast_cache.get('misses', 0):,} misses")
        if self.memory:
            parts = [f"peak rss {self.memory['peak_rss_bytes'] / 2**20:,.1f} MB"
                     if "peak_rss_bytes" in self.memory else None,
                     f"peak traced {self.memory['peak_traced_bytes'] / 2**20:,.1f} MB"
                     if "peak_traced_bytes" in self.memory else None]
            lines.append("  memory: " + ", ".join(p for p in parts if p))
        if self.event_counts:
            lines.append("  platform events:")
            width = max(len(k) for k in self.event_counts)
            for kind, count in sorted(self.event_counts.items(),
                                      key=lambda kv: (-kv[1], kv[0])):
                lines.append(f"    {kind:<{width}}  {count:>10,}")
        if self.hook_counts:
            lines.append("  lifecycle hooks:")
            width = max(len(k) for k in self.hook_counts)
            for topic, count in sorted(self.hook_counts.items(),
                                       key=lambda kv: (-kv[1], kv[0])):
                lines.append(f"    {topic:<{width}}  {count:>10,}")
        return "\n".join(lines)


class Profiler:
    """Collects :class:`ProfileReport`\\ s from hook-instrumented runs.

    Attach once (directly via :meth:`attach`, or through
    ``Simulation.with_profiler``); each completed run appends a report to
    :attr:`reports`.  The profiler's callbacks are plain counters — they
    never interact with the simulation environment, so instrumented runs
    are bit-identical to bare ones.
    """

    def __init__(self) -> None:
        self.reports: List[ProfileReport] = []
        self._phases: Dict[str, float] = {}
        self._hook_counts: Dict[str, int] = {}
        self._event_counts: Dict[str, int] = {}
        self._replay_started: Optional[float] = None
        self._sim_started = 0.0
        self._attached: Optional[HookBus] = None
        self._subscriptions: List[tuple] = []

    @property
    def last(self) -> Optional[ProfileReport]:
        """The most recent completed run's report, if any."""
        return self.reports[-1] if self.reports else None

    # ------------------------------------------------------------------
    # Attachment.
    # ------------------------------------------------------------------
    def attach(self, bus: HookBus) -> "Profiler":
        """Subscribe this profiler's counters to ``bus``.

        Idempotent for the same bus; attaching to a *different* bus first
        detaches from the previous one, so one profiler can accumulate
        reports across several ``Simulation`` objects (each creates its
        own hook bus) without double-counting.
        """
        if self._attached is bus:
            return self
        if self._attached is not None:
            self.detach()
        self._attached = bus
        counts = self._hook_counts
        subscriptions = self._subscriptions
        for topic in TOPICS:
            if topic == RUN_START:
                callback: Any = self._on_run_start
            elif topic == RUN_END:
                callback = self._on_run_end
            elif topic == PLATFORM_EVENT:
                callback = self._on_platform_event
            else:
                def callback(*_payload, _topic=topic, _counts=counts) -> None:
                    _counts[_topic] = _counts.get(_topic, 0) + 1
            bus.subscribe(topic, callback)
            subscriptions.append((topic, callback))
        return self

    def detach(self) -> None:
        """Unsubscribe from the currently attached bus (no-op if none)."""
        bus = self._attached
        if bus is None:
            return
        for topic, callback in self._subscriptions:
            bus.unsubscribe(topic, callback)
        self._subscriptions.clear()
        self._attached = None

    # ------------------------------------------------------------------
    # Phase measurement (used by Simulation around build steps).
    # ------------------------------------------------------------------
    @contextmanager
    def phase(self, name: str):
        """Measure a wall-clock phase; times accumulate under ``name``."""
        started = _wallclock.monotonic()
        try:
            yield
        finally:
            elapsed = _wallclock.monotonic() - started
            self._phases[name] = self._phases.get(name, 0.0) + elapsed

    # ------------------------------------------------------------------
    # Hook callbacks.
    # ------------------------------------------------------------------
    def _on_run_start(self, platform, trace) -> None:
        self._replay_started = _wallclock.monotonic()
        self._sim_started = platform.env.now

    def _on_platform_event(self, time, kind, detail) -> None:
        key = getattr(kind, "value", str(kind))
        self._event_counts[key] = self._event_counts.get(key, 0) + 1

    def _on_run_end(self, platform, result, stats) -> None:
        phases = dict(self._phases)
        if self._replay_started is not None:
            phases["replay"] = _wallclock.monotonic() - self._replay_started
        report = ProfileReport(
            policy=getattr(platform.policy, "name", "unknown"),
            trace_name=result.trace_name,
            phases=phases,
            dispatch=dict(stats.get("dispatch", {})),
            event_counts=dict(self._event_counts),
            hook_counts=dict(self._hook_counts),
            ast_cache={"hits": stats.get("ast_cache_hits", 0),
                       "misses": stats.get("ast_cache_misses", 0)},
            memory=dict(stats.get("memory", {})),
            sim_time_s=platform.env.now - self._sim_started,
        )
        self.reports.append(report)
        # Reset per-run accumulators so a reused profiler (sweeps, repeated
        # Simulation.run) starts every run from zero.  Cleared *in place*:
        # the per-topic counting closures bound the dict objects at attach
        # time, so rebinding would orphan them.
        self._phases.clear()
        self._hook_counts.clear()
        self._event_counts.clear()
        self._replay_started = None
