"""The :class:`Telemetry` attachment: streaming observability for runs.

Like :class:`repro.profiling.Profiler`, a :class:`Telemetry` object attaches
to a run's :class:`~repro.api.hooks.HookBus` and observes the platform's
published lifecycle — it never touches the simulation environment, so an
instrumented run is bit-identical to a bare one and a run without telemetry
executes zero telemetry code.

What it maintains, all in fixed memory per stream:

* **windowed metric streams** (:class:`~repro.telemetry.streams.WindowedStream`)
  for the policy-relevant rates: ``task_submit`` / ``task_complete`` counts,
  ``interactivity`` (submit → start of user code), ``tct`` (submit →
  completion), ``sched_overhead`` (end-to-end minus user-code execution — the
  control plane's queueing/processing share), and ``placement`` (decisions
  per window; values are 1/0 for satisfied/degraded, so the window mean is
  the satisfaction rate);
* **trace spans** (:class:`~repro.telemetry.spans.TraceRecorder`, opt-in via
  ``spans=True``): run/session/task/kernel lifecycle spans with
  ``queue``/``execute`` children per task, plus checkpoint / migration /
  scale / failure instants — exportable as a Chrome ``trace_event`` file or
  a plain JSON timeline.

On ``RUN_END`` the attachment freezes everything into a
:class:`TelemetryReport` (JSON round-trippable, storable as a result-store
artifact) and inserts the windowed-stream snapshots into the ``RUN_END``
stats payload under ``stats["telemetry"]`` — the telemetry finalizer is
seated *first* on ``RUN_END``, so every other subscriber (including a
``.on(RUN_END, ...)`` user hook) observes the snapshots next to the
profiler's dispatch stats.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.hooks import (
    CHECKPOINT,
    MIGRATION,
    PLACEMENT_DECISION,
    PLATFORM_EVENT,
    RUN_END,
    RUN_START,
    SCALE_IN,
    SCALE_OUT,
    SESSION_END,
    SESSION_START,
    TASK_COMPLETE,
    TASK_SUBMIT,
    HookBus,
)
from repro.telemetry.spans import (
    CONTROL_TRACK,
    TraceRecorder,
    TraceSpan,
    chrome_trace,
    timeline_dict,
)
from repro.telemetry.streams import WindowedStream, WindowSnapshot

__all__ = ["Telemetry", "TelemetryReport", "DEFAULT_STREAMS"]

#: The streams an attachment maintains (all of them unless its ``streams``
#: argument keeps fewer), in report order.
DEFAULT_STREAMS = ("task_submit", "task_complete", "interactivity", "tct",
                   "sched_overhead", "placement")

#: Default streams that are pure rates (every sample is 1.0) — they run in
#: the counter fast path with no quantile sketch.
COUNTER_STREAMS = frozenset({"task_submit", "task_complete"})

#: Default streams fed from the ``TASK_COMPLETE`` hook.
_COMPLETION_STREAMS = ("task_complete", "interactivity", "tct",
                       "sched_overhead")


@dataclass
class TelemetryReport:
    """One run's frozen telemetry: stream snapshots and (optionally) spans."""

    policy: str = "unknown"
    trace_name: str = "unknown"
    window_s: float = 300.0
    sim_time_s: float = 0.0
    #: Serialized :class:`WindowedStream` snapshots, keyed by stream name.
    streams: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Span counts per category (always present, even with spans disabled).
    span_counts: Dict[str, int] = field(default_factory=dict)
    #: Serialized :class:`TraceSpan` records (empty unless ``spans=True``).
    spans: List[Dict[str, Any]] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    def overall(self, stream: str) -> Dict[str, Any]:
        """The run-level summary (count/min/max/mean/quantiles) of a stream."""
        return self.streams[stream]["overall"]

    def windows(self, stream: str) -> List[WindowSnapshot]:
        return [WindowSnapshot.from_dict(w)
                for w in self.streams[stream]["windows"]]

    def trace_spans(self) -> List[TraceSpan]:
        return [TraceSpan.from_dict(data) for data in self.spans]

    def chrome_trace(self) -> Dict[str, Any]:
        """The Chrome ``trace_event`` export (requires ``spans=True``)."""
        return chrome_trace(self.trace_spans(), trace_name=self.trace_name)

    def timeline(self) -> Dict[str, Any]:
        """The plain JSON timeline export (requires ``spans=True``)."""
        return timeline_dict(self.trace_spans(), trace_name=self.trace_name)

    # ------------------------------------------------------------------
    # Serialization.
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "policy": self.policy,
            "trace_name": self.trace_name,
            "window_s": self.window_s,
            "sim_time_s": self.sim_time_s,
            "streams": {name: dict(data)
                        for name, data in self.streams.items()},
            "span_counts": dict(self.span_counts),
            "spans": [dict(span) for span in self.spans],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TelemetryReport":
        return cls(policy=data["policy"], trace_name=data["trace_name"],
                   window_s=data["window_s"], sim_time_s=data["sim_time_s"],
                   streams=dict(data["streams"]),
                   span_counts=dict(data["span_counts"]),
                   spans=list(data["spans"]))

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    # ------------------------------------------------------------------
    # Formatting (what the CLI prints).
    # ------------------------------------------------------------------
    def format(self, stream: Optional[str] = None) -> str:
        lines = [f"telemetry: {self.trace_name} / {self.policy}  "
                 f"(window {self.window_s:g} s, "
                 f"simulated {self.sim_time_s:,.0f} s)"]
        width = max((len(name) for name in self.streams), default=8)
        for name, data in self.streams.items():
            overall = data["overall"]
            quantiles = " ".join(
                f"{label}={_fmt(overall.get(label))}"
                for label in data["quantile_labels"])
            windows = data["windows"]
            busy = sum(1 for w in windows if w["count"])
            lines.append(
                f"  {name:<{width}}  n={overall['count']:<9,} "
                f"mean={_fmt(overall['mean'])} {quantiles}  "
                f"[{busy}/{len(windows)} windows active]")
        if self.span_counts:
            counts = ", ".join(f"{category}={count}" for category, count
                               in sorted(self.span_counts.items()))
            lines.append(f"  spans: {counts}")
        if stream is not None:
            data = self.streams[stream]
            labels = data["quantile_labels"]
            lines.append(f"  {stream} windows:")
            header = "    {:>10} {:>10} {:>8} {:>10}".format(
                "start_s", "end_s", "count", "rate/s")
            header += "".join(f" {label:>10}" for label in labels)
            lines.append(header)
            for window in data["windows"]:
                row = "    {:>10.0f} {:>10.0f} {:>8,} {:>10.3f}".format(
                    window["start"], window["end"], window["count"],
                    window["rate_per_s"])
                row += "".join(
                    f" {_fmt(window['quantiles'].get(label)):>10}"
                    for label in labels)
                lines.append(row)
        return "\n".join(lines)


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value:.3f}"


class Telemetry:
    """Collects :class:`TelemetryReport`\\ s from hook-instrumented runs.

    Attach directly via :meth:`attach` or through
    ``Simulation.with_telemetry``.  Reuse across runs follows the profiler's
    contract: idempotent for the same bus, re-attaching to a different bus
    first detaches, and per-run state resets on every ``RUN_START``.

    ``streams`` picks which of :data:`DEFAULT_STREAMS` the attachment keeps
    (all six by default; kept in report order whatever order they are given
    in).  The hook callbacks compute no sample for a stream that is not
    kept, and a hook none of the kept streams (or spans) reads is not
    subscribed at all.  An unknown name raises :class:`ValueError`.
    """

    def __init__(self, window_s: float = 300.0,
                 quantiles: Sequence[float] = (0.5, 0.9, 0.99),
                 compression: int = 200, spans: bool = False,
                 retain_sketches: int = 8, publish_stats: bool = True,
                 streams: Sequence[str] = DEFAULT_STREAMS) -> None:
        unknown = [name for name in streams if name not in DEFAULT_STREAMS]
        if unknown:
            raise ValueError(
                f"unknown telemetry stream(s) {', '.join(map(repr, unknown))}"
                f" (known: {', '.join(DEFAULT_STREAMS)})")
        #: The default streams this attachment keeps, in report order.
        self.stream_names = tuple(name for name in DEFAULT_STREAMS
                                  if name in streams)
        self.window_s = float(window_s)
        self.quantiles = tuple(quantiles)
        self.compression = int(compression)
        self.record_spans = bool(spans)
        self.retain_sketches = int(retain_sketches)
        #: Whether RUN_END writes ``stats["telemetry"]``.  Private
        #: attachments (the QoS controller's trigger telemetry) disable
        #: this so they never clobber the user-facing attachment's entry.
        self.publish_stats = bool(publish_stats)
        self.reports: List[TelemetryReport] = []
        self._attached: Optional[HookBus] = None
        self._subscriptions: List[Tuple[str, Callable[..., None]]] = []
        self._window_callbacks: Dict[
            str, List[Callable[[WindowSnapshot], None]]] = {}
        self._watches: List[Tuple[str, str, Callable[..., Optional[float]],
                                  Dict[str, Any]]] = []
        self._reset_run_state()

    def _reset_run_state(self) -> None:
        self._streams: Dict[str, WindowedStream] = {}
        self._recorder: Optional[TraceRecorder] = None
        self._run_span: Optional[TraceSpan] = None
        self._session_spans: Dict[str, TraceSpan] = {}
        self._task_spans: Dict[str, Tuple[TraceSpan, Any]] = {}
        self._kernel_spans: Dict[str, TraceSpan] = {}
        self._sim_started = 0.0
        self._running = False
        # Bound per-run in _on_run_start; pre-bound observe methods keep
        # the per-sample hook callbacks free of dict lookups.  ``None`` (no
        # run yet, or the stream is not kept) skips the sample entirely.
        self._observe_submit: Optional[Callable[..., None]] = None
        self._observe_complete: Optional[Callable[..., None]] = None
        self._observe_interactivity: Optional[Callable[..., None]] = None
        self._observe_tct: Optional[Callable[..., None]] = None
        self._observe_overhead: Optional[Callable[..., None]] = None
        self._observe_placement: Optional[Callable[..., None]] = None

    @property
    def last(self) -> Optional[TelemetryReport]:
        """The most recent completed run's report, if any."""
        return self.reports[-1] if self.reports else None

    # ------------------------------------------------------------------
    # Attachment (same lifecycle contract as Profiler.attach).
    # ------------------------------------------------------------------
    def attach(self, bus: HookBus) -> "Telemetry":
        if self._attached is bus:
            return self
        if self._attached is not None:
            self.detach()
        self._attached = bus
        keep = self.stream_names
        spans = self.record_spans
        pairs = [(RUN_START, self._on_run_start)]
        if spans or "task_submit" in keep:
            pairs.append((TASK_SUBMIT, self._on_task_submit))
        if spans or any(name in keep for name in _COMPLETION_STREAMS):
            pairs.append((TASK_COMPLETE, self._on_task_complete))
        if "placement" in keep:
            pairs.append((PLACEMENT_DECISION, self._on_placement))
        if spans:
            # Span-only topics cost a callback per publication (and
            # PLATFORM_EVENT is high-volume), so they are only wired up
            # when spans are actually being recorded.
            pairs += [
                (SESSION_START, self._on_session_start),
                (SESSION_END, self._on_session_end),
                (CHECKPOINT, self._on_checkpoint),
                (MIGRATION, self._on_migration),
                (SCALE_OUT, self._on_scale_out),
                (SCALE_IN, self._on_scale_in),
                (PLATFORM_EVENT, self._on_platform_event),
            ]
        for topic, callback in pairs:
            bus.subscribe(topic, callback)
            self._subscriptions.append((topic, callback))
        # Seated FIRST so every later RUN_END subscriber (profiler reports,
        # user hooks) observes stats["telemetry"] already populated.
        bus.subscribe(RUN_END, self._on_run_end, first=True)
        self._subscriptions.append((RUN_END, self._on_run_end))
        for topic, name, extractor, _kwargs in self._watches:
            self._subscribe_watch(bus, topic, name, extractor)
        return self

    def detach(self) -> None:
        bus = self._attached
        if bus is None:
            return
        for topic, callback in self._subscriptions:
            bus.unsubscribe(topic, callback)
        self._subscriptions.clear()
        self._attached = None

    # ------------------------------------------------------------------
    # Stream access and extension.
    # ------------------------------------------------------------------
    def stream(self, name: str) -> WindowedStream:
        """A live stream of the in-flight (or just-finished) run."""
        try:
            return self._streams[name]
        except KeyError:
            known = ", ".join(sorted(self._streams)) or "<none until RUN_START>"
            raise KeyError(f"unknown telemetry stream {name!r} "
                           f"(known: {known})") from None

    def on_window(self, name: str,
                  callback: Callable[[WindowSnapshot], None]) -> None:
        """Invoke ``callback(snapshot)`` whenever ``name``'s window closes.

        Survives across runs: the callback re-registers on every
        ``RUN_START``.  Callbacks run inline from hook callbacks and must
        not touch the simulation environment.
        """
        self._window_callbacks.setdefault(name, []).append(callback)
        if name in self._streams:
            self._streams[name].on_window(callback)

    def watch(self, topic: str, name: str,
              extractor: Callable[..., Optional[float]],
              **stream_kwargs: Any) -> None:
        """Register a custom windowed stream over any hook topic.

        ``extractor(*payload)`` maps one publication to a sample value (or
        ``None`` to skip it); the publication's first payload element is
        taken as the sample time, so ``RUN_START``/``RUN_END`` cannot be
        watched.  ``stream_kwargs`` override the stream's window/quantile
        configuration.
        """
        if topic in (RUN_START, RUN_END):
            raise ValueError(f"cannot watch {topic!r}: its payload carries "
                             "no sample time")
        self._watches.append((topic, name, extractor, dict(stream_kwargs)))
        if self._attached is not None:
            self._subscribe_watch(self._attached, topic, name, extractor)

    def _subscribe_watch(self, bus: HookBus, topic: str, name: str,
                         extractor: Callable[..., Optional[float]]) -> None:
        def callback(*payload: Any) -> None:
            stream = self._streams.get(name)
            if stream is None:
                return
            value = extractor(*payload)
            if value is not None:
                stream.observe(payload[0], value)
        bus.subscribe(topic, callback)
        self._subscriptions.append((topic, callback))

    def _make_stream(self, name: str, origin: float,
                     **overrides: Any) -> WindowedStream:
        kwargs: Dict[str, Any] = dict(
            window_s=self.window_s, quantiles=self.quantiles,
            compression=self.compression, origin=origin,
            retain_sketches=self.retain_sketches)
        kwargs.update(overrides)
        stream = WindowedStream(name, **kwargs)
        for callback in self._window_callbacks.get(name, ()):
            stream.on_window(callback)
        self._streams[name] = stream
        return stream

    # ------------------------------------------------------------------
    # Hook callbacks.
    # ------------------------------------------------------------------
    def _on_run_start(self, platform: Any, trace: Any) -> None:
        self._reset_run_state()
        self._running = True
        now = platform.env.now
        self._sim_started = now
        observe = {}
        for name in self.stream_names:
            observe[name] = self._make_stream(
                name, origin=now, counter=name in COUNTER_STREAMS).observe
        self._observe_submit = observe.get("task_submit")
        self._observe_complete = observe.get("task_complete")
        self._observe_interactivity = observe.get("interactivity")
        self._observe_tct = observe.get("tct")
        self._observe_overhead = observe.get("sched_overhead")
        self._observe_placement = observe.get("placement")
        for _topic, name, _extractor, kwargs in self._watches:
            if name not in self._streams:
                self._make_stream(name, origin=now, **kwargs)
        if self.record_spans:
            self._recorder = TraceRecorder()
            self._run_span = self._recorder.begin(
                f"run:{getattr(trace, 'name', 'trace')}", "run", now,
                track=CONTROL_TRACK,
                policy=getattr(platform.policy, "name", "unknown"),
                sessions=len(trace))

    def _on_session_start(self, time: float, session: Any) -> None:
        if self._recorder is not None:
            self._session_spans[session.session_id] = self._recorder.begin(
                f"session:{session.session_id}", "session", time,
                parent=self._run_span, track=session.session_id,
                user=session.user_id, gpus=session.gpus_requested)

    def _on_session_end(self, time: float, session: Any) -> None:
        if self._recorder is not None:
            self._recorder.finish(
                self._session_spans.pop(session.session_id, None), time)

    def _on_task_submit(self, time: float, session: Any, task: Any,
                        metrics: Any) -> None:
        observe = self._observe_submit
        if observe is not None:
            observe(time)
        if self._recorder is not None:
            span = self._recorder.begin(
                f"task[{task.task_index}]", "task", time,
                parent=self._session_spans.get(session.session_id),
                track=session.session_id,
                gpus=task.gpus, gpu_task=task.is_gpu_task)
            self._task_spans[session.session_id] = (span, metrics)

    def _on_task_complete(self, time: float, session: Any, task: Any,
                          metrics: Any) -> None:
        observe = self._observe_complete
        if observe is not None:
            observe(time)
        observe = self._observe_interactivity
        if observe is not None:
            interactivity = metrics.interactivity_delay
            if interactivity is not None:
                observe(time, interactivity)
        observe = self._observe_tct
        if observe is not None:
            tct = metrics.task_completion_time
            if tct is not None:
                observe(time, tct)
        observe = self._observe_overhead
        if observe is not None:
            steps = metrics.steps
            overhead = steps.end_to_end - steps.get("execute_code")
            if overhead >= 0.0:
                observe(time, overhead)
        recorder = self._recorder
        if recorder is not None:
            entry = self._task_spans.pop(session.session_id, None)
            if entry is not None:
                span, _ = entry
                span.args["migrated"] = metrics.required_migration
                if metrics.started_at is not None:
                    recorder.begin("queue", "queue", metrics.submitted_at,
                                   parent=span, track=session.session_id
                                   ).end = metrics.started_at
                    recorder.begin("execute", "execute", metrics.started_at,
                                   parent=span, track=session.session_id
                                   ).end = (metrics.completed_at
                                            if metrics.completed_at is not None
                                            else time)
                recorder.finish(span, time)

    def _on_placement(self, time: float, kernel_id: str, decision: Any) -> None:
        observe = self._observe_placement
        if observe is not None:
            observe(time, 1.0 if decision.satisfied else 0.0)

    def _on_checkpoint(self, time: float, kernel_id: str, name: str,
                       size_bytes: int) -> None:
        if self._recorder is not None:
            kernel_span = self._kernel_spans.get(kernel_id)
            self._recorder.instant(
                f"checkpoint:{name}", "checkpoint", time, parent=kernel_span,
                track=kernel_id if kernel_span is not None else CONTROL_TRACK,
                size_bytes=size_bytes)

    def _on_migration(self, time: float, kernel_id: str, source: str,
                      target: str) -> None:
        if self._recorder is not None:
            kernel_span = self._kernel_spans.get(kernel_id)
            self._recorder.instant(
                "migration", "migration", time, parent=kernel_span,
                track=kernel_id if kernel_span is not None else CONTROL_TRACK,
                source=source, target=target)

    def _on_scale_out(self, time: float, num_hosts: int, reason: str) -> None:
        if self._recorder is not None:
            self._recorder.instant("scale_out", "scale", time,
                                   parent=self._run_span,
                                   hosts=num_hosts, reason=reason)

    def _on_scale_in(self, time: float, num_hosts: int) -> None:
        if self._recorder is not None:
            self._recorder.instant("scale_in", "scale", time,
                                   parent=self._run_span, hosts=num_hosts)

    def _on_platform_event(self, time: float, kind: Any, detail: str) -> None:
        recorder = self._recorder
        if recorder is None:
            return
        value = getattr(kind, "value", str(kind))
        if value == "kernel_created":
            # detail is "<kernel_id> on [<host>, ...]" (see GlobalScheduler).
            kernel_id = detail.split(" on ", 1)[0]
            self._kernel_spans[kernel_id] = recorder.begin(
                f"kernel:{kernel_id}", "kernel", time, parent=self._run_span,
                track=kernel_id, hosts=detail.partition(" on ")[2])
        elif value == "kernel_terminated":
            recorder.finish(self._kernel_spans.pop(detail, None), time)
        elif value == "replica_failure":
            kernel_id = detail.split("/", 1)[0]
            kernel_span = self._kernel_spans.get(kernel_id)
            recorder.instant(
                "replica_failure", "failure", time, parent=kernel_span,
                track=kernel_id if kernel_span is not None else CONTROL_TRACK,
                replica=detail)
        elif value in ("election_failed", "idle_reclamation"):
            recorder.instant(value, "platform", time, parent=self._run_span,
                             detail=detail)
        # session_started/terminated, scale and migration kinds are covered
        # by their dedicated lifecycle topics above.

    def _on_run_end(self, platform: Any, result: Any, stats: Dict[str, Any]
                    ) -> None:
        now = platform.env.now
        for stream in self._streams.values():
            stream.finalize(now)
        span_counts: Dict[str, int] = {}
        spans: List[Dict[str, Any]] = []
        if self._recorder is not None:
            self._recorder.close_open_spans(now)
            span_counts = self._recorder.category_counts()
            spans = [span.to_dict() for span in self._recorder.spans]
        report = TelemetryReport(
            policy=getattr(platform.policy, "name", "unknown"),
            trace_name=result.trace_name,
            window_s=self.window_s,
            sim_time_s=now - self._sim_started,
            streams={name: stream.to_dict()
                     for name, stream in self._streams.items()},
            span_counts=span_counts,
            spans=spans)
        self.reports.append(report)
        # Surface the windowed snapshots in the stats payload, next to the
        # dispatch/AST-cache/memory entries the platform itself publishes.
        if self.publish_stats:
            stats["telemetry"] = {
                "window_s": self.window_s,
                "streams": report.streams,
                "span_counts": span_counts,
            }
        self._running = False
