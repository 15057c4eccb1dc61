"""Tests for the ``repro.telemetry`` subsystem.

Pins the subsystem's contracts: sketch quantiles stay inside a ±1 % rank
window of the exact order statistics on adversarial streams (hypothesis),
windowed streams form a contiguous fixed-memory timeline, a telemetry-
instrumented run is bit-identical to a bare one, the RUN_END stats payload
carries the stream snapshots, reports round-trip through JSON and the
result-store artifact path, and the collector's sketch mode bounds memory
without disturbing exact-mode serialization.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RUN_END, Simulation
from repro.metrics.collector import EventKind, MetricsCollector
from repro.profiling import Profiler
from repro.telemetry import (
    DEFAULT_STREAMS,
    QuantileSketch,
    Telemetry,
    TelemetryReport,
    WindowedStream,
    WindowSnapshot,
    chrome_trace,
    quantile_label,
)

QUANTILES = (0.5, 0.9, 0.99)


def _canonical_collector(result) -> str:
    return json.dumps(result.to_dict()["collector"], sort_keys=True)


def _rank_window(ordered, q, tolerance=0.01):
    """Exact order statistics bracketing rank ``q`` ± ``tolerance``."""
    n = len(ordered)
    low = ordered[max(0, min(n - 1, int((q - tolerance) * n) - 1))]
    high = ordered[max(0, min(n - 1, int((q + tolerance) * n) + 1))]
    return low, high


def _assert_within_rank_window(sketch, values, quantiles=QUANTILES):
    ordered = sorted(values)
    for q in quantiles:
        estimate = sketch.quantile(q)
        low, high = _rank_window(ordered, q)
        # "within 1 % of exact": inside the exact order statistics at
        # q ± 0.01, with 1 % value slack for interpolation between them.
        slack = 0.01 * max(abs(low), abs(high))
        assert low - slack <= estimate <= high + slack, (
            f"q={q}: {estimate} outside [{low}, {high}] (n={len(ordered)})")


# ----------------------------------------------------------------------
# QuantileSketch.
# ----------------------------------------------------------------------
_base_values = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
              allow_infinity=False, width=32),
    min_size=30, max_size=600)


@st.composite
def adversarial_streams(draw):
    """Sorted / reversed / duplicated / bursty arrangements of one base."""
    base = draw(_base_values)
    mode = draw(st.sampled_from(["sorted", "reversed", "duplicated",
                                 "bursty"]))
    if mode == "sorted":
        return sorted(base)
    if mode == "reversed":
        return sorted(base, reverse=True)
    if mode == "duplicated":
        # Heavy ties: every value appears several times, plus one dominant
        # run of the median value.
        out = base * 3 + [sorted(base)[len(base) // 2]] * len(base)
        return out
    # Bursty: runs of repeats with deterministic, index-dependent lengths.
    return [value for index, value in enumerate(base)
            for _ in range(1 + index % 7)]


@settings(max_examples=60, deadline=None)
@given(adversarial_streams())
def test_sketch_quantiles_within_rank_window_on_adversarial_streams(values):
    sketch = QuantileSketch(compression=200)
    for value in values:
        sketch.add(value)
    assert sketch.count == len(values)
    assert sketch.minimum == min(values)
    assert sketch.maximum == max(values)
    assert math.isclose(sketch.total, sum(values), rel_tol=1e-9, abs_tol=1e-6)
    _assert_within_rank_window(sketch, values)
    # Exact at the extremes.
    assert sketch.quantile(0.0) == min(values)
    assert sketch.quantile(1.0) == max(values)


@settings(max_examples=30, deadline=None)
@given(adversarial_streams())
def test_sketch_merge_matches_bulk_within_rank_window(values):
    half = len(values) // 2
    left, right = QuantileSketch(100), QuantileSketch(100)
    for value in values[:half]:
        left.add(value)
    for value in values[half:]:
        right.add(value)
    left.merge(right)
    assert left.count == len(values)
    _assert_within_rank_window(left, values)
    # The merged-from sketch is unchanged.
    assert right.count == len(values) - half


@settings(max_examples=30, deadline=None)
@given(adversarial_streams())
def test_sketch_is_deterministic_and_json_round_trips(values):
    first, second = QuantileSketch(100), QuantileSketch(100)
    for value in values:
        first.add(value)
        second.add(value)
    assert first.to_dict() == second.to_dict()
    restored = QuantileSketch.from_dict(json.loads(json.dumps(first.to_dict())))
    assert restored.to_dict() == first.to_dict()
    for q in QUANTILES:
        assert restored.quantile(q) == first.quantile(q)


def test_sketch_memory_is_bounded_and_accuracy_holds_at_scale():
    # 200k samples from a deterministic skewed stream: centroids stay
    # O(compression) and the big quantiles land within 1 % relative error.
    sketch = QuantileSketch(compression=200)
    values = [((i * 2654435761) % 1000003) / 1000.0 + (i % 97) * 0.001
              for i in range(200_000)]
    for value in values:
        sketch.add(value)
    assert sketch.centroid_count < 3 * sketch.compression
    ordered = sorted(values)
    for q in (0.5, 0.9, 0.99, 0.999):
        exact = ordered[min(len(ordered) - 1, int(q * len(ordered)))]
        assert abs(sketch.quantile(q) - exact) / exact < 0.01


def test_sketch_edge_cases():
    empty = QuantileSketch()
    assert empty.is_empty and empty.quantile(0.5) is None
    assert empty.mean is None
    with pytest.raises(ValueError):
        QuantileSketch(compression=10)
    single = QuantileSketch()
    single.add(42.0)
    assert single.quantile(0.5) == 42.0
    with pytest.raises(ValueError):
        single.quantile(1.5)
    assert quantile_label(0.5) == "p50"
    assert quantile_label(0.99) == "p99"
    assert quantile_label(0.999) == "p99.9"


# ----------------------------------------------------------------------
# WindowedStream.
# ----------------------------------------------------------------------
def test_windowed_stream_builds_contiguous_timeline():
    stream = WindowedStream("x", window_s=10.0, quantiles=(0.5, 0.99))
    closed = []
    stream.on_window(closed.append)
    stream.observe(1.0, 5.0)
    stream.observe(2.0, 7.0)
    stream.observe(35.0, 1.0)      # skips two empty windows
    stream.finalize(42.0)

    # Interior empty windows are emitted (contiguous timeline); a trailing
    # empty in-flight window is not.
    assert [w.index for w in stream.windows] == [0, 1, 2, 3]
    assert [(w.start, w.end) for w in stream.windows] == \
        [(0.0, 10.0), (10.0, 20.0), (20.0, 30.0), (30.0, 40.0)]
    assert [w.count for w in stream.windows] == [2, 0, 0, 1]
    assert closed == stream.windows
    first = stream.windows[0]
    assert first.total == 12.0 and first.mean == 6.0
    assert first.rate_per_s == pytest.approx(0.2)
    assert first.quantiles["p50"] == pytest.approx(6.0)
    empty = stream.windows[1]
    assert empty.mean is None and empty.quantiles == {}
    assert stream.count == 3
    assert stream.quantile(0.5) == 5.0
    # finalize is idempotent.
    stream.finalize(42.0)
    assert len(stream.windows) == 4

    snapshot_round_trip = WindowSnapshot.from_dict(first.to_dict())
    assert snapshot_round_trip == first
    payload = json.loads(json.dumps(stream.to_dict()))
    assert payload["count"] == 3
    assert len(payload["windows"]) == 4
    assert payload["overall"]["count"] == 3


def test_windowed_stream_sliding_view_merges_recent_windows():
    stream = WindowedStream("x", window_s=10.0, retain_sketches=3)
    for i in range(60):
        stream.observe(float(i), float(i))
    # In-flight window is [50, 60); sliding over last 2 closed + current.
    sliding = stream.sliding_quantile(0.5, num_windows=2)
    assert 30.0 <= sliding <= 60.0
    overall = stream.quantile(0.5)
    assert 20.0 <= overall <= 40.0
    with pytest.raises(ValueError):
        WindowedStream("bad", window_s=0.0)


# ----------------------------------------------------------------------
# Telemetry attachment.
# ----------------------------------------------------------------------
def test_telemetry_run_is_bit_identical_and_consistent_with_collector():
    bare = Simulation.from_scenario("smoke").run()

    telemetry = Telemetry(window_s=600.0, spans=True)
    seen_stats = {}
    simulation = (Simulation.from_scenario("smoke")
                  .with_telemetry(telemetry)
                  .on(RUN_END, lambda platform, result, stats:
                      seen_stats.update(stats)))
    instrumented = simulation.run()

    assert _canonical_collector(bare) == _canonical_collector(instrumented)

    report = telemetry.last
    assert isinstance(report, TelemetryReport)
    collector = instrumented.collector

    # Stream ground truth against the collector's exact records.
    tasks = collector.tasks
    assert report.overall("task_submit")["count"] == len(tasks)
    assert report.overall("task_complete")["count"] == \
        len(collector.completed_tasks())
    delays = [t.interactivity_delay for t in tasks
              if t.interactivity_delay is not None]
    overall = report.overall("interactivity")
    assert overall["count"] == len(delays)
    assert overall["min"] == min(delays)
    assert overall["max"] == max(delays)
    ordered = sorted(delays)
    for q in QUANTILES:
        low, high = _rank_window(ordered, q)
        slack = 0.01 * high
        assert low - slack <= overall[quantile_label(q)] <= high + slack

    # Windows tile the run contiguously.
    windows = report.windows("interactivity")
    assert windows[0].start == 0.0
    for before, after in zip(windows, windows[1:]):
        assert after.start == before.end
    assert sum(w.count for w in windows) == len(delays)

    # Span ground truth.
    assert report.span_counts["session"] == \
        len(collector.events_of_kind(EventKind.SESSION_STARTED))
    assert report.span_counts["kernel"] == \
        len(collector.events_of_kind(EventKind.KERNEL_CREATED))
    assert report.span_counts["task"] == len(tasks)
    assert report.span_counts["run"] == 1

    # The RUN_END stats payload carries the snapshots (telemetry is seated
    # first, so the user hook above observed them) next to the platform's
    # memory stats.
    assert seen_stats["telemetry"]["window_s"] == 600.0
    assert seen_stats["telemetry"]["streams"].keys() == report.streams.keys()
    assert seen_stats["memory"]["peak_rss_bytes"] > 0

    # Report JSON round-trip.
    restored = TelemetryReport.from_dict(json.loads(report.to_json()))
    assert restored.to_json() == report.to_json()
    assert "interactivity" in report.format("interactivity")


def test_telemetry_resets_between_runs_and_follows_buses():
    telemetry = Telemetry(window_s=600.0)
    simulation = Simulation.from_scenario("smoke").with_telemetry(telemetry)
    simulation.run()
    simulation.run()
    assert len(telemetry.reports) == 2
    first, second = telemetry.reports
    assert first.overall("task_submit")["count"] == \
        second.overall("task_submit")["count"]

    other = Simulation.from_scenario("smoke", policy="reservation") \
        .with_telemetry(telemetry)
    other.run()
    assert len(telemetry.reports) == 3
    assert telemetry.last.policy == "reservation"


def test_telemetry_limited_to_one_stream_matches_a_full_attachment():
    """A ``streams=`` subset emits the same window snapshots for the
    streams it keeps as a full attachment, and keeps no other stream."""
    def run(telemetry):
        closed = []
        telemetry.on_window("interactivity", closed.append)
        Simulation.from_scenario("smoke").with_telemetry(telemetry).run()
        return closed

    full = Telemetry(window_s=300.0)
    limited = Telemetry(window_s=300.0, streams=["interactivity"])
    full_windows = run(full)
    assert len(full_windows) > 1
    assert run(limited) == full_windows
    assert limited.stream_names == ("interactivity",)
    assert list(limited.last.streams) == ["interactivity"]
    assert limited.last.streams["interactivity"] == \
        full.last.streams["interactivity"]
    with pytest.raises(KeyError):
        limited.stream("tct")


def test_telemetry_streams_keep_report_order_and_reject_unknown_names():
    assert Telemetry(streams=["placement", "task_submit"]).stream_names \
        == ("task_submit", "placement")
    assert Telemetry().stream_names == DEFAULT_STREAMS
    with pytest.raises(ValueError, match="'latency'"):
        Telemetry(streams=["interactivity", "latency"])


def test_telemetry_trace_export_matches_chrome_trace_event_shape():
    telemetry = Telemetry(window_s=600.0, spans=True)
    Simulation.from_scenario("smoke").with_telemetry(telemetry).run()
    report = telemetry.last

    document = report.chrome_trace()
    assert document["displayTimeUnit"] == "ms"
    events = document["traceEvents"]
    assert events, "empty trace"
    phases = {event["ph"] for event in events}
    assert phases <= {"M", "X", "i"}
    assert "X" in phases and "M" in phases
    for event in events:
        assert {"name", "ph", "pid", "tid"} <= set(event)
        if event["ph"] == "X":
            assert event["dur"] >= 0.0 and "ts" in event
        elif event["ph"] == "i":
            assert event["s"] == "t" and "ts" in event
    # Track metadata: one thread_name per track, control plane on tid 0.
    names = {event["tid"]: event["args"]["name"] for event in events
             if event["ph"] == "M" and event["name"] == "thread_name"}
    assert names[0] == "control-plane"
    # Spans nest: every parent_id resolves and parents contain children.
    spans = {span.span_id: span for span in report.trace_spans()}
    for span in spans.values():
        if span.parent_id is not None:
            parent = spans[span.parent_id]
            assert parent.start <= span.start
            assert span.end <= parent.end
    # The timeline export carries every span verbatim.
    assert len(report.timeline()["spans"]) == len(report.spans)


def test_telemetry_report_stores_as_result_store_artifact(tmp_path):
    from repro.api import ResultStore, RunSpec

    spec = RunSpec.from_scenario("smoke")
    telemetry = Telemetry(window_s=600.0)
    result = Simulation.from_spec(spec).with_telemetry(telemetry).run()
    store = ResultStore(tmp_path)
    store.save(spec, result)
    path = store.save_artifact(spec, "telemetry", telemetry.last.to_dict())
    assert path.exists()

    loaded = store.load_artifact(spec, "telemetry")
    restored = TelemetryReport.from_dict(loaded)
    assert restored.to_json() == telemetry.last.to_json()
    # Artifacts are invisible to the result-entry iterator and loader.
    assert [s.spec_hash() for s, _ in store.entries()] == [spec.spec_hash()]
    assert store.load_artifact(spec, "trace") is None


def test_telemetry_watch_and_live_stream_access():
    telemetry = Telemetry(window_s=600.0)
    telemetry.watch("checkpoint", "checkpoint_size",
                    lambda time, kernel_id, name, size_bytes: float(size_bytes))
    closes = []
    telemetry.on_window("task_submit", closes.append)
    Simulation.from_scenario("smoke").with_telemetry(telemetry).run()
    report = telemetry.last
    assert report.overall("checkpoint_size")["count"] > 0
    assert closes and closes[-1].end > 0
    assert telemetry.stream("task_submit").count > 0
    with pytest.raises(KeyError):
        telemetry.stream("nope")
    with pytest.raises(ValueError):
        telemetry.watch("run_end", "bad", lambda *a: None)


# ----------------------------------------------------------------------
# Collector sketch mode + event index.
# ----------------------------------------------------------------------
def test_sketch_mode_bounds_storage_and_matches_exact_percentiles():
    exact = Simulation.from_scenario("smoke").run()
    sketched = Simulation.from_scenario("smoke").with_sketch_metrics().run()

    collector = sketched.collector
    assert collector.sketch_mode
    assert collector.tasks == []          # no unbounded per-task storage
    assert collector.sketch_task_count == len(exact.collector.tasks)
    assert collector.completed_task_count() == \
        len(exact.collector.completed_tasks())
    # The simulated behaviour is untouched: identical event streams.
    assert [(e.time, e.kind, e.detail) for e in collector.events] == \
        [(e.time, e.kind, e.detail) for e in exact.collector.events]

    delays = sorted(t.interactivity_delay for t in exact.collector.tasks
                    if t.interactivity_delay is not None)
    for q in QUANTILES:
        low, high = _rank_window(delays, q)
        slack = 0.01 * high
        assert low - slack <= collector.interactivity_percentile(q) \
            <= high + slack
    summary = sketched.summary()
    assert summary["tasks_completed"] == exact.summary()["tasks_completed"]

    # Exact-mode serialization is byte-identical to what the goldens pin:
    # no sketch keys unless the mode is on.
    exact_payload = exact.collector.to_dict()
    assert "sketch_mode" not in exact_payload
    assert "sketches" not in exact_payload
    sketch_payload = collector.to_dict()
    assert sketch_payload["sketch_mode"] is True
    restored = MetricsCollector.from_dict(
        json.loads(json.dumps(sketch_payload)))
    assert restored.sketch_mode
    assert restored.completed_task_count() == collector.completed_task_count()
    for q in QUANTILES:
        assert restored.interactivity_percentile(q) == \
            collector.interactivity_percentile(q)
        assert restored.tct_percentile(q) == collector.tct_percentile(q)
    assert json.dumps(restored.to_dict()["sketches"], sort_keys=True) == \
        json.dumps(sketch_payload["sketches"], sort_keys=True)


def test_events_of_kind_index_matches_linear_scan():
    result = Simulation.from_scenario("smoke").run()
    collector = result.collector
    assert collector.events, "smoke run recorded no events"
    for kind in EventKind:
        assert collector.events_of_kind(kind) == \
            [e for e in collector.events if e.kind == kind]
    # The index survives the JSON round-trip.
    restored = MetricsCollector.from_dict(
        json.loads(json.dumps(collector.to_dict())))
    for kind in EventKind:
        assert [(e.time, e.detail) for e in restored.events_of_kind(kind)] == \
            [(e.time, e.detail) for e in collector.events_of_kind(kind)]
    # Unknown-kind queries return fresh empty lists, not shared state.
    assert collector.events_of_kind(EventKind.ELECTION_FAILED) is not \
        collector.events_of_kind(EventKind.ELECTION_FAILED)


# ----------------------------------------------------------------------
# Profiler memory satellite.
# ----------------------------------------------------------------------
def test_profiler_reports_peak_memory():
    import tracemalloc

    profiler = Profiler()
    tracemalloc.start()
    try:
        Simulation.from_scenario("smoke").with_profiler(profiler).run()
    finally:
        tracemalloc.stop()
    report = profiler.last
    assert report.memory["peak_rss_bytes"] > 0
    assert report.memory["peak_traced_bytes"] > 0
    assert report.to_dict()["memory"] == report.memory
    assert "memory: peak rss" in report.format()
