"""Tests for the ``repro.profiling`` subsystem.

Pins the three guarantees the profiler makes: a profiled run is
*bit-identical* to a bare one (hook callbacks never touch the timeline), the
report's counters agree with the metrics collector's ground truth, and the
``profile`` CLI wires it all up (including the ``--json`` artifact).
"""

import json

from repro.api import Simulation
from repro.experiments.__main__ import main
from repro.metrics.collector import EventKind
from repro.profiling import ProfileReport, Profiler


def _canonical_collector(result) -> str:
    return json.dumps(result.to_dict()["collector"], sort_keys=True)


def test_profiled_run_is_bit_identical_and_report_is_consistent():
    bare = Simulation.from_scenario("smoke").run()

    profiler = Profiler()
    simulation = Simulation.from_scenario("smoke").with_profiler(profiler)
    profiled = simulation.run()

    assert _canonical_collector(bare) == _canonical_collector(profiled)

    report = profiler.last
    assert isinstance(report, ProfileReport)
    assert set(report.phases) == {"trace_build", "platform_build", "replay"}
    assert all(seconds >= 0.0 for seconds in report.phases.values())
    assert report.wall_time_s == sum(report.phases.values())

    # Engine dispatch counters: a run dispatches entries in batches, and
    # every batch holds at least one entry.
    dispatch = report.dispatch
    assert dispatch["dispatched"] > 0
    assert 0 < dispatch["batches"] <= dispatch["dispatched"]
    assert report.batch_fusion >= 1.0
    assert report.events_per_sec > 0

    # Event-class counters must agree with the collector's ground truth.
    collector = profiled.collector
    for kind in (EventKind.SESSION_STARTED, EventKind.KERNEL_CREATED,
                 EventKind.SCALE_OUT):
        recorded = len(collector.events_of_kind(kind))
        assert report.event_counts.get(kind.value, 0) == recorded
    tasks = len(collector.completed_tasks())
    assert report.hook_counts["task_submit"] == report.hook_counts[
        "task_complete"] == tasks
    assert report.sim_time_s > 0

    # JSON round-trip of the report payload.
    payload = json.loads(report.to_json())
    assert payload["dispatch"] == dispatch
    assert payload["derived"]["batch_fusion"] == round(report.batch_fusion, 3)


def test_profiler_resets_between_runs_and_rejects_second_bus():
    profiler = Profiler()
    simulation = Simulation.from_scenario("smoke").with_profiler(profiler)
    simulation.run()
    simulation.run()
    assert len(profiler.reports) == 2
    first, second = profiler.reports
    # Accumulators reset per run: counts must not double.
    assert first.hook_counts["task_submit"] == second.hook_counts["task_submit"]
    assert first.dispatch["dispatched"] == second.dispatch["dispatched"]

    # Reuse across Simulation objects (each creates its own bus): the
    # profiler follows whichever of its simulations runs — attach migrates
    # to the running bus, so nothing double-counts and every run reports.
    other = Simulation.from_scenario("smoke", policy="reservation") \
        .with_profiler(profiler)
    other.run()
    assert len(profiler.reports) == 3
    assert profiler.last.policy == "reservation"
    simulation.run()         # first simulation again: re-attaches and reports
    assert len(profiler.reports) == 4
    assert profiler.last.policy == "notebookos"
    assert profiler.last.hook_counts["task_submit"] == \
        first.hook_counts["task_submit"]


def test_profile_cli_prints_report_and_writes_json(capsys, tmp_path):
    out = tmp_path / "profile.json"
    code = main(["profile", "smoke", "--json", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "phases:" in captured and "replay" in captured
    assert "dispatch:" in captured and "batches" in captured
    payload = json.loads(out.read_text())
    assert payload["dispatch"]["dispatched"] > 0
    assert payload["phases"]["replay"] > 0


def test_profile_cli_unknown_scenario_exits_2(capsys, tmp_path):
    code = main(["profile", "no-such-scenario"])
    assert code == 2
    assert "unknown scenario" in capsys.readouterr().err
