"""Error-path tests for the ``python -m repro.experiments`` CLI.

The CLI is the entry point CI and sweep scripts drive, so its failure modes
must be deliberate: unknown names exit with status 2 and a message that
lists the valid choices, malformed grids are rejected before any simulation
runs, and a corrupt store file degrades to a cache miss instead of crashing
the run.
"""

import json

import pytest

from repro.experiments.__main__ import main
from repro.experiments.scenarios import (
    Scenario,
    ScenarioRegistry,
    default_registry,
    register_config_preset,
)
from repro.experiments.store import ResultStore


# ----------------------------------------------------------------------
# Unknown names.
# ----------------------------------------------------------------------
def test_unknown_scenario_exits_2_and_names_choices(capsys, tmp_path):
    code = main(["run", "no-such-scenario", "--store-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown scenario" in captured.err
    assert "smoke" in captured.err  # the message lists valid choices


def test_unknown_policy_exits_2(capsys, tmp_path):
    # Sharded, the spec fails inside a shard worker; the CLI names that
    # shard on one error line instead of letting the traceback escape.
    for extra in ([], ["--shards", "2"]):
        code = main(["run", "smoke", "--policy", "no-such-policy",
                     "--store-dir", str(tmp_path)] + extra)
        captured = capsys.readouterr()
        assert code == 2
        assert "no-such-policy" in captured.err
        assert "Traceback" not in captured.err
    assert "error: shard " in captured.err


def test_sweep_unknown_scenario_exits_2(capsys, tmp_path):
    code = main(["sweep", "--scenario", "bogus", "--policies", "notebookos",
                 "--store-dir", str(tmp_path)])
    assert code == 2
    assert "unknown scenario" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Malformed grids and values.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("command", ["run", "profile", "telemetry"])
@pytest.mark.parametrize("count", ["0", "-2"])
def test_shard_count_below_one_exits_2(capsys, tmp_path, monkeypatch,
                                      command, count):
    # Used to run unsharded (and, for run, write the store).
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    with pytest.raises(SystemExit) as exit_info:
        main([command, "smoke", "--shards", count])
    assert exit_info.value.code == 2
    assert "--shards" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_run_rejects_shards_with_qos(capsys, tmp_path):
    # Used to drop --shards silently and run the QoS spec unsharded.
    code = main(["run", "smoke", "--shards", "2",
                 "--qos", "interactivity:p99>60",
                 "--store-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "--shards" in captured.err and "--qos" in captured.err
    assert captured.out == ""


def test_malformed_seeds_exits_2(capsys, tmp_path):
    code = main(["sweep", "--scenario", "smoke", "--policies", "notebookos",
                 "--seeds", "1,two,3", "--store-dir", str(tmp_path)])
    assert code == 2
    assert "two" in capsys.readouterr().err


def test_empty_policy_list_exits_2(capsys, tmp_path):
    code = main(["sweep", "--scenario", "smoke", "--policies", ",,",
                 "--store-dir", str(tmp_path)])
    assert code == 2
    assert "empty sweep" in capsys.readouterr().err


def test_invalid_session_override_exits_2(capsys, tmp_path):
    # Generator kwargs conflicting with the scenario's constraints are
    # rejected by the generator's own validation, surfaced as exit 2.
    code = main(["run", "smoke", "--sessions", "-5",
                 "--store-dir", str(tmp_path)])
    assert code == 2
    assert "num_sessions" in capsys.readouterr().err


def test_unknown_generator_kwarg_is_rejected():
    # API-level: overrides that the generator does not accept fail loudly
    # rather than being silently ignored (they would otherwise poison the
    # spec hash with dead knobs).
    spec = default_registry().get("smoke").instantiate(bogus_knob=3)
    from repro.experiments.scenarios import build_trace
    with pytest.raises(TypeError):
        build_trace(spec)


# ----------------------------------------------------------------------
# Registry conflicts.
# ----------------------------------------------------------------------
def test_duplicate_scenario_registration_conflicts():
    registry = ScenarioRegistry()
    registry.register(Scenario(name="dup", description="first"))
    with pytest.raises(ValueError, match="already registered"):
        registry.register(Scenario(name="dup", description="second"))
    # replace=True is the explicit override.
    registry.register(Scenario(name="dup", description="second"), replace=True)
    assert registry.get("dup").description == "second"


def test_duplicate_config_preset_registration_conflicts():
    from repro.experiments.scenarios import _CONFIG_PRESETS

    name = "test-dup-preset"
    try:
        register_config_preset(name, lambda spec, trace: (None, None))
        with pytest.raises(ValueError, match="already registered"):
            register_config_preset(name, lambda spec, trace: (None, None))
        register_config_preset(name, lambda spec, trace: (None, None),
                               replace=True)
    finally:
        # The preset table is process-global; leave no trace for later tests.
        _CONFIG_PRESETS.pop(name, None)


def test_unknown_config_preset_exits_2(capsys, tmp_path):
    registry = default_registry()
    registry.register(Scenario(name="broken-preset-scenario",
                               description="references a missing preset",
                               generator_kwargs={"num_sessions": 2,
                                                 "duration_hours": 0.5},
                               config_preset="no-such-preset"),
                      replace=True)
    try:
        code = main(["run", "broken-preset-scenario",
                     "--store-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown config preset" in captured.err
    finally:
        registry._scenarios.pop("broken-preset-scenario", None)


# ----------------------------------------------------------------------
# Failed specs and resume.
# ----------------------------------------------------------------------
def test_cli_sweep_failure_summary_and_exit_code(tmp_path, capsys):
    code = main(["sweep", "--scenario", "smoke",
                 "--policies", "notebookos,no-such-policy",
                 "--seeds", "7", "--store-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "1 spec(s) failed" in captured.err
    assert "no-such-policy" in captured.err
    assert "Traceback" not in captured.err  # summary line, not a dump
    # The healthy spec's row still prints (salvage is visible).
    assert "notebookos" in captured.out


def test_cli_sweep_resume_reports_store_hits(tmp_path, capsys):
    assert main(["sweep", "--scenario", "smoke", "--policies", "notebookos",
                 "--seeds", "7", "--store-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["sweep", "--scenario", "smoke", "--policies", "notebookos",
                 "--seeds", "7", "--resume",
                 "--store-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "resume: 1 spec(s) served from the store, 0 executed" \
        in captured.out


def test_cli_sweep_resume_requires_store(tmp_path, capsys):
    code = main(["sweep", "--scenario", "smoke", "--policies", "notebookos",
                 "--resume", "--no-store", "--store-dir", str(tmp_path)])
    assert code == 2
    assert "--resume" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Store corruption.
# ----------------------------------------------------------------------
def test_corrupt_store_file_degrades_to_cache_miss(capsys, tmp_path):
    spec = default_registry().get("smoke").instantiate()
    store = ResultStore(tmp_path)
    path = store.path_for(spec)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{ this is not json")

    assert store.load(spec) is None  # corrupt entry reads as a miss

    code = main(["run", "smoke", "--store-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "ran in" in captured.out  # executed, not served from the store

    # The corrupt entry was overwritten with a valid one: rerun is a hit.
    payload = json.loads(path.read_text())
    assert payload["spec_hash"] == spec.spec_hash()
    code = main(["run", "smoke", "--store-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "cache hit" in captured.out


def test_wrong_schema_version_is_a_miss(tmp_path):
    spec = default_registry().get("smoke").instantiate()
    store = ResultStore(tmp_path)
    path = store.path_for(spec)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"schema_version": 999,
                                "spec_hash": spec.spec_hash(),
                                "spec": spec.to_dict(), "result": {}}))
    assert store.load(spec) is None
