"""Tests for the ``repro.experiments`` sweep-orchestration subsystem."""

import json
import os
import signal
import time

import pytest

from repro.experiments import (
    ResultStore,
    Scenario,
    ScenarioRegistry,
    ScenarioSpec,
    SweepExecutionError,
    SweepGrid,
    build_trace,
    default_registry,
    run_spec,
    run_specs,
    stable_hash,
)
from repro.experiments import runner
from repro.experiments.__main__ import main as cli_main
from repro.experiments.store import SCHEMA_VERSION
from repro.metrics.collector import ExperimentResult

# A seconds-scale grid used by the runner tests.
SMALL_KWARGS = {"num_sessions": 6, "duration_hours": 1.0}


def small_spec(policy="notebookos", seed=3):
    return default_registry().get("smoke").instantiate(policy=policy, seed=seed,
                                                       **SMALL_KWARGS)


# ----------------------------------------------------------------------
# Scenario specs and hashing.
# ----------------------------------------------------------------------
def test_stable_hash_is_order_insensitive_and_content_sensitive():
    assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})
    assert stable_hash({"a": 1}) != stable_hash({"a": 2})


def test_spec_hash_covers_every_generator_kwarg():
    scenario = default_registry().get("summer")
    base = scenario.instantiate(seed=5, num_sessions=8)
    bouty = scenario.instantiate(seed=5, num_sessions=8, work_bout_hours=0.5)
    assert base.generator_kwargs != bouty.generator_kwargs
    assert base.spec_hash() != bouty.spec_hash()
    # The old benchmark cache keyed summer traces on (seed, num_sessions)
    # only, so these two would have aliased; the spec hash distinguishes them.
    assert base.spec_hash() == scenario.instantiate(
        seed=5, num_sessions=8).spec_hash()


def test_spec_dict_roundtrip():
    spec = small_spec(policy="lcp", seed=11)
    restored = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert restored == spec
    assert restored.spec_hash() == spec.spec_hash()


def test_registry_builtins_and_errors():
    registry = default_registry()
    assert {"excerpt", "summer", "smoke"} <= set(registry.names())
    with pytest.raises(KeyError, match="unknown scenario"):
        registry.get("nope")
    fresh = ScenarioRegistry()
    scenario = Scenario(name="custom", description="d", generator="philly")
    fresh.register(scenario)
    assert fresh.get("custom").generator == "philly"
    with pytest.raises(ValueError, match="already registered"):
        fresh.register(scenario)


def test_instantiate_overrides_and_defaults():
    scenario = default_registry().get("excerpt")
    spec = scenario.instantiate()
    assert spec.policy == "notebookos" and spec.seed == 7
    assert spec.generator_kwargs["num_sessions"] == 90
    spec = scenario.instantiate(policy="batch", seed=9, num_sessions=30,
                                duration_hours=None)
    assert spec.policy == "batch" and spec.seed == 9
    assert spec.generator_kwargs["num_sessions"] == 30
    # None overrides are ignored so CLI flags can pass through unset.
    assert spec.generator_kwargs["duration_hours"] == 17.5


def test_build_trace_is_deterministic():
    spec = small_spec()
    first, second = build_trace(spec), build_trace(spec)
    assert len(first) == len(second) == 6
    assert first.total_task_count == second.total_task_count
    assert [t.submit_time for t in first.all_tasks] == \
        [t.submit_time for t in second.all_tasks]


# ----------------------------------------------------------------------
# Sweep expansion.
# ----------------------------------------------------------------------
def test_sweep_grid_expansion():
    grid = SweepGrid(scenario="smoke", policies=("reservation", "batch"),
                     seeds=(1, 2, 3),
                     generator_grid={"num_sessions": [4, 8]})
    specs = grid.expand()
    assert len(specs) == grid.size() == 12
    assert len({spec.spec_hash() for spec in specs}) == 12
    # Policies vary slowest, then seeds, then the generator grid.
    assert [s.policy for s in specs[:6]] == ["reservation"] * 6
    assert [s.seed for s in specs[:2]] == [1, 1]
    assert [s.generator_kwargs["num_sessions"] for s in specs[:2]] == [4, 8]
    # A None seed means the scenario default.
    default_seed = SweepGrid(scenario="smoke").expand()[0].seed
    assert default_seed == default_registry().get("smoke").default_seed


# ----------------------------------------------------------------------
# Result store.
# ----------------------------------------------------------------------
def test_store_miss_save_hit(tmp_path):
    store = ResultStore(tmp_path)
    spec = small_spec()
    assert store.load(spec) is None
    assert store.misses == 1

    outcome = run_spec(spec, store=store)
    assert not outcome.cached
    path = store.path_for(spec)
    assert path.exists()
    assert spec.scenario in str(path.parent)

    loaded = store.load(spec)
    assert isinstance(loaded, ExperimentResult)
    assert loaded.summary() == outcome.result.summary()
    assert store.hits == 1
    entries = list(store.entries())
    assert len(entries) == 1 and entries[0][0] == spec


def test_store_rejects_corrupt_and_mismatched_entries(tmp_path):
    store = ResultStore(tmp_path)
    spec = small_spec()
    run_spec(spec, store=store)
    path = store.path_for(spec)

    payload = json.loads(path.read_text())
    payload["schema_version"] = SCHEMA_VERSION + 1
    path.write_text(json.dumps(payload))
    assert store.load(spec) is None

    # Entries written by a different package version are stale: the spec
    # hash covers parameters, not simulator code.
    payload["schema_version"] = SCHEMA_VERSION
    payload["repro_version"] = "0.0.0-older"
    path.write_text(json.dumps(payload))
    assert store.load(spec) is None

    path.write_text("{not json")
    assert store.load(spec) is None
    # A rerun repairs the entry.
    outcome = run_spec(spec, store=store)
    assert not outcome.cached
    assert store.load(spec) is not None


def test_store_truncated_entry_is_a_miss_then_repaired(tmp_path):
    spec = small_spec()
    store = ResultStore(tmp_path)
    outcome = run_spec(spec, store=store)
    path = store.path_for(spec)
    full = path.read_text()

    # A write torn mid-flight (the failure os.replace prevents) must read
    # as a miss, never as garbage or a crash.
    path.write_text(full[:len(full) // 2])
    assert store.load(spec) is None
    store.save(spec, outcome.result.to_dict())
    assert store.load(spec) is not None


def test_store_save_leaves_no_temp_droppings(tmp_path):
    run_spec(small_spec(), store=ResultStore(tmp_path))
    leftovers = [p for p in tmp_path.rglob("*")
                 if p.is_file() and not p.name.endswith(".json")]
    assert leftovers == []


def test_store_save_is_atomic_under_interrupt(tmp_path, monkeypatch):
    """If the final rename never happens, the old entry must be intact."""
    spec = small_spec()
    store = ResultStore(tmp_path)
    outcome = run_spec(spec, store=store)
    before = store.path_for(spec).read_text()

    def exploding_replace(src, dst):
        raise OSError("simulated crash before rename")

    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            store.save(spec, outcome.result.to_dict())

    assert store.path_for(spec).read_text() == before  # untouched
    assert store.load(spec) is not None


# ----------------------------------------------------------------------
# Runner determinism and caching.
# ----------------------------------------------------------------------
def fingerprint(result):
    return (result.collector.interactivity_cdf().values,
            result.provisioned_gpu_hours,
            [t.executor_replica for t in result.collector.tasks])


def test_serial_and_parallel_runs_are_identical(tmp_path):
    grid = SweepGrid(scenario="smoke", policies=("notebookos", "reservation"),
                     seeds=(3, 4), generator_grid={"num_sessions": [6],
                                                   "duration_hours": [1.0]})
    specs = grid.expand()
    serial_store = ResultStore(tmp_path / "serial")
    parallel_store = ResultStore(tmp_path / "parallel")

    serial = run_specs(specs, workers=1, store=serial_store)
    parallel = run_specs(specs, workers=2, store=parallel_store)
    assert len(serial) == len(parallel) == 4
    for s_out, p_out in zip(serial, parallel):
        assert s_out.spec == p_out.spec
        assert not s_out.cached and not p_out.cached
        assert fingerprint(s_out.result) == fingerprint(p_out.result)

    # A second pass over either store is served entirely from disk and
    # reproduces the same metrics.
    rerun = run_specs(specs, workers=1, store=serial_store)
    assert all(outcome.cached for outcome in rerun)
    for fresh, cached in zip(serial, rerun):
        assert fingerprint(fresh.result) == fingerprint(cached.result)


def test_duplicate_specs_execute_once(tmp_path):
    spec = small_spec()
    messages = []
    outcomes = run_specs([spec, spec], workers=1,
                         store=ResultStore(tmp_path), progress=messages.append)
    assert len(outcomes) == 2
    assert fingerprint(outcomes[0].result) == fingerprint(outcomes[1].result)
    assert len(messages) == 2


def test_runner_without_store():
    outcome = run_spec(small_spec())
    assert not outcome.cached
    assert outcome.result.collector.tasks


# ----------------------------------------------------------------------
# Failed specs: salvage, strict, resume.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_fails_bad_spec_and_salvages_rest(tmp_path, workers):
    store = ResultStore(tmp_path)
    specs = [small_spec(policy)
             for policy in ("notebookos", "no-such-policy", "batch")]
    outcomes = run_specs(specs, workers=workers, store=store, strict=False)
    assert len(outcomes) == 3
    by_policy = {outcome.spec.policy: outcome for outcome in outcomes}
    bad = by_policy["no-such-policy"]
    assert bad.failed and bad.result is None
    assert "no-such-policy" in bad.error
    assert bad.traceback and "UnknownPolicyError" in bad.traceback
    for policy in ("notebookos", "batch"):
        outcome = by_policy[policy]
        assert not outcome.failed
        assert store.load(outcome.spec) is not None  # salvaged AND stored
    assert store.load(bad.spec) is None


def test_sweep_strict_raises_at_end_with_failures_attached(tmp_path):
    store = ResultStore(tmp_path)
    specs = [small_spec("notebookos"), small_spec("no-such-policy")]
    with pytest.raises(SweepExecutionError) as excinfo:
        run_specs(specs, workers=2, store=store, strict=True)
    assert len(excinfo.value.failures) == 1
    assert excinfo.value.failures[0].spec.policy == "no-such-policy"
    # Salvage happened before the raise: the healthy spec is stored.
    assert store.load(specs[0]) is not None


def test_sweep_resume_reruns_nothing_stored(tmp_path, monkeypatch):
    store = ResultStore(tmp_path)
    specs = [small_spec("notebookos"), small_spec("batch")]
    first = run_specs(specs, workers=1, store=store)
    assert all(not outcome.cached for outcome in first)

    # Resume: every spec is served from the store; execution would explode.
    def forbidden(spec_dict):
        raise AssertionError("resume must not re-run stored specs")

    monkeypatch.setattr(runner, "_execute_spec", forbidden)
    second = run_specs(specs, workers=1, store=store)
    assert all(outcome.cached for outcome in second)
    assert [a.result.collector.to_dict() for a in first] == \
        [b.result.collector.to_dict() for b in second]


def test_sweep_with_a_sigkilled_worker_fails_only_unfinished_specs(
        tmp_path, monkeypatch):
    """Killing a pool worker breaks the pool: every spec still running or
    pending fails with the pool's error, every finished spec is stored, and
    rerunning the sweep executes only the failed specs."""
    store = ResultStore(tmp_path)
    specs = [small_spec(policy) for policy in ("notebookos", "batch", "lcp")]
    execute_spec = runner._execute_spec

    def sigkill_batch_once_a_result_is_stored(spec_dict):
        # Runs in the pool workers, which fork after the patch below.
        # notebookos runs; the batch worker SIGKILLs itself once that result
        # is stored; lcp waits, so it is still running when the pool breaks.
        if spec_dict["policy"] == "notebookos":
            return execute_spec(spec_dict)
        deadline = time.monotonic() + 30.0
        while (not any(tmp_path.rglob("*.json"))
               and time.monotonic() < deadline):
            time.sleep(0.01)
        if spec_dict["policy"] == "batch":
            os.kill(os.getpid(), signal.SIGKILL)
        while time.monotonic() < deadline:
            time.sleep(0.01)
        return execute_spec(spec_dict)

    with monkeypatch.context() as patch:
        patch.setattr(runner, "_execute_spec",
                      sigkill_batch_once_a_result_is_stored)
        first = run_specs(specs, workers=2, store=store, strict=False)
    assert [outcome.spec for outcome in first] == specs
    assert [outcome.failed for outcome in first] == [False, True, True]
    assert all("BrokenProcessPool" in outcome.error for outcome in first[1:])
    assert [store.load(spec) is not None for spec in specs] == \
        [True, False, False]

    rerun = run_specs(specs, workers=2, store=store)
    assert [outcome.cached for outcome in rerun] == [True, False, False]


# ----------------------------------------------------------------------
# CLI.
# ----------------------------------------------------------------------
def test_cli_list(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("excerpt", "summer", "smoke"):
        assert name in out


def test_cli_run_and_cache_hit(tmp_path, capsys):
    argv = ["run", "smoke", "--sessions", "6", "--hours", "1.0",
            "--seed", "3", "--store-dir", str(tmp_path)]
    assert cli_main(argv) == 0
    out = capsys.readouterr().out
    assert "ran in" in out and "0/1 cache hits" in out

    assert cli_main(argv) == 0
    out = capsys.readouterr().out
    assert "cache hit" in out and "1/1 cache hits" in out


def test_cli_sweep(tmp_path, capsys):
    argv = ["sweep", "--scenario", "smoke", "--policies", "notebookos,batch",
            "--seeds", "3,4", "--sessions", "6", "--workers", "1",
            "--store-dir", str(tmp_path)]
    assert cli_main(argv) == 0
    out = capsys.readouterr().out
    assert "sweep: 4 runs" in out and "0/4 cache hits" in out

    assert cli_main(argv) == 0
    out = capsys.readouterr().out
    assert "4/4 cache hits" in out


def test_benchmark_trace_cache_keys_on_full_parameter_set():
    from benchmarks import common

    base = common.summer_trace(seed=5, num_sessions=4)
    same = common.summer_trace(seed=5, num_sessions=4)
    assert same is base  # cache hit
    shorter_bouts = common.summer_trace(seed=5, num_sessions=4,
                                        work_bout_hours=0.25, bouts_per_day=0.5)
    assert shorter_bouts is not base
    assert shorter_bouts.total_task_count != base.total_task_count
