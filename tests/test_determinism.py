"""Property-style determinism tests for the simulation engine.

These are the regression net for the engine: randomized process
structures are generated from a seed and executed twice, the two runs must
produce bit-identical execution traces, and the traces of fixed seeds are
pinned.  On top of the raw engine, a full platform experiment must
serialize identically across (a) two independent runs and (b) a JSON
round-trip of the resulting :class:`~repro.metrics.collector.MetricsCollector`.
"""

import ast
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RUN_END, RunSpec, Simulation, default_policy_registry
from repro.cluster.container import ContainerRuntime
from repro.cluster.provisioner import VMProvisioner
from repro.cluster.resources import ResourceRequest
from repro.core import ClusterConfig, NotebookOSPlatform
from repro.core.election import ExecutorElection
from repro.experiments import default_registry
from repro.experiments.runner import _execute_spec
from repro.experiments.scenarios import build_trace
from repro.metrics.collector import ExperimentResult, MetricsCollector
from repro.qos.targets import QosConfig
from repro.shard import ShardPlan, run_sharded
from repro.simulation import AllOf, Environment, SeededRandom
from repro.statesync.ast_analysis import clear_ast_cache
from repro.workload import AdobeTraceGenerator


# ----------------------------------------------------------------------
# Randomized engine structures.
# ----------------------------------------------------------------------
def run_random_structure(seed: int) -> list:
    """Build and run a random process structure; return its execution trace.

    The structure mixes every engine primitive the simulator relies on:
    number sleeps, ``env.at`` wake-ups, ``env.defer`` callbacks, bare events
    signalled and awaited across processes, and child processes joined with
    ``AllOf`` or awaited one at a time.  One seeded PRNG picks each step as
    the step runs, so the structure itself depends on the dispatch order.
    """
    rng = random.Random(seed)
    env = Environment()
    trace: list = []
    signals = [env.event() for _ in range(rng.randint(1, 4))]

    def note(*entry):
        return lambda _stub: trace.append(entry + (env.now,))

    def worker(wid: int, depth: int):
        for step in range(rng.randint(1, 5)):
            choice = rng.random()
            if choice < 0.3:
                delay = rng.choice([0.0, 0.5, 1.0, 1.5, rng.random()])
                if rng.random() < 0.5:
                    yield delay
                else:
                    yield env.at(env.now + delay)
                trace.append(("slept", wid, step, env.now))
            elif choice < 0.5 and depth < 2:
                children = [env.process(worker(wid * 10 + c, depth + 1))
                            for c in range(rng.randint(1, 3))]
                if rng.random() < 0.7:
                    done = yield AllOf(env, children)
                    trace.append(("joined", wid, step, len(done), env.now))
                else:
                    for child in children:
                        value = yield child
                        trace.append(("awaited", wid, step, value, env.now))
            elif choice < 0.65:
                signal = rng.choice(signals)
                if not signal.triggered:
                    signal.succeed((wid, step))
                    trace.append(("signalled", wid, step, env.now))
                yield rng.random() * 0.2
            elif choice < 0.8:
                value = yield rng.choice(signals)
                trace.append(("woken", wid, step, value, env.now))
            else:
                env.defer(rng.choice([0.0, 0.25, 2.0, rng.random()]),
                          note("deferred", wid, step))
                yield rng.choice([5.0, 10.0, 20.0])
                trace.append(("long-nap", wid, step, env.now))
        return wid

    for i in range(rng.randint(2, 6)):
        env.process(worker(i, 0))

    def late_signaller():
        yield rng.random() * 2.0
        for signal in signals:
            if not signal.triggered:
                signal.succeed("late")
                trace.append(("late-signal", env.now))

    env.process(late_signaller())
    env.run(until=60.0)
    trace.append(("final", env.now))
    return trace


def _trace_digest(trace: list) -> str:
    return hashlib.sha256(repr(trace).encode()).hexdigest()[:16]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_structures_replay_identically(seed):
    assert run_random_structure(seed) == run_random_structure(seed)


def test_different_seeds_produce_different_traces():
    # Sanity check that the generator actually varies with the seed (a
    # constant trace would make the property above vacuous).
    traces = {tuple(map(repr, run_random_structure(seed))) for seed in range(8)}
    assert len(traces) > 1


#: sha256 prefixes of ``repr(run_random_structure(seed))``, recorded on the
#: calendar-queue engine that the single-heap engine replaced.  They pin
#: the dispatch order of every primitive without keeping the old engine.
RANDOM_STRUCTURE_DIGESTS = {
    0: "1bc596deb8359e77", 1: "d210834ff84ed88b", 2: "2140a4cf74e927b8",
    3: "25aa477a1f05fa16", 4: "c3567acf6ad35de9", 5: "21fc28a675db5b81",
    6: "5f0822722b493790", 7: "83836306ca7dd4ec", 8: "cda80223337d03f4",
    9: "05e824fd46d56f7f", 10: "c8b0ed30c6692682", 11: "33a1621055f8ddac",
}


def test_random_structure_traces_are_pinned():
    assert {seed: _trace_digest(run_random_structure(seed))
            for seed in RANDOM_STRUCTURE_DIGESTS} == RANDOM_STRUCTURE_DIGESTS


# ----------------------------------------------------------------------
# Full-experiment determinism and collector round-trips.
# ----------------------------------------------------------------------
def _canonical(result_dict: dict) -> str:
    # wall_clock_runtime is the only legitimately nondeterministic field.
    cleaned = dict(result_dict)
    cleaned.pop("wall_clock_runtime", None)
    return json.dumps(cleaned, sort_keys=True)


def test_smoke_experiment_runs_are_bit_identical():
    spec = default_registry().get("smoke").instantiate().to_dict()
    first = _execute_spec(dict(spec))
    second = _execute_spec(dict(spec))
    assert _canonical(first) == _canonical(second)


def test_collector_json_round_trip_is_bit_identical():
    spec = default_registry().get("smoke").instantiate().to_dict()
    result = ExperimentResult.from_dict(_execute_spec(spec))
    collector_dict = result.collector.to_dict()
    round_tripped = MetricsCollector.from_dict(
        json.loads(json.dumps(collector_dict))).to_dict()
    assert json.dumps(round_tripped, sort_keys=True) == \
        json.dumps(collector_dict, sort_keys=True)


def _digest(result) -> str:
    canonical = json.dumps(result.collector.to_dict(), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ----------------------------------------------------------------------
# The stepped replay equals run_workload.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", ["notebookos", "batch", "lcp",
                                    "reservation"])
def test_stepped_replay_matches_run_workload(policy):
    """begin / step_workload_until x N / drain / finish — the sequence the
    shard runner and the benchmark drive — is the same run as
    ``run_workload`` for any epoch count."""
    spec = RunSpec.from_scenario("smoke", policy=policy)
    expected = _digest(Simulation.from_spec(spec).run())
    for epochs in (1, 7, 64):
        simulation = Simulation.from_spec(spec)
        trace = build_trace(simulation.spec)
        platform = simulation.build(trace)
        platform.begin_workload(trace)
        try:
            for epoch in range(epochs):
                platform.step_workload_until(
                    trace.duration * (epoch + 1) / epochs)
            platform.drain_workload()
            result = platform.finish_workload()
        finally:
            platform.detach_metrics()
        assert _digest(result) == expected, (policy, epochs)


# ----------------------------------------------------------------------
# Two full replays in one process are the same run.
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("policy", ["notebookos", "reservation", "lcp",
                                    "batch"])
def test_replay_twice_in_one_process_is_bit_identical(policy, monkeypatch):
    """A second replay in the same process repeats the first exactly: the
    collector digest, every task's placement and timing, and every election.

    perfbench replays each workload several times in one process and counts
    every task of a repetition whose digest disagrees as failed; this pins
    the same property on a trace that migrates, scales and queues.
    """
    elections = []
    decide = ExecutorElection.decide

    def recording_decide(self, proposals, preferred_replica=None):
        outcome = decide(self, proposals, preferred_replica)
        elections.append((self.kernel_id,) + outcome.signature())
        return outcome

    monkeypatch.setattr(ExecutorElection, "decide", recording_decide)

    def replay():
        elections.clear()
        trace = AdobeTraceGenerator(seed=5, num_sessions=40,
                                    duration_hours=4.0).generate()
        platform = NotebookOSPlatform(
            default_policy_registry().create(policy),
            cluster_config=ClusterConfig(initial_hosts=12))
        result = platform.run_workload(trace)
        tasks = [(t.session_id, t.kernel_id, t.executor_replica,
                  t.submitted_at, t.started_at, t.completed_at, t.status)
                 for t in result.collector.tasks]
        return _digest(result), tasks, list(elections)

    digest, tasks, election_log = replay()
    assert tasks
    if policy == "notebookos":
        assert election_log
    again = replay()
    assert again[0] == digest, "collector digests differ"
    assert again[1] == tasks, "per-task placements or timings differ"
    assert again[2] == election_log, "election outcomes differ"


# ----------------------------------------------------------------------
# perfbench's three workload shapes replay identically in one process.
# ----------------------------------------------------------------------
STORM_QOS = "interactivity:p99>60:autoscaler_override,extra_hosts=2,hold_s=900"


def _replay_stepped(spec):
    """One platform driven the way perfbench drives it: 64 epochs."""
    stats = []
    simulation = Simulation.from_spec(spec)
    trace = build_trace(simulation.spec)
    platform = simulation.build(trace)
    platform.hooks.subscribe(RUN_END, lambda _p, _r, run_stats:
                             stats.append(run_stats))
    platform.begin_workload(trace)
    try:
        for epoch in range(64):
            platform.step_workload_until(trace.duration * (epoch + 1) / 64)
        platform.drain_workload()
        result = platform.finish_workload()
    finally:
        platform.detach_metrics()
    (run_stats,) = stats
    # The RUN_END stats perfbench's per-layer table reads.
    return _digest(result), (run_stats["dispatch"]["dispatched"],
                             run_stats["dispatch"]["batches"],
                             run_stats["ast_cache_hits"],
                             run_stats["ast_cache_misses"])


def _replay_storm_shards(spec):
    """The K=2 serial-driver storm with a p99 QoS target."""
    sharded = run_sharded(spec, 2, parallel=False)
    shards = [payload["shard"] for payload in sharded.shard_payloads]
    epochs = ShardPlan.from_trace(build_trace(spec), 2).num_epochs
    assert [len(s["dispatched_per_epoch"]) for s in shards] == [epochs] * 2
    # The shards must note pressure, or the barrier frames carry nothing.
    assert sum(s["pressure_events"] for s in shards) > 0
    return _digest(sharded.result), [
        (s["dispatched_per_epoch"], s["pressure_gpus"]) for s in shards]


@pytest.mark.parametrize("case", ["smoke-notebookos", "smoke-batch",
                                  "failure_storm-shards"])
def test_perfbench_workload_shapes_replay_identically_in_one_process(case):
    """perfbench replays each workload several times in one process and
    counts every task of a repetition whose digest disagrees as failed.
    Each of its three shapes, at test size, must repeat exactly."""
    if case == "failure_storm-shards":
        qos = QosConfig.from_specs([STORM_QOS], window_s=300.0).to_dict()
        spec = RunSpec.from_scenario("failure_storm", policy="notebookos",
                                     qos=qos)
        replay = _replay_storm_shards
    else:
        spec = RunSpec.from_scenario("smoke", policy=case.split("-")[1])
        replay = _replay_stepped
    runs = []
    for _ in range(2):
        clear_ast_cache()  # as cold as a fresh process, like perfbench
        runs.append(replay(spec))
    assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# Pinned digests of the excerpt and the K=2 failure storm.
# ----------------------------------------------------------------------
#: Collector sha256 prefixes of ``Simulation.from_spec(spec).run()`` on the
#: excerpt at seed 1.  Batch and LCP share the data store and the request
#: path with NotebookOS, so a speed-up that claims byte-identity must hold
#: all four.  A behaviour change re-pins the digests it moves, on purpose.
EXCERPT_SEED1_DIGESTS = {
    "notebookos": "3f56a656d202f313",
    "reservation": "a46627567148ac4b",
    "batch": "50dd556a4d2f46cf",
    "lcp": "be6e34fe9d0f102a",
}
#: ``failure_storm`` at its defaults, K=2 shards, serial driver (the
#: parallel driver must equal it; the CI storm smoke checks that).
FAILURE_STORM_K2_DIGEST = "24f591a05b322998"


@pytest.mark.parametrize("policy", sorted(EXCERPT_SEED1_DIGESTS))
def test_excerpt_seed1_digests_are_pinned(policy):
    spec = RunSpec.from_scenario("excerpt", policy=policy, seed=1)
    result = Simulation.from_spec(spec).run()
    assert _digest(result)[:16] == EXCERPT_SEED1_DIGESTS[policy]


def test_failure_storm_k2_serial_digest_is_pinned():
    spec = RunSpec.from_scenario("failure_storm")
    sharded = run_sharded(spec, 2, parallel=False)
    assert _digest(sharded.result)[:16] == FAILURE_STORM_K2_DIGEST


# ----------------------------------------------------------------------
# Pinned engine work.
# ----------------------------------------------------------------------
#: ``dispatch_stats()`` after ``Simulation.from_scenario(scenario,
#: policy=policy).run()`` at the default seeds: entries dispatched, fused
#: same-timestamp batches, heap serials.  Exact counts, so any change in
#: engine work fails here without a timing band; a change that moves engine
#: work on purpose re-pins them and says so.
DISPATCH_COUNTS = {
    ("smoke", "notebookos"): (1263, 868, 1090),
    ("smoke", "batch"): (1147, 795, 924),
    ("smoke", "lcp"): (1258, 906, 1044),
    ("smoke", "reservation"): (886, 631, 767),
    ("failure_storm", "notebookos"): (8499, 7176, 7367),
}


@pytest.mark.parametrize("scenario,policy", sorted(DISPATCH_COUNTS))
def test_dispatch_counts_are_pinned(scenario, policy):
    simulation = Simulation.from_scenario(scenario, policy=policy)
    simulation.run()
    stats = simulation.platform.env.dispatch_stats()
    assert (stats["dispatched"], stats["batches"], stats["serials"]) == \
        DISPATCH_COUNTS[scenario, policy]


# ----------------------------------------------------------------------
# No per-process state leaks into ids or fallback seeds.
# ----------------------------------------------------------------------
def _stored_objects(simulation: Simulation) -> list:
    simulation.run()
    objects = simulation.platform.datastore._objects  # noqa: SLF001
    return sorted((key, stored.object_id, stored.version)
                  for key, stored in objects.items())


def test_identical_replays_mint_identical_object_ids():
    spec = RunSpec.from_scenario("smoke", policy="notebookos")
    first = _stored_objects(Simulation.from_spec(spec))
    second = _stored_objects(Simulation.from_spec(spec))
    assert first, "the smoke replay checkpointed nothing"
    # Ids come from the run's own serials, not a process-wide counter that
    # the first replay would have advanced.
    assert first == second
    assert len({object_id for _, object_id, _ in first}) == len(first)



def _mint_ids() -> tuple:
    env = Environment()
    runtime = ContainerRuntime(env, "host-1")
    containers = [runtime.begin_provision(ResourceRequest(gpus=1))[0]
                  for _ in range(2)]
    provisioner = VMProvisioner(env, rng=SeededRandom(1))
    for _ in range(2):
        env.process(provisioner.provision())
    env.run()
    return ([container.container_id for container in containers],
            [request.request_id for request in provisioner.requests])


def test_fresh_environments_mint_identical_container_and_request_ids():
    first = _mint_ids()
    second = _mint_ids()
    assert first == second == (["container-1", "container-2"], [1, 2])


def _process_wide_counters(path: Path) -> list:
    """Line numbers of every ``count(...)`` bound outside a function."""

    def is_count(call) -> bool:
        func = call.func
        if isinstance(func, ast.Name):
            return func.id == "count"
        return (isinstance(func, ast.Attribute) and func.attr == "count"
                and isinstance(func.value, ast.Name)
                and func.value.id == "itertools")

    found = []
    pending = list(ast.parse(path.read_text(), filename=str(path)).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # per-call or per-instance state is fine
        if isinstance(node, (ast.Assign, ast.AnnAssign)) \
                and isinstance(node.value, ast.Call) and is_count(node.value):
            found.append(node.lineno)
        pending.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_no_process_wide_id_counters():
    # A counter bound at import time outlives the run that advanced it, so
    # ids minted from it depend on what ran before in the process; mint
    # from Environment.next_serial instead.
    src = Path(__file__).resolve().parent.parent / "src"
    offenders = [f"{path.relative_to(src)}:{line}"
                 for path in sorted((src / "repro").rglob("*.py"))
                 for line in _process_wide_counters(path)]
    assert not offenders, "process-wide count(): " + ", ".join(offenders)


_FALLBACK_STREAMS = """
import json
from repro.cluster.container import ContainerRuntime
from repro.cluster.host import Host
from repro.core.election import ExecutorElection, ReplicaProposal
from repro.core.local_scheduler import LocalScheduler
from repro.simulation import Environment
from repro.statesync.synchronizer import StateSynchronizer

election = ExecutorElection("kernel-7")   # no rng: the fallback seed
decisions = []
for round_index in range(40):
    proposals = [ReplicaProposal(replica_id=f"kernel-7-replica-{i}",
                                 host_id=f"host-{i}",
                                 lead=(round_index + i) % 3 != 0)
                 for i in range(3)]
    preferred = "kernel-7-replica-1" if round_index % 4 == 0 else None
    decisions.append(election.decide(proposals, preferred).signature())
env = Environment()
draws = [
    StateSynchronizer(env, "kernel-7", checkpoint_manager=None)._rng.random(),
    LocalScheduler(env, Host(host_id="host-3"))._rng.random(),
    ContainerRuntime(env, "host-3")._rng.random(),
]
print(json.dumps({"decisions": decisions, "draws": draws}))
"""


def test_fallback_seeds_do_not_depend_on_hash_randomization():
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        child = subprocess.run([sys.executable, "-c", _FALLBACK_STREAMS],
                               env=env, capture_output=True, text=True,
                               timeout=120, check=True)
        outputs.append(json.loads(child.stdout))
    assert outputs[0] == outputs[1]
    # Both branches ran: some elections were designated, some drew.
    converted = [decision[3] for decision in outputs[0]["decisions"]]
    assert any(converted) and not all(converted)
