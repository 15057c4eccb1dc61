"""Property tests: batched/cached policy decisions ≡ the frozen reference.

The decision cache in :mod:`repro.core.runstate` memoizes pure policy
decisions behind version guards, and ``RunState.admit`` batches
same-timestamp admissions into one ``decide_batch`` call per policy per
timestamp.  The contract is *bit-identical decisions*: across arbitrary
cluster states and churn sequences, every cached answer must equal what the
frozen per-task reference path (``DecisionCache(enabled=False)``, which
bypasses the store entirely) computes at the same instant.

Mirrors ``tests/test_placement_index.py``: hypothesis drives randomized
operation sequences — subscribe / unsubscribe / bind / release /
decommission / provision — against one cluster, interleaved with decision
queries whose cached and frozen answers are compared element-by-element.
The adversarial invalidation tests then attack the guards directly: a host
failing or decommissioning between prime and query, a scale-out racing an
admission, and zero-GPU training entries popping (which change ``is_idle``
without moving any GPU counts).

The slow end-to-end differential replays a full trace under every built-in
policy twice — batching on vs. off — and compares collector digests,
per-task executor/timestamp tuples, and every election outcome signature.
"""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.container import Container
from repro.cluster.host import Host, HostSpec
from repro.cluster.prewarmer import ContainerPrewarmer
from repro.cluster.resources import ResourceRequest
from repro.core import ClusterConfig, NotebookOSPlatform, PlatformConfig
from repro.core.distributed_kernel import (
    DistributedKernel,
    KernelReplica,
    ReplicaState,
)
from repro.core.election import ExecutorElection
from repro.core.global_scheduler import ClusterState
from repro.core.placement import LeastLoadedPlacement
from repro.core.runstate import (
    AdmissionBatch,
    DecisionCache,
    RunState,
    TaskTable,
    compute_preferred_executor,
)
from repro.api import default_policy_registry
from repro.profiling import Profiler
from repro.workload import AdobeTraceGenerator, SessionTrace, TaskRecord, Trace


# ----------------------------------------------------------------------
# Randomized cluster evolution (mirrors tests/test_placement_index.py).
# ----------------------------------------------------------------------
def apply_ops(cluster: ClusterState, rng: random.Random, num_ops: int) -> None:
    """Mutate the cluster through every path that feeds the version guards."""
    for op_no in range(num_ops):
        op = rng.randrange(7)
        hosts = [h for h in cluster.hosts.values() if h.is_active]
        if op == 0 or not hosts:  # provision a host
            host_id = f"host-p{cluster.env.next_serial('batch-host'):04d}"
            spec = HostSpec(num_gpus=rng.choice((4, 8, 8, 16)))
            cluster.add_host(Host(host_id=host_id, spec=spec), scheduler=None)
        elif op == 1:  # subscribe
            host = rng.choice(hosts)
            host.subscribe(f"k-{rng.randrange(6)}", rng.choice((0, 1, 1, 2, 4)))
        elif op == 2:  # unsubscribe (possibly a no-op)
            host = rng.choice(hosts)
            host.unsubscribe(f"k-{rng.randrange(6)}")
        elif op == 3:  # bind GPUs (gpus=0 creates a zero-GPU training entry)
            host = rng.choice(hosts)
            kernel = f"k-{rng.randrange(6)}"
            gpus = rng.randrange(0, 4)
            if host.can_bind_gpus(gpus):
                host.bind_gpus(kernel, gpus, float(op_no))
        elif op == 4:  # release a training task's GPUs (possibly zero-GPU pop)
            host = rng.choice(hosts)
            host.release_gpus(f"k-{rng.randrange(6)}", float(op_no))
        elif op == 5 and len(hosts) > 1:  # decommission
            rng.choice(hosts).decommission(float(op_no))
        elif op == 6 and len(hosts) > 1:  # decommission + remove
            host = rng.choice(hosts)
            host.decommission(float(op_no))
            cluster.remove_host(host.host_id)


def make_cluster(seed: int, num_hosts: int, num_ops: int):
    from repro.simulation.engine import Environment

    rng = random.Random(seed)
    cluster = ClusterState(Environment())
    for i in range(num_hosts):
        spec = HostSpec(num_gpus=rng.choice((4, 8, 8, 16)))
        cluster.add_host(Host(host_id=f"host-{i:04d}", spec=spec),
                         scheduler=None)
    apply_ops(cluster, rng, num_ops)
    return cluster


def wire(policy: LeastLoadedPlacement, enabled: bool) -> DecisionCache:
    cache = DecisionCache(enabled=enabled)
    policy.decisions = cache
    return cache


placement_params = st.fixed_dictionaries({
    "oversubscription_enabled": st.booleans(),
    "subscription_ratio_limit": st.one_of(st.none(), st.floats(0.5, 4.0)),
    "high_watermark": st.floats(1.0, 5.0),
})


# ----------------------------------------------------------------------
# Differential: cached placement decisions vs. the frozen reference.
# ----------------------------------------------------------------------
@given(seed=st.integers(0, 2**32 - 1),
       num_hosts=st.integers(0, 40),
       num_ops=st.integers(0, 120),
       params=placement_params)
@settings(max_examples=100, deadline=None)
def test_cached_placement_decisions_match_reference(seed, num_hosts, num_ops,
                                                    params):
    cluster = make_cluster(seed, num_hosts, num_ops)
    cached_policy = LeastLoadedPlacement(**params)
    frozen_policy = LeastLoadedPlacement(**params)
    cache = wire(cached_policy, enabled=True)
    reference = wire(frozen_policy, enabled=False)
    rng = random.Random(seed ^ 0xBA7C4)

    for _ in range(6):
        gpus = rng.choice((0, 1, 1, 2, 4, 8, 17))
        request = ResourceRequest(millicpus=4000, memory_mb=16384, gpus=gpus,
                                  vram_gb=8.0 * gpus)
        replicas = rng.choice((1, 1, 3, 5))
        replication = rng.choice((1, 3))
        exclude = tuple(h.host_id for h in cluster.hosts.values()
                        if h.is_active and rng.random() < 0.2)

        # Each query runs twice back-to-back: the second answer must come
        # from the (possibly hit) cache and still equal the frozen path.
        for _repeat in range(2):
            assert cached_policy.effective_sr_limit(cluster, replication) == \
                frozen_policy.effective_sr_limit(cluster, replication)

            hot = cached_policy.candidate_hosts(cluster, request, replicas,
                                                replication,
                                                exclude_hosts=exclude)
            cold = frozen_policy.candidate_hosts(cluster, request, replicas,
                                                 replication,
                                                 exclude_hosts=exclude)
            assert hot.hosts == cold.hosts, "candidate_hosts diverged"
            assert hot.satisfied == cold.satisfied
            # Hits must never alias the cached value: consumers mutate the
            # decision object they receive.
            assert hot is not cold
            hot.hosts.append(None)  # must not corrupt the cache

            assert cache.most_idle_host(cluster, min(gpus, 16)) is \
                reference.most_idle_host(cluster, min(gpus, 16))

        # Mutate between query rounds so queries interleave with guard bumps.
        apply_ops(cluster, rng, 5)

    assert cache.hits + cache.misses > 0
    assert reference.hits == reference.misses == 0  # bypass counts nothing


# ----------------------------------------------------------------------
# Differential: cached kernel decisions vs. the frozen reference.
# ----------------------------------------------------------------------
def make_kernel(hosts, replica_states) -> DistributedKernel:
    kernel = DistributedKernel(
        kernel_id="k-diff", session_id="s-diff",
        resource_request=ResourceRequest(gpus=2),
        election=ExecutorElection("k-diff"))
    for index, (host, state) in enumerate(zip(hosts, replica_states)):
        container = Container(host_id=host.host_id,
                              resources=ResourceRequest(gpus=2),
                              container_id=f"c-diff-{index}")
        replica = KernelReplica(replica_id=f"k-diff-{index}",
                                kernel_id="k-diff", replica_index=index,
                                host=host, container=container)
        kernel.add_replica(replica)
        replica.state = state
    return kernel


kernel_ops = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 7), st.integers(0, 4)),
    min_size=0, max_size=40)


@given(seed=st.integers(0, 2**32 - 1),
       states=st.lists(st.sampled_from(list(ReplicaState)),
                       min_size=1, max_size=5),
       ops=kernel_ops)
@settings(max_examples=100, deadline=None)
def test_cached_kernel_decisions_match_reference(seed, states, ops):
    rng = random.Random(seed)
    hosts = [Host(host_id=f"host-{i}", spec=HostSpec(num_gpus=rng.choice((2, 8))))
             for i in range(len(states))]
    kernel = make_kernel(hosts, states)
    cache = DecisionCache(enabled=True)
    reference = DecisionCache(enabled=False)

    def check(gpus: int) -> None:
        # Twice: force both the miss path and the (guard-unchanged) hit path.
        for _repeat in range(2):
            assert cache.preferred_executor(kernel, gpus) == \
                compute_preferred_executor(kernel, gpus)
            assert cache.preferred_executor(kernel, gpus) == \
                reference.preferred_executor(kernel, gpus)
            cached_proposals = cache.proposals(kernel, gpus)
            frozen_proposals = kernel.make_proposals(gpus)
            assert [(p.replica_id, p.host_id, p.lead) for p in cached_proposals] \
                == [(p.replica_id, p.host_id, p.lead) for p in frozen_proposals]

    check(0)
    for op, arg, gpus in ops:
        replicas = kernel.replicas
        if op == 0 and replicas:  # replica state transition
            replica = replicas[arg % len(replicas)]
            replica.state = list(ReplicaState)[arg % len(ReplicaState)]
        elif op == 1 and replicas:  # host GPU churn under a replica
            host = replicas[arg % len(replicas)].host
            if host.can_bind_gpus(arg % 3):
                host.bind_gpus(f"other-{arg}", arg % 3, 0.0)
        elif op == 2 and replicas:  # release (possibly zero-GPU pop)
            host = replicas[arg % len(replicas)].host
            host.release_gpus(f"other-{arg}", 0.0)
        elif op == 3:  # a past election changes the preferred previous winner
            kernel.election.last_executor_id = \
                f"k-diff-{arg % max(1, len(replicas))}"
        elif op == 4 and len(replicas) > 1:  # replica-set change
            kernel.remove_replica(replicas[arg % len(replicas)].replica_id)
        check(gpus)

    assert cache.hits > 0  # the repeat queries above must actually hit


# ----------------------------------------------------------------------
# Adversarial invalidation: deltas racing a primed cache.
# ----------------------------------------------------------------------
def test_decommission_mid_batch_invalidates_host_probe():
    """A host failing between prime and query must drop out of the answer."""
    cluster = make_cluster(seed=11, num_hosts=6, num_ops=0)
    cache = DecisionCache(enabled=True)
    primed = cache.most_idle_host(cluster, 1)
    assert primed is not None
    assert cache.most_idle_host(cluster, 1) is primed  # hit while quiet
    hits_before = cache.hits

    primed.decommission(now=1.0)
    cluster.remove_host(primed.host_id)

    after = cache.most_idle_host(cluster, 1)
    assert after is not primed
    assert after is DecisionCache(enabled=False).most_idle_host(cluster, 1)
    assert cache.hits == hits_before  # the delta forced a recompute


def test_scale_out_racing_admission_invalidates_candidates():
    """A host provisioned between prime and query must become placeable."""
    cluster = make_cluster(seed=23, num_hosts=2, num_ops=0)
    for host in cluster.hosts.values():
        # Past the high watermark (3.0), so even the second placement pass
        # rejects the host: SR after = (10G + 1) / 3G > 3.0.
        host.subscribe("k-busy", host.spec.num_gpus * 10)
    policy = LeastLoadedPlacement(subscription_ratio_limit=1.0)
    cache = wire(policy, enabled=True)
    request = ResourceRequest(gpus=1)

    primed = policy.candidate_hosts(cluster, request, 3, 3)
    assert not primed.satisfied
    assert policy.candidate_hosts(cluster, request, 3, 3).hosts == primed.hosts

    fresh = [Host(host_id=f"host-new-{i}", spec=HostSpec(num_gpus=8))
             for i in range(3)]
    for host in fresh:
        cluster.add_host(host, scheduler=None)

    decision = policy.candidate_hosts(cluster, request, 3, 3)
    assert decision.satisfied
    assert decision.hosts == fresh
    frozen = LeastLoadedPlacement(subscription_ratio_limit=1.0)
    assert decision.hosts == frozen.candidate_hosts(cluster, request, 3, 3).hosts
    assert cache.hits > 0


def test_zero_gpu_release_invalidates_probe():
    """Popping a zero-GPU training entry still bumps the guard.

    A zero-GPU bind/release moves no GPU counts but flips ``is_idle`` —
    the cache must treat it as a delta (costing at worst a miss, never a
    stale hit)."""
    cluster = make_cluster(seed=31, num_hosts=3, num_ops=0)
    host = next(iter(cluster.hosts.values()))
    host.bind_gpus("k-zero", 0, 0.0)
    cache = DecisionCache(enabled=True)
    version_before = cluster.version

    cache.most_idle_host(cluster, 1)
    host.release_gpus("k-zero", 1.0)  # zero-GPU entry pops
    assert cluster.version > version_before
    cache.most_idle_host(cluster, 1)
    assert cache.misses == 2 and cache.hits == 0


def test_warm_pool_churn_invalidates_lcp_probe():
    """Warm-pool mutations must invalidate the LCP host scan."""
    from repro.simulation.engine import Environment

    env = Environment()
    cluster = ClusterState(env)
    cluster.add_host(Host(host_id="host-a", spec=HostSpec(num_gpus=8)),
                     scheduler=None)
    prewarmer = ContainerPrewarmer(env)
    cache = DecisionCache(enabled=True)
    computes = []

    def compute():
        computes.append(1)
        return "answer"

    assert cache.warm_pool_host(cluster, prewarmer, 1, compute) == "answer"
    assert cache.warm_pool_host(cluster, prewarmer, 1, compute) == "answer"
    assert len(computes) == 1  # second query hit

    prewarmer.register_host("host-a", runtime=None)  # pool delta
    cache.warm_pool_host(cluster, prewarmer, 1, compute)
    assert len(computes) == 2  # pool churn alone forced the recompute


@pytest.mark.parametrize("transition", [ReplicaState.EXECUTING,
                                        ReplicaState.MIGRATING,
                                        ReplicaState.TERMINATED])
def test_kernel_decisions_miss_after_bare_replica_state_change(transition):
    """A replica state change alone — no replica-set change, no host
    delta, no kernel-side bookkeeping — must invalidate both entries."""
    hosts = [Host(host_id=f"host-{i}", spec=HostSpec(num_gpus=8))
             for i in range(3)]
    kernel = make_kernel(hosts, [ReplicaState.IDLE] * 3)
    kernel.election.last_executor_id = "k-diff-1"
    cache = DecisionCache(enabled=True)
    assert cache.preferred_executor(kernel, 2) == "k-diff-1"
    before = cache.proposals(kernel, 2)
    assert [p.lead for p in before] == [True, True, True]
    assert cache.preferred_executor(kernel, 2) == "k-diff-1"
    assert cache.proposals(kernel, 2) is before
    hits, misses = cache.hits, cache.misses
    assert (hits, misses) == (2, 2)

    version = kernel.decision_version
    host_versions = [host.version for host in hosts]
    kernel.replicas[1].state = transition
    assert kernel.decision_version == version
    assert [host.version for host in hosts] == host_versions

    preferred = cache.preferred_executor(kernel, 2)
    assert cache.misses == misses + 1
    assert preferred == compute_preferred_executor(kernel, 2) != "k-diff-1"
    after = cache.proposals(kernel, 2)
    assert cache.misses == misses + 2
    assert after == kernel.make_proposals(2) != before
    assert cache.hits == hits


def test_namespace_memo_is_stable_and_equal():
    host = Host(host_id="host-a", spec=HostSpec(num_gpus=8))
    kernel = make_kernel([host], [ReplicaState.IDLE])
    cache = DecisionCache(enabled=True)
    first = cache.namespace_objects(kernel)
    assert cache.namespace_objects(kernel) is first  # identity for reuse
    assert first == kernel.namespace_objects()
    assert DecisionCache(enabled=False).namespace_objects(kernel) == first


# ----------------------------------------------------------------------
# Columnar task table + admission batching.
# ----------------------------------------------------------------------
def columnar_trace() -> Trace:
    tasks_a = [TaskRecord(session_id="sa", submit_time=t, duration=10.0,
                          gpus=g, task_index=i)
               for i, (t, g) in enumerate([(60.0, 2), (120.0, 0), (120.0, 2)])]
    tasks_b = [TaskRecord(session_id="sb", submit_time=t, duration=10.0,
                          gpus=g, task_index=i)
               for i, (t, g) in enumerate([(60.0, 4), (180.0, 0)])]
    sessions = [
        SessionTrace(session_id="sa", user_id="ua", start_time=0.0,
                     end_time=600.0, gpus_requested=2, tasks=tasks_a),
        SessionTrace(session_id="sb", user_id="ub", start_time=0.0,
                     end_time=600.0, gpus_requested=4, tasks=tasks_b),
    ]
    return Trace(name="columnar", sessions=sessions)


def test_task_table_columns_and_batches():
    table = TaskTable(columnar_trace())
    assert len(table) == 5
    assert table.submit_times == sorted(table.submit_times)
    # Same-timestamp batches group across sessions; the stable sort keeps
    # trace order within a timestamp.
    batch = AdmissionBatch(table, 60.0, table.batch_indices(60.0))
    assert len(batch) == 2
    assert [session.session_id for session, _task in batch] == ["sa", "sb"]
    assert batch.gpu_requests() == [2, 4]
    # Non-GPU tasks contribute an effective request of 0, deduplicated.
    noon = AdmissionBatch(table, 120.0, table.batch_indices(120.0))
    assert noon.gpu_requests() == [0, 2]
    assert table.batch_indices(999.0) == range(5, 5)


def test_runstate_dispatches_each_timestamp_once():
    class FakePolicy:
        def __init__(self):
            self.calls = []

        def decide_batch(self, platform, batch):
            self.calls.append((batch.time, len(batch)))
            return len(batch)

    class FakeEnv:
        now = 60.0

    class FakePlatform:
        env = FakeEnv()
        policy = FakePolicy()

    platform = FakePlatform()
    runstate = RunState(enabled=True)
    trace = columnar_trace()
    runstate.begin_run(trace)
    session_a, session_b = trace.sessions

    runstate.admit(platform, session_a, session_a.tasks[0])
    runstate.admit(platform, session_b, session_b.tasks[0])  # same timestamp
    platform.env.now = 120.0
    runstate.admit(platform, session_a, session_a.tasks[1])
    platform.env.now = 130.0  # late admission: env.now != submit_time
    runstate.admit(platform, session_a, session_a.tasks[2])

    assert platform.policy.calls == [(60.0, 2), (120.0, 2)]
    counters = runstate.counters()
    assert counters["batches"] == 2
    assert counters["batched_tasks"] == 4
    assert counters["warmed"] == 4

    disabled = RunState(enabled=False)
    disabled.begin_run(trace)
    disabled.admit(platform, session_a, session_a.tasks[0])
    assert disabled.counters()["batches"] == 0


# ----------------------------------------------------------------------
# Profiler counters.
# ----------------------------------------------------------------------
def profiled_run(batching: bool):
    trace = AdobeTraceGenerator(seed=9, num_sessions=6,
                                duration_hours=1.0).generate()
    platform = NotebookOSPlatform(
        default_policy_registry().create("notebookos"),
        cluster_config=ClusterConfig(initial_hosts=6),
        platform_config=PlatformConfig(policy_batching_enabled=batching))
    profiler = Profiler().attach(platform.hooks)
    platform.run_workload(trace)
    return profiler.last


def test_profiler_pins_decision_cache_counters():
    report = profiled_run(batching=True)
    decisions = report.decisions
    assert decisions["hits"] > 0
    assert decisions["misses"] > 0
    assert decisions["batches"] > 0
    assert decisions["batched_tasks"] >= decisions["batches"]
    assert decisions["warmed"] > 0
    assert "decision cache:" in report.format()


def test_profiler_decision_counters_zero_when_batching_off():
    report = profiled_run(batching=False)
    assert set(report.decisions) == {"hits", "misses", "batches",
                                     "batched_tasks", "warmed"}
    assert not any(report.decisions.values())
    assert "decision cache:" not in report.format()


# ----------------------------------------------------------------------
# End-to-end differential: batched run ≡ frozen run, per policy.
# ----------------------------------------------------------------------
def replay(policy_name: str, batching: bool):
    """One full replay; returns (digest, per-task tuples, election log)."""
    signatures = []
    original_decide = ExecutorElection.decide

    def recording_decide(self, proposals, preferred_replica=None):
        outcome = original_decide(self, proposals, preferred_replica)
        signatures.append((self.kernel_id,) + outcome.signature())
        return outcome

    ExecutorElection.decide = recording_decide
    try:
        trace = AdobeTraceGenerator(seed=5, num_sessions=40,
                                    duration_hours=4.0).generate()
        platform = NotebookOSPlatform(
            default_policy_registry().create(policy_name),
            cluster_config=ClusterConfig(initial_hosts=12),
            platform_config=PlatformConfig(policy_batching_enabled=batching))
        result = platform.run_workload(trace)
    finally:
        ExecutorElection.decide = original_decide

    digest = hashlib.sha256(json.dumps(
        result.collector.to_dict(), sort_keys=True,
        separators=(",", ":")).encode()).hexdigest()
    tasks = sorted((t.session_id, t.kernel_id, t.executor_replica,
                    t.submitted_at, t.started_at, t.completed_at, t.status)
                   for t in result.collector.tasks)
    counters = platform.runstate.counters()
    return digest, tasks, signatures, counters


@pytest.mark.slow
@pytest.mark.parametrize("policy_name",
                         ["notebookos", "reservation", "lcp", "batch"])
def test_batched_replay_bit_identical_to_frozen(policy_name):
    frozen_digest, frozen_tasks, frozen_elections, frozen_counters = \
        replay(policy_name, batching=False)
    batched_digest, batched_tasks, batched_elections, batched_counters = \
        replay(policy_name, batching=True)

    assert batched_digest == frozen_digest, "collector digests diverged"
    assert batched_tasks == frozen_tasks, "per-task selections diverged"
    assert batched_elections == frozen_elections, "election outcomes diverged"

    # The frozen run must not have touched the batching machinery at all;
    # the batched run must actually have batched.
    assert not any(frozen_counters.values())
    assert batched_counters["batches"] > 0
    assert batched_counters["batched_tasks"] >= batched_counters["batches"]
