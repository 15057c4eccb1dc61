"""Unit tests for the control-plane components: election, placement,
auto-scaling, GPU binding, and the distributed kernel abstraction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Host, HostSpec, ResourceRequest
from repro.core import (
    AutoScaler,
    ClusterConfig,
    DistributedKernel,
    ExecutorElection,
    GpuBindingModel,
    KernelReplica,
    LeastLoadedPlacement,
    PlatformConfig,
    ReplicaProposal,
    ReplicaState,
)
from repro.core.election import ElectionOutcome
from repro.core.placement import cluster_subscription_ratio
from repro.simulation import SeededRandom
from repro.statesync import ObjectClass
from repro.workload.models import MODELS


# ----------------------------------------------------------------------
# Configuration validation.
# ----------------------------------------------------------------------

def test_platform_config_defaults_are_valid():
    config = PlatformConfig()
    config.validate()
    assert config.replication_factor == 3
    assert config.autoscaler_multiplier == pytest.approx(1.05)


def test_platform_config_rejects_replication_factor_two():
    with pytest.raises(ValueError):
        PlatformConfig(replication_factor=2).validate()


def test_platform_config_rejects_bad_values():
    with pytest.raises(ValueError):
        PlatformConfig(autoscaler_multiplier=0.5).validate()
    with pytest.raises(ValueError):
        PlatformConfig(metrics_sample_interval_s=0).validate()


NAN, INF = float("nan"), float("inf")
RUN_BREAKING_VALUES = [
    (PlatformConfig, "autoscaler_interval_s", 0),
    (PlatformConfig, "autoscaler_interval_s", -5),
    (PlatformConfig, "autoscaler_interval_s", NAN),
    (PlatformConfig, "autoscaler_interval_s", INF),
    (PlatformConfig, "metrics_sample_interval_s", NAN),
    (PlatformConfig, "host_failure_interval_s", NAN),
    (PlatformConfig, "autoscaler_multiplier", NAN),
    (PlatformConfig, "jupyter_processing_s", NAN),
    (PlatformConfig, "network_hop_s", -1),
    (ClusterConfig, "vm_boot_time_mean_s", 0),
    (ClusterConfig, "vm_boot_time_mean_s", -5),
    (ClusterConfig, "vm_boot_time_mean_s", NAN),
]


@pytest.mark.parametrize("config_class, field, value", RUN_BREAKING_VALUES,
                         ids=[f"{field}={value}"
                              for _, field, value in RUN_BREAKING_VALUES])
def test_config_rejects_run_breaking_values(config_class, field, value):
    # Each value would hang the run, crash it from inside the engine or the
    # VM provisioner, or be kept silently, so validation must reject it.
    with pytest.raises(ValueError, match=field):
        config_class(**{field: value}).validate()


def test_cluster_config_validation():
    ClusterConfig(initial_hosts=10, max_hosts=20).validate()
    with pytest.raises(ValueError):
        ClusterConfig(initial_hosts=-1).validate()
    with pytest.raises(ValueError):
        ClusterConfig(initial_hosts=50, max_hosts=10).validate()


# ----------------------------------------------------------------------
# Executor election protocol.
# ----------------------------------------------------------------------

def proposals(leads):
    return [ReplicaProposal(replica_id=f"r{i}", host_id=f"h{i}", lead=lead)
            for i, lead in enumerate(leads)]


def test_election_single_leader_wins():
    election = ExecutorElection("k1", rng=SeededRandom(1))
    outcome = election.decide(proposals([False, True, False]))
    assert not outcome.failed
    assert outcome.winner.replica_id == "r1"
    assert outcome.latency_s > 0


def test_election_all_yield_fails():
    election = ExecutorElection("k1", rng=SeededRandom(2))
    outcome = election.decide(proposals([False, False, False]))
    assert outcome.failed
    assert election.failed_elections == 1
    assert election.failure_rate == 1.0


def test_election_preferred_replica_short_circuits():
    election = ExecutorElection("k1", rng=SeededRandom(3))
    outcome = election.decide(proposals([True, True, True]), preferred_replica="r2")
    assert outcome.winner.replica_id == "r2"
    # The other LEAD proposals were converted into yield_requests.
    assert outcome.converted_to_yield == 2


def test_election_preferred_replica_that_cannot_lead_is_ignored():
    election = ExecutorElection("k1", rng=SeededRandom(4))
    outcome = election.decide(proposals([True, False, True]), preferred_replica="r1")
    assert outcome.winner is not None
    assert outcome.winner.replica_id != "r1"
    assert outcome.converted_to_yield == 0


def test_election_reuses_previous_executor_most_of_the_time():
    election = ExecutorElection("k1", rng=SeededRandom(5))
    election.decide(proposals([True, True, True]))
    first_winner = election.last_executor_id
    reuse = 0
    rounds = 200
    for _ in range(rounds):
        outcome = election.decide(proposals([True, True, True]))
        if outcome.winner.replica_id == election.last_executor_id and \
                outcome.winner.replica_id == first_winner:
            reuse += 1
        first_winner = election.last_executor_id
    # §5.3.2 reports ~89% executor reuse; the model should be in that regime.
    assert reuse / rounds > 0.75


class RebuildingElection(ExecutorElection):
    """The pre-flattening ``decide``: rebuilds every proposal whenever a
    designated replica can lead.  Kept here as the differential oracle."""

    def decide(self, proposals, preferred_replica=None):
        if not proposals:
            raise ValueError("an election requires at least one proposal")
        self.elections_held += 1
        election_id = self.elections_held
        effective = list(proposals)
        converted = 0
        if preferred_replica is not None:
            designated_can_lead = any(
                p.lead and p.replica_id == preferred_replica for p in proposals)
            if designated_can_lead:
                converted = sum(1 for p in proposals
                                if p.lead and p.replica_id != preferred_replica)
                effective = [
                    ReplicaProposal(
                        replica_id=p.replica_id, host_id=p.host_id,
                        lead=(p.replica_id == preferred_replica),
                        reason="yield_request"
                        if p.replica_id != preferred_replica else p.reason)
                    for p in proposals]
        lead_proposals = [p for p in effective if p.lead]
        if not lead_proposals:
            winner = None
            self.failed_elections += 1
        elif preferred_replica is not None and any(
                p.replica_id == preferred_replica for p in lead_proposals):
            winner = next(p for p in lead_proposals
                          if p.replica_id == preferred_replica)
        else:
            previous = [p for p in lead_proposals
                        if p.replica_id == self.last_executor_id]
            if previous and self._rng.random() < 0.9:
                winner = previous[0]
            else:
                winner = self._rng.choice(lead_proposals)
        outcome = ElectionOutcome(
            election_id=election_id, winner=winner, proposals=list(proposals),
            latency_s=self.latency_model.sample(self._rng),
            converted_to_yield=converted)
        if winner is not None:
            self.last_executor_id = winner.replica_id
        return outcome


# One election round: a subset of a kernel's replicas (ids unique, as in a
# kernel), each proposing LEAD or YIELD, plus an optional designated replica
# (possibly one that proposed YIELD, or one absent from the round).
election_rounds = st.lists(
    st.tuples(
        st.lists(st.tuples(st.integers(0, 5), st.booleans(),
                           st.sampled_from(["", "sufficient idle GPUs"])),
                 min_size=1, max_size=6, unique_by=lambda entry: entry[0]),
        st.one_of(st.none(), st.integers(0, 6))),
    min_size=1, max_size=30)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), rounds=election_rounds)
def test_election_decide_matches_rebuilding_reference(seed, rounds):
    election = ExecutorElection("k1", rng=SeededRandom(seed))
    reference = RebuildingElection("k1", rng=SeededRandom(seed))
    for entries, designated in rounds:
        round_proposals = [
            ReplicaProposal(replica_id=f"r{index}", host_id=f"h{index % 3}",
                            lead=lead, reason=reason)
            for index, lead, reason in entries]
        preferred = None if designated is None else f"r{designated}"
        got = election.decide(round_proposals, preferred_replica=preferred)
        want = reference.decide(round_proposals, preferred_replica=preferred)
        assert got.winner == want.winner      # by value, reason included
        assert got.converted_to_yield == want.converted_to_yield
        # Equal latency: the RNG sits at the same position after the round.
        assert got.latency_s == want.latency_s
        assert got.signature() == want.signature()
        assert election.last_executor_id == reference.last_executor_id
    assert election.failed_elections == reference.failed_elections


def test_election_requires_proposals():
    election = ExecutorElection("k1", rng=SeededRandom(6))
    with pytest.raises(ValueError):
        election.decide([])


# ----------------------------------------------------------------------
# Placement policy and subscription ratios.
# ----------------------------------------------------------------------

def make_hosts(n, gpus=8):
    return [Host(host_id=f"host-{i}", spec=HostSpec(num_gpus=gpus)) for i in range(n)]


def test_paper_subscription_ratio_example():
    hosts = make_hosts(1)
    for i in range(4):
        hosts[0].subscribe(f"k{i}", 4)
    assert hosts[0].subscription_ratio(3) == pytest.approx(0.667, abs=1e-3)
    assert cluster_subscription_ratio(hosts, 3) == pytest.approx(0.667, abs=1e-3)


def test_placement_prefers_least_loaded_hosts():
    hosts = make_hosts(4)
    hosts[0].bind_gpus("busy", 6, now=0.0)
    hosts[1].subscribe("k-other", 8)
    policy = LeastLoadedPlacement()
    decision = policy.candidate_hosts(hosts, ResourceRequest(gpus=2), 3, 3)
    assert decision.satisfied
    assert "host-0" not in decision.host_ids[:2]


def test_placement_respects_high_watermark():
    hosts = make_hosts(2)
    policy = LeastLoadedPlacement(high_watermark=1.0)
    # Each host can absorb at most 8 * 3 * 1.0 = 24 subscribed GPUs.
    for host in hosts:
        host.subscribe("existing", 24)
    decision = policy.candidate_hosts(hosts, ResourceRequest(gpus=1), 1, 3)
    assert not decision.satisfied


def test_placement_excludes_hosts():
    hosts = make_hosts(3)
    policy = LeastLoadedPlacement()
    decision = policy.candidate_hosts(hosts, ResourceRequest(gpus=1), 2, 3,
                                      exclude_hosts=["host-0"])
    assert "host-0" not in decision.host_ids
    assert decision.satisfied


def test_placement_without_oversubscription_requires_committable_capacity():
    hosts = make_hosts(1, gpus=2)
    policy = LeastLoadedPlacement(oversubscription_enabled=False)
    ok = policy.candidate_hosts(hosts, ResourceRequest(gpus=2, millicpus=100,
                                                       memory_mb=100, vram_gb=1), 1, 1)
    assert ok.satisfied
    hosts[0].pool.commit(ResourceRequest(gpus=2, millicpus=100, memory_mb=100, vram_gb=1))
    full = policy.candidate_hosts(hosts, ResourceRequest(gpus=1, millicpus=1,
                                                         memory_mb=1, vram_gb=1), 1, 1)
    assert not full.satisfied


def test_migration_target_requires_idle_gpus():
    hosts = make_hosts(2, gpus=4)
    hosts[0].bind_gpus("k", 4, now=0.0)
    policy = LeastLoadedPlacement()
    target = policy.migration_target(hosts, ResourceRequest(gpus=2), 3)
    assert target is not None
    assert target.host_id == "host-1"
    hosts[1].bind_gpus("k2", 3, now=0.0)
    assert policy.migration_target(hosts, ResourceRequest(gpus=2), 3) is None


def test_migration_target_respects_exclusions():
    hosts = make_hosts(2)
    policy = LeastLoadedPlacement()
    target = policy.migration_target(hosts, ResourceRequest(gpus=1), 3,
                                     exclude_hosts=["host-0", "host-1"])
    assert target is None


# ----------------------------------------------------------------------
# Auto-scaler decision logic.
# ----------------------------------------------------------------------

class _StubScheduler:
    class _Cluster:
        def committed_training_gpus(self):
            return 0

        def total_gpus(self):
            return 0

        def idle_hosts(self):
            return []

    cluster = _Cluster()


def make_autoscaler(buffer_hosts=0, multiplier=1.05):
    config = PlatformConfig(scaling_buffer_hosts=buffer_hosts,
                            autoscaler_multiplier=multiplier)
    from repro.simulation import Environment

    return AutoScaler(Environment(), _StubScheduler(), config, ClusterConfig())


def test_autoscaler_expected_capacity_uses_multiplier():
    scaler = make_autoscaler()
    assert scaler.expected_capacity(100) == pytest.approx(105.0)


def test_autoscaler_scale_out_when_capacity_below_target():
    scaler = make_autoscaler(buffer_hosts=0)
    # 100 committed GPUs -> target 105; current 96 -> need ceil(9/8) = 2 hosts.
    assert scaler.hosts_to_add(committed_gpus=100, current_gpus=96, gpus_per_host=8) == 2
    assert scaler.hosts_to_add(committed_gpus=100, current_gpus=112, gpus_per_host=8) == 0


def test_autoscaler_scaling_buffer_adds_headroom():
    scaler = make_autoscaler(buffer_hosts=2)
    # Even with zero committed GPUs the buffer keeps two hosts' worth of GPUs.
    assert scaler.hosts_to_add(committed_gpus=0, current_gpus=0, gpus_per_host=8) == 2


def test_autoscaler_scale_in_releases_at_most_two_hosts():
    scaler = make_autoscaler(buffer_hosts=0)
    release = scaler.hosts_to_release(committed_gpus=8, current_gpus=80,
                                      gpus_per_host=8, idle_host_count=9)
    assert release == 2
    assert scaler.hosts_to_release(committed_gpus=8, current_gpus=80,
                                   gpus_per_host=8, idle_host_count=0) == 0
    assert scaler.hosts_to_release(committed_gpus=72, current_gpus=80,
                                   gpus_per_host=8, idle_host_count=5) == 0


# ----------------------------------------------------------------------
# GPU binding model.
# ----------------------------------------------------------------------

def test_gpu_binding_load_time_scales_with_model_size():
    binding = GpuBindingModel()
    vgg = MODELS["vgg-16"]
    resnet = MODELS["resnet-18"]
    assert binding.load_time(vgg) > binding.load_time(resnet)
    # §3.3: "typically only takes up to a couple hundred milliseconds".
    assert binding.load_time(resnet) < 0.5
    assert binding.load_time(None) == pytest.approx(binding.bind_overhead_s)


def test_gpu_binding_unload_time_positive():
    binding = GpuBindingModel()
    assert binding.unload_time(MODELS["bert"]) > 0
    jittered = binding.load_time(MODELS["bert"], rng=SeededRandom(1))
    assert jittered > 0


# ----------------------------------------------------------------------
# Distributed kernel abstraction.
# ----------------------------------------------------------------------

def make_kernel_with_replicas(gpus_per_host=8, request_gpus=2):
    kernel = DistributedKernel(kernel_id="k1", session_id="s1",
                               resource_request=ResourceRequest(gpus=request_gpus))
    from repro.cluster.container import Container

    for i in range(3):
        host = Host(host_id=f"h{i}", spec=HostSpec(num_gpus=gpus_per_host))
        container = Container(host_id=host.host_id,
                              resources=kernel.resource_request,
                              container_id=f"c{i}")
        container.assign("k1", f"k1-r{i}")
        replica = KernelReplica(replica_id=f"k1-r{i}", kernel_id="k1",
                                replica_index=i, host=host, container=container)
        replica.state = ReplicaState.IDLE
        kernel.add_replica(replica)
    return kernel


def test_kernel_proposals_reflect_gpu_availability():
    kernel = make_kernel_with_replicas()
    kernel.replicas[0].host.bind_gpus("other", 8, now=0.0)   # exhaust host 0
    proposals = kernel.make_proposals(gpus_required=2)
    assert len(proposals) == 3
    by_replica = {p.replica_id: p.lead for p in proposals}
    assert by_replica["k1-r0"] is False
    assert by_replica["k1-r1"] is True
    assert by_replica["k1-r2"] is True


def test_kernel_cpu_only_tasks_can_always_lead():
    kernel = make_kernel_with_replicas()
    for replica in kernel.replicas:
        replica.host.bind_gpus("other", 8, now=0.0)
    proposals = kernel.make_proposals(gpus_required=0)
    assert all(p.lead for p in proposals)


def test_kernel_replica_management():
    kernel = make_kernel_with_replicas()
    removed = kernel.remove_replica("k1-r1")
    assert removed is not None
    assert len(kernel.active_replicas) == 2
    assert kernel.replica_by_id("k1-r1") is None
    assert kernel.replica_by_id("k1-r0") is not None
    assert set(kernel.host_ids) == {"h0", "h2"}


def test_namespace_memo_is_stable_and_equal():
    kernel = make_kernel_with_replicas()
    first = kernel.namespace_objects()
    # The same list object every call: the state synchronizer reuses its
    # partition of the namespace by identity.
    assert kernel.namespace_objects() is first
    other = make_kernel_with_replicas()
    assert other.namespace_objects() == first
    assert other.namespace_objects() is not first


def test_kernel_namespace_objects_include_model_as_large_object():
    kernel = make_kernel_with_replicas()
    objects = kernel.namespace_objects()
    names = {obj.name for obj in objects}
    assert {"model", "learning_rate", "history"} <= names
    model_obj = next(obj for obj in objects if obj.name == "model")
    assert model_obj.object_class == ObjectClass.LARGE
    small = [obj for obj in objects if obj.object_class == ObjectClass.SMALL]
    assert small
