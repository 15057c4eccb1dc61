"""Integration tests: the full platform replaying traces under every policy."""

import pytest

from repro.api import Simulation
from repro.api.registry import UnknownPolicyError, default_policy_registry
from repro.core import ClusterConfig, NotebookOSPlatform, PlatformConfig
from repro.core.config import PlatformConfig as _PlatformConfig
from repro.metrics.collector import EventKind
from repro.policies import (
    BatchPolicy,
    LargeContainerPoolPolicy,
    NotebookOSPolicy,
    ReservationPolicy,
)
from repro.workload import AdobeTraceGenerator, SessionTrace, TaskRecord, Trace


def small_trace(seed=1, sessions=8, hours=1.5):
    return AdobeTraceGenerator(seed=seed, num_sessions=sessions,
                               duration_hours=hours).generate()


def dense_trace(gpus=4, num_sessions=6, tasks_per_session=3):
    """A hand-built trace with simultaneous GPU-heavy tasks (forces contention)."""
    sessions = []
    for s in range(num_sessions):
        tasks = [TaskRecord(session_id=f"s{s}", submit_time=60.0 + t * 400.0,
                            duration=300.0, gpus=gpus,
                            code="model = train(model, data)\nhistory.append(1)\n",
                            task_index=t)
                 for t in range(tasks_per_session)]
        sessions.append(SessionTrace(session_id=f"s{s}", user_id=f"u{s}",
                                     start_time=0.0, end_time=3600.0,
                                     gpus_requested=gpus, tasks=tasks))
    return Trace(name="dense", sessions=sessions)


# ----------------------------------------------------------------------
# Policy registry.
# ----------------------------------------------------------------------

def test_make_policy_registry():
    registry = default_policy_registry()
    assert isinstance(registry.create("notebookos"), NotebookOSPolicy)
    assert isinstance(registry.create("reservation"), ReservationPolicy)
    assert isinstance(registry.create("batch"), BatchPolicy)
    assert isinstance(registry.create("lcp"), LargeContainerPoolPolicy)
    with pytest.raises(UnknownPolicyError):
        registry.create("slurm")


# ----------------------------------------------------------------------
# End-to-end runs for each policy.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("policy", ["notebookos", "reservation", "batch", "lcp"])
def test_all_policies_complete_every_task(policy):
    trace = small_trace()
    result = (Simulation.from_trace(trace).with_policy(policy)
              .with_seed(3).run())
    completed = result.collector.completed_tasks()
    assert len(completed) == trace.total_task_count
    assert all(t.status == "ok" for t in completed)
    assert all(t.interactivity_delay is not None and t.interactivity_delay >= 0
               for t in completed)
    assert all(t.task_completion_time >= 0 for t in completed)


def test_notebookos_creates_one_kernel_per_session_with_three_replicas():
    trace = small_trace(sessions=5)
    policy = NotebookOSPolicy()
    platform = NotebookOSPlatform(policy, cluster_config=ClusterConfig(initial_hosts=6))
    platform.run_workload(trace)
    created = platform.metrics.events_of_kind(EventKind.KERNEL_CREATED)
    assert len(created) == 5
    # Kernels are shut down when their sessions end.
    terminated = platform.metrics.events_of_kind(EventKind.KERNEL_TERMINATED)
    assert len(terminated) == 5
    assert not platform.global_scheduler.kernels


def test_notebookos_replicas_on_distinct_hosts():
    trace = small_trace(sessions=3)
    policy = NotebookOSPolicy()
    platform = NotebookOSPlatform(policy, cluster_config=ClusterConfig(initial_hosts=6))

    kernels = []
    original = platform.global_scheduler.start_kernel

    def recording_start_kernel(*args, **kwargs):
        process = original(*args, **kwargs)
        # The generator yields the kernel at completion; capture through the dict.
        return process

    platform.run_workload(trace)
    # After the run the kernels were removed; instead verify via events.
    created = platform.metrics.events_of_kind(EventKind.KERNEL_CREATED)
    for event in created:
        # Detail format: "kernel-N on ['host-a', 'host-b', 'host-c']".
        hosts_part = event.detail.split(" on ")[1]
        hosts = [h.strip(" '[]") for h in hosts_part.split(",")]
        assert len(hosts) == len(set(hosts)) == 3


def test_notebookos_dynamic_binding_releases_gpus_after_tasks():
    trace = small_trace(sessions=6)
    policy = NotebookOSPolicy()
    platform = NotebookOSPlatform(policy, cluster_config=ClusterConfig(initial_hosts=4))
    platform.run_workload(trace)
    # After the workload, no GPUs remain bound anywhere.
    assert all(host.allocated_gpus == 0 for host in platform.cluster.hosts.values())


def test_notebookos_records_sync_and_datastore_latencies():
    trace = small_trace(sessions=6)
    result = (Simulation.from_trace(trace).with_policy("notebookos")
              .with_seed(2).run())
    assert result.collector.raft_sync_latencies
    assert result.collector.datastore_write_latencies


def test_notebookos_contention_triggers_migrations_or_waits():
    """With tiny hosts and concurrent 4-GPU tasks, elections must sometimes fail."""
    trace = dense_trace(gpus=8, num_sessions=5)
    config = PlatformConfig(scaling_buffer_hosts=0)
    result = (Simulation.from_trace(trace).with_policy("notebookos")
              .with_config(platform_config=config,
                           cluster_config=ClusterConfig(initial_hosts=3, max_hosts=8))
              .run())
    completed = result.collector.completed_tasks()
    assert len(completed) == trace.total_task_count
    migrations = result.migration_count()
    waited = any((t.interactivity_delay or 0) > 1.0 for t in completed)
    assert migrations > 0 or waited


def test_reservation_provisioned_gpus_track_reserved_sessions():
    trace = small_trace(sessions=6)
    result = (Simulation.from_trace(trace).with_policy("reservation")
              .with_seed(5).run())
    peak_reserved = sum(s.gpus_requested for s in trace)
    assert result.collector.provisioned_gpus.maximum() <= peak_reserved
    assert result.collector.provisioned_gpus.maximum() > 0


def test_batch_interactivity_much_worse_than_notebookos():
    trace = small_trace(sessions=8)
    batch = (Simulation.from_trace(trace).with_policy("batch")
             .with_seed(1).run())
    notebookos = (Simulation.from_trace(trace).with_policy("notebookos")
                  .with_seed(1).run())
    assert batch.interactivity_cdf.percentile(0.5) > \
        notebookos.interactivity_cdf.percentile(0.5) * 10
    # Batch only provisions GPUs while jobs run.
    assert batch.provisioned_gpu_hours < notebookos.provisioned_gpu_hours


def test_lcp_between_notebookos_and_batch_in_interactivity():
    trace = small_trace(sessions=8)
    lcp = Simulation.from_trace(trace).with_policy("lcp").with_seed(1).run()
    notebookos = (Simulation.from_trace(trace).with_policy("notebookos")
                  .with_seed(1).run())
    batch = (Simulation.from_trace(trace).with_policy("batch")
             .with_seed(1).run())
    assert notebookos.interactivity_cdf.percentile(0.5) < \
        lcp.interactivity_cdf.percentile(0.5) < \
        batch.interactivity_cdf.percentile(0.5)


def test_notebookos_saves_gpu_hours_vs_reservation_at_scale():
    trace = AdobeTraceGenerator(seed=11, num_sessions=40,
                                duration_hours=6.0).generate()
    notebookos = (Simulation.from_trace(trace).with_policy("notebookos")
                  .with_seed(4).run())
    reservation = (Simulation.from_trace(trace).with_policy("reservation")
                   .with_seed(4).run())
    saved = notebookos.gpu_hours_saved_vs(reservation)
    assert saved > 0
    # Interactivity stays in the same regime as Reservation (§5.3.2).
    assert notebookos.interactivity_cdf.percentile(0.5) < 2.0


def test_autoscaler_scales_out_under_load_and_in_when_idle():
    trace = dense_trace(gpus=8, num_sessions=8, tasks_per_session=2)
    config = PlatformConfig(autoscaler_interval_s=30.0, scaling_buffer_hosts=0)
    policy = NotebookOSPolicy()
    platform = NotebookOSPlatform(policy,
                                  cluster_config=ClusterConfig(initial_hosts=2,
                                                               max_hosts=20),
                                  platform_config=config)
    result = platform.run_workload(trace, until=7200.0)
    assert result.scale_out_count() >= 1
    # The cluster grew beyond its initial 16 GPUs at some point under load...
    assert result.collector.provisioned_gpus.maximum() > 16
    # ...and idle servers were released again once the load subsided.
    assert len(result.collector.events_of_kind(EventKind.SCALE_IN)) >= 1


def test_experiment_result_wall_clock_and_breakdown():
    trace = small_trace(sessions=4)
    result = Simulation.from_trace(trace).with_policy("notebookos").run()
    assert result.wall_clock_runtime > 0
    assert len(result.breakdown) == trace.total_task_count
    table = result.breakdown.table()
    assert table["execute_code"]["count"] == trace.total_task_count
    assert table["primary_replica_protocol"]["count"] == trace.total_task_count


def test_reservation_breakdown_has_no_election_step():
    trace = small_trace(sessions=4)
    result = Simulation.from_trace(trace).with_policy("reservation").run()
    table = result.breakdown.table()
    assert table["primary_replica_protocol"] == {"count": 0}
    assert table["execute_code"]["count"] == trace.total_task_count


def test_deterministic_runs_with_same_seed():
    trace = small_trace(sessions=5)
    first = (Simulation.from_trace(trace).with_policy("notebookos")
             .with_seed(9).run())
    second = (Simulation.from_trace(trace).with_policy("notebookos")
              .with_seed(9).run())
    assert first.provisioned_gpu_hours == pytest.approx(second.provisioned_gpu_hours)
    assert first.interactivity_cdf.summary() == second.interactivity_cdf.summary()


def test_platform_active_counts_return_to_zero():
    trace = small_trace(sessions=5)
    policy = NotebookOSPolicy()
    platform = NotebookOSPlatform(policy, cluster_config=ClusterConfig(initial_hosts=4))
    platform.run_workload(trace)
    assert platform.active_session_count == 0
    assert platform.active_training_count == 0


# ----------------------------------------------------------------------
# Who uses the data store's node cache.
# ----------------------------------------------------------------------

#: (scenario, policy) -> the data store's (cache hits, cache misses) at the
#: default seed.  Only LCP passes node ids (its host ids), so only LCP
#: reads can hit and only LCP fills caches.  Batch's misses are its
#: staging reads, NotebookOS's under ``failure_storm`` its migration and
#: recovery restores.  The ``excerpt`` case runs in the slow lane.
NODE_CACHE_USE = {
    ("smoke", "batch"): (0, 106),
    ("smoke", "notebookos"): (0, 0),
    ("failure_storm", "notebookos"): (0, 329),
    ("smoke", "reservation"): (0, 0),
    ("smoke", "lcp"): (24, 82),
    ("excerpt", "lcp"): (961, 4287),
}


@pytest.mark.parametrize("scenario,policy", [
    pytest.param(scenario, policy,
                 marks=[pytest.mark.slow] if scenario == "excerpt" else [])
    for scenario, policy in sorted(NODE_CACHE_USE)])
def test_only_lcp_uses_the_node_cache(scenario, policy):
    simulation = Simulation.from_scenario(scenario, policy=policy)
    simulation.run()
    store = simulation.platform.datastore
    assert (store.cache_hits, store.cache_misses) == \
        NODE_CACHE_USE[scenario, policy]
    assert bool(store._node_caches) == (policy == "lcp")
