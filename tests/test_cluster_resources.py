"""Unit tests for resource requests, pools, GPUs, and hosts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import GPUAllocator, Host, HostSpec, ResourcePool, ResourceRequest
from repro.cluster.resources import InsufficientResourcesError


# ----------------------------------------------------------------------
# ResourceRequest / ResourcePool.
# ----------------------------------------------------------------------

def test_resource_request_defaults_and_vcpus():
    request = ResourceRequest(millicpus=2500)
    assert request.vcpus == 2.5
    assert request.gpus == 1


def test_resource_request_rejects_negative():
    with pytest.raises(ValueError):
        ResourceRequest(gpus=-1)


def test_resource_request_fits_within():
    small = ResourceRequest(millicpus=1000, memory_mb=1024, gpus=1, vram_gb=8)
    big = ResourceRequest(millicpus=2000, memory_mb=4096, gpus=2, vram_gb=32)
    assert small.fits_within(big)
    assert not big.fits_within(small)


def test_resource_request_add_and_scale():
    a = ResourceRequest(millicpus=1000, memory_mb=1000, gpus=1, vram_gb=10)
    b = ResourceRequest(millicpus=500, memory_mb=500, gpus=2, vram_gb=5)
    total = a.add(b)
    assert total.gpus == 3
    assert total.millicpus == 1500
    half = a.scaled(0.5)
    assert half.millicpus == 500
    assert half.vram_gb == 5.0


def test_pool_commit_and_release_cycle():
    pool = ResourcePool(ResourceRequest(millicpus=4000, memory_mb=8192, gpus=4, vram_gb=64))
    request = ResourceRequest(millicpus=1000, memory_mb=2048, gpus=2, vram_gb=32)
    assert pool.can_commit(request)
    pool.commit(request)
    assert pool.committed.gpus == 2
    assert pool.available.gpus == 2
    pool.release(request)
    assert pool.committed.gpus == 0


def test_pool_rejects_overcommit():
    pool = ResourcePool(ResourceRequest(millicpus=1000, memory_mb=1024, gpus=1, vram_gb=8))
    pool.commit(ResourceRequest(millicpus=1000, memory_mb=1024, gpus=1, vram_gb=8))
    with pytest.raises(InsufficientResourcesError):
        pool.commit(ResourceRequest(millicpus=1, memory_mb=0, gpus=0, vram_gb=0))


def test_pool_release_more_than_committed_raises():
    pool = ResourcePool(ResourceRequest(millicpus=1000, memory_mb=1024, gpus=2, vram_gb=8))
    with pytest.raises(ValueError):
        pool.release(ResourceRequest(millicpus=1, memory_mb=0, gpus=0, vram_gb=0))


def test_pool_utilization_ratios():
    pool = ResourcePool(ResourceRequest(millicpus=1000, memory_mb=1000, gpus=4, vram_gb=40))
    pool.commit(ResourceRequest(millicpus=500, memory_mb=250, gpus=1, vram_gb=10))
    utilization = pool.utilization()
    assert utilization["cpus"] == pytest.approx(0.5)
    assert utilization["memory"] == pytest.approx(0.25)
    assert utilization["gpus"] == pytest.approx(0.25)


@settings(max_examples=50, deadline=None)
@given(commits=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=10))
def test_pool_never_exceeds_capacity_property(commits):
    capacity = ResourceRequest(millicpus=100_000, memory_mb=100_000, gpus=8, vram_gb=256)
    pool = ResourcePool(capacity)
    committed = []
    for gpus in commits:
        request = ResourceRequest(millicpus=10, memory_mb=10, gpus=gpus, vram_gb=1)
        if pool.can_commit(request):
            pool.commit(request)
            committed.append(request)
    assert pool.committed.gpus <= capacity.gpus
    for request in committed:
        pool.release(request)
    assert pool.committed.gpus == 0
    assert pool.committed.millicpus == 0


# ----------------------------------------------------------------------
# GPUAllocator.
# ----------------------------------------------------------------------

def test_gpu_allocator_allocate_and_release():
    allocator = GPUAllocator.create("host-1", num_gpus=4)
    device_ids = allocator.allocate("kernel-a", 2, now=0.0)
    assert len(device_ids) == 2
    assert allocator.allocated_count == 2
    assert allocator.idle_count == 2
    released = allocator.release("kernel-a", now=10.0)
    assert released == 2
    assert allocator.idle_count == 4
    assert allocator.total_busy_time() == pytest.approx(20.0)


def test_gpu_allocator_rejects_overallocation():
    allocator = GPUAllocator.create("host-1", num_gpus=2)
    allocator.allocate("a", 2, now=0.0)
    assert not allocator.can_allocate(1)
    with pytest.raises(RuntimeError):
        allocator.allocate("b", 1, now=0.0)


def test_gpu_allocator_owner_tracking():
    allocator = GPUAllocator.create("host-1", num_gpus=4)
    allocator.allocate("a", 1, now=0.0)
    allocator.allocate("b", 2, now=0.0)
    owners = allocator.owners()
    assert len(owners["a"]) == 1
    assert len(owners["b"]) == 2


def _scan_owners(allocator):
    """Owner -> device ids by scanning every device: the pre-map oracle."""
    holding = {}
    for device in allocator.devices:
        if device.allocated_to is not None:
            holding.setdefault(device.allocated_to, []).append(device.device_id)
    return holding


def _scan_release(allocator, owner, now):
    """Release ``owner``'s GPUs by scanning every device: the pre-map oracle
    (it bypasses the allocator's owner map on purpose)."""
    released = 0
    for device in allocator.devices:
        if device.allocated_to == owner:
            device.release(now)
            released += 1
    return released


@settings(max_examples=200, deadline=None)
@given(num_gpus=st.integers(0, 8),
       ops=st.lists(st.tuples(st.booleans(), st.integers(0, 3),
                              st.integers(0, 4)), max_size=40))
def test_gpu_allocator_owner_map_matches_device_scan(num_gpus, ops):
    allocator = GPUAllocator.create("host-1", num_gpus=num_gpus)
    oracle = GPUAllocator.create("host-1", num_gpus=num_gpus)
    owners = [f"owner-{index}" for index in range(4)]
    for step, (allocate, owner_index, count) in enumerate(ops):
        owner, now = owners[owner_index], float(step)
        if allocate:
            if count <= allocator.idle_count:
                assert allocator.allocate(owner, count, now) == \
                    oracle.allocate(owner, count, now)
        else:
            assert allocator.release(owner, now) == \
                _scan_release(oracle, owner, now)
        # Same device state, owners() equal to the scan (order included),
        # and holds() agreeing with it for every owner.
        assert allocator.devices == oracle.devices
        expected = _scan_owners(allocator)
        assert list(allocator.owners().items()) == list(expected.items())
        for candidate in owners:
            assert allocator.holds(candidate) == (candidate in expected)
    returned = allocator.owners()
    returned.clear()  # a copy: clearing it changes nothing
    assert allocator.owners() == _scan_owners(allocator)


def test_gpu_device_double_allocate_raises():
    allocator = GPUAllocator.create("host-1", num_gpus=1)
    allocator.allocate("a", 1, now=0.0)
    with pytest.raises(RuntimeError):
        allocator.devices[0].allocate("b", now=1.0)


def test_gpu_busy_time_includes_inflight():
    allocator = GPUAllocator.create("host-1", num_gpus=1)
    allocator.allocate("a", 1, now=5.0)
    assert allocator.total_busy_time(now=15.0) == pytest.approx(10.0)


# ----------------------------------------------------------------------
# Host.
# ----------------------------------------------------------------------

def test_host_subscription_ratio_matches_paper_example():
    """§3.4.1: 8-GPU host serving 4 kernels of 4 GPUs each -> SR = 16/(8*3)."""
    host = Host(host_id="H", spec=HostSpec(num_gpus=8))
    for i in range(4):
        host.subscribe(f"kernel-{i}", 4)
    assert host.subscribed_gpus == 16
    assert host.subscription_ratio(replication_factor=3) == pytest.approx(16 / 24)


def test_host_unsubscribe_removes_kernel():
    host = Host(host_id="H")
    host.subscribe("k1", 2)
    host.subscribe("k2", 4)
    host.unsubscribe("k1")
    assert host.subscribed_gpus == 4
    assert not host.has_subscription("k1")


def test_host_bind_and_release_gpus():
    host = Host(host_id="H", spec=HostSpec(num_gpus=8))
    devices = host.bind_gpus("k1", 4, now=0.0)
    assert len(devices) == 4
    assert host.idle_gpus == 4
    assert host.active_training_count == 1
    assert host.committed_training_gpus == 4
    assert not host.is_idle
    host.release_gpus("k1", now=60.0)
    assert host.idle_gpus == 8
    assert host.is_idle


def test_host_cannot_bind_more_than_idle():
    host = Host(host_id="H", spec=HostSpec(num_gpus=2))
    host.bind_gpus("k1", 2, now=0.0)
    assert not host.can_bind_gpus(1)
    with pytest.raises(RuntimeError):
        host.bind_gpus("k2", 1, now=0.0)


def test_host_uptime_cost_and_utilization():
    spec = HostSpec(num_gpus=8, hourly_cost_usd=24.0)
    host = Host(host_id="H", spec=spec, provisioned_at=0.0)
    host.bind_gpus("k1", 4, now=0.0)
    host.release_gpus("k1", now=1800.0)
    assert host.uptime(3600.0) == pytest.approx(3600.0)
    assert host.cost(3600.0) == pytest.approx(24.0)
    # 4 GPUs busy for half the hour out of 8 GPUs for the whole hour.
    assert host.gpu_utilization(3600.0) == pytest.approx(0.25)


def test_host_decommission_freezes_uptime():
    host = Host(host_id="H", provisioned_at=100.0)
    host.decommission(200.0)
    assert not host.is_active
    assert host.uptime(5000.0) == pytest.approx(100.0)


def test_host_container_registry():
    host = Host(host_id="H")
    host.register_container("c1", object())
    host.register_container("c2", object())
    assert host.container_count == 2
    host.unregister_container("c1")
    assert host.container_count == 1
