"""Unit tests for containers, prewarmer, data store, and VM provisioner."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ContainerLatencyModel,
    ContainerPrewarmer,
    ContainerRuntime,
    ContainerState,
    DistributedDataStore,
    HDFS_BACKEND,
    PrewarmPolicy,
    REDIS_BACKEND,
    ResourceRequest,
    S3_BACKEND,
    VMProvisioner,
)
from repro.cluster.datastore import CACHE_HIT_S
from repro.simulation import Environment, SeededRandom


# ----------------------------------------------------------------------
# Containers and runtime.
# ----------------------------------------------------------------------

def test_cold_start_slower_than_warm_start():
    env = Environment()
    runtime = ContainerRuntime(env, "host-1", rng=SeededRandom(1))
    resources = ResourceRequest()

    def run():
        cold_start_begin = env.now
        cold = yield env.process(runtime.provision(resources, prewarmed=False))
        cold_time = env.now - cold_start_begin
        warm_start_begin = env.now
        warm = yield env.process(runtime.provision(resources, prewarmed=True))
        warm_time = env.now - warm_start_begin
        return cold, warm, cold_time, warm_time

    process = env.process(run())
    cold, warm, cold_time, warm_time = env.run(until=process)
    assert cold.state == ContainerState.WARM
    assert warm.state == ContainerState.WARM
    assert cold_time > warm_time
    assert runtime.cold_starts == 1
    assert runtime.warm_starts == 1


def test_container_assign_release_and_terminate():
    env = Environment()
    runtime = ContainerRuntime(env, "host-1", rng=SeededRandom(2))

    def run():
        container = yield env.process(runtime.provision(ResourceRequest()))
        container.assign("kernel-1", "replica-1")
        assert container.is_running
        container.release_to_pool()
        assert container.is_warm
        container.assign("kernel-2", "replica-2")
        yield env.process(runtime.terminate(container))
        return container

    process = env.process(run())
    container = env.run(until=process)
    assert container.state == ContainerState.TERMINATED
    assert runtime.terminations == 1
    assert container.lifetime(env.now) > 0


def test_container_assign_in_bad_state_raises():
    env = Environment()
    runtime = ContainerRuntime(env, "host-1", rng=SeededRandom(3))

    def run():
        container = yield env.process(runtime.provision(ResourceRequest()))
        container.terminate(env.now)
        with pytest.raises(RuntimeError):
            container.assign("k", "r")
        with pytest.raises(RuntimeError):
            container.release_to_pool()
        return True

    process = env.process(run())
    assert env.run(until=process) is True


def test_latency_model_bounds():
    rng = SeededRandom(4)
    model = ContainerLatencyModel()
    colds = [model.cold_start(rng) for _ in range(200)]
    warms = [model.warm_start(rng) for _ in range(200)]
    assert min(colds) >= 5.0
    assert min(warms) >= 0.1
    assert sum(colds) / len(colds) > sum(warms) / len(warms)


# ----------------------------------------------------------------------
# Prewarmer.
# ----------------------------------------------------------------------

def test_prewarmer_initial_pool_and_take():
    env = Environment()
    prewarmer = ContainerPrewarmer(env, PrewarmPolicy(initial_per_host=2, min_per_host=1))
    runtime = ContainerRuntime(env, "host-1", rng=SeededRandom(5))
    prewarmer.register_host("host-1", runtime)
    env.run(until=120.0)
    assert prewarmer.available("host-1") == 2
    container = prewarmer.take("host-1")
    assert container is not None
    assert prewarmer.available("host-1") == 1
    assert prewarmer.hits == 1


def test_prewarmer_miss_on_empty_pool():
    env = Environment()
    prewarmer = ContainerPrewarmer(env, PrewarmPolicy(initial_per_host=0))
    runtime = ContainerRuntime(env, "host-1", rng=SeededRandom(6))
    prewarmer.register_host("host-1", runtime)
    env.run(until=10.0)
    assert prewarmer.take("host-1") is None
    assert prewarmer.misses == 1


def test_prewarmer_maintenance_replenishes_pool():
    env = Environment()
    policy = PrewarmPolicy(initial_per_host=1, min_per_host=1, replenish_interval=10.0)
    prewarmer = ContainerPrewarmer(env, policy)
    runtime = ContainerRuntime(env, "host-1", rng=SeededRandom(7))
    prewarmer.register_host("host-1", runtime)
    prewarmer.start_maintenance()
    env.run(until=120.0)
    assert prewarmer.available("host-1") >= 1
    prewarmer.take("host-1")
    env.run(until=300.0)
    assert prewarmer.available("host-1") >= 1


def test_prewarmer_put_back_respects_max():
    env = Environment()
    policy = PrewarmPolicy(initial_per_host=0, min_per_host=0, max_per_host=1)
    prewarmer = ContainerPrewarmer(env, policy)
    runtime = ContainerRuntime(env, "host-1", rng=SeededRandom(8))
    prewarmer.register_host("host-1", runtime)

    def run():
        first = yield env.process(runtime.provision(ResourceRequest()))
        second = yield env.process(runtime.provision(ResourceRequest()))
        prewarmer.put_back("host-1", first)
        prewarmer.put_back("host-1", second)
        return True

    process = env.process(run())
    env.run(until=process)
    env.run(until=env.now + 10.0)
    assert prewarmer.available("host-1") == 1


def test_prewarmer_unregister_host_drops_pool():
    env = Environment()
    prewarmer = ContainerPrewarmer(env, PrewarmPolicy(initial_per_host=1))
    runtime = ContainerRuntime(env, "host-1", rng=SeededRandom(9))
    prewarmer.register_host("host-1", runtime)
    prewarmer.unregister_host("host-1")
    env.run(until=120.0)
    assert prewarmer.available("host-1") == 0
    assert prewarmer.total_available() == 0


class _UnscheduledEnv:
    """Just enough of an Environment for the prewarmer: ``process`` returns
    the generator without scheduling it, so the test decides when each
    warm-up runs."""

    now = 0.0

    def process(self, generator, name=None):
        return generator


class _StubContainer:
    is_running = False

    def release_to_pool(self):
        pass


class _StubRuntime:
    def provision(self, resources, prewarmed=False):
        yield 1.0
        return _StubContainer()

    def terminate(self, container):
        yield 0.0


_HOSTS = ["host-0", "host-1", "host-2"]


@settings(max_examples=200, deadline=None)
@given(min_per_host=st.integers(min_value=0, max_value=2),
       extra=st.integers(min_value=0, max_value=2),
       initial=st.integers(min_value=0, max_value=2),
       ops=st.lists(st.tuples(st.sampled_from(["register", "unregister", "take",
                                               "put_back", "complete"]),
                              st.integers(min_value=0, max_value=30)),
                    max_size=40))
def test_prewarmer_maintenance_warms_what_a_full_scan_would(
        min_per_host, extra, initial, ops):
    """After every registration, unregistration, take, put-back or warm
    completion, a maintenance tick warms, in order, exactly the containers
    a scan of every registered host in registration order would."""
    policy = PrewarmPolicy(initial_per_host=initial, min_per_host=min_per_host,
                           max_per_host=min_per_host + extra)
    prewarmer = ContainerPrewarmer(_UnscheduledEnv(), policy)
    warmed, pending = [], []
    real_warm_one = prewarmer._warm_one

    def warm_one(host_id):
        warmed.append(host_id)
        generator = real_warm_one(host_id)
        pending.append(generator)
        return generator

    prewarmer._warm_one = warm_one
    registered = {}          # the oracle's own registration order
    loop = prewarmer._maintenance_loop()
    assert next(loop) == policy.replenish_interval
    for op, arg in ops:
        host = _HOSTS[arg % len(_HOSTS)]
        if op == "register":
            registered.setdefault(host, True)
            prewarmer.register_host(host, _StubRuntime())
        elif op == "unregister":
            registered.pop(host, None)
            prewarmer.unregister_host(host)
        elif op == "take":
            prewarmer.take(host)
        elif op == "put_back":
            prewarmer.put_back(host, _StubContainer())
        elif pending:
            for _ in pending.pop(arg % len(pending)):   # run to completion
                pass
        expected = [h for h in registered
                    for _ in range(min_per_host - prewarmer.available(h))]
        # The short set holds exactly the hosts the scan would warm: no
        # host with a full pool lingers in it.
        assert prewarmer._short == set(expected)
        warmed.clear()
        # One engine entry per tick, whatever it warms.
        assert loop.send(None) == policy.replenish_interval
        assert warmed == expected


# ----------------------------------------------------------------------
# Distributed data store.
# ----------------------------------------------------------------------

def test_datastore_write_then_read_roundtrip():
    env = Environment()
    store = DistributedDataStore(env, backend="s3", rng=SeededRandom(10))

    def run():
        pointer = yield env.process(store.write("model-weights", 200 * 1024 ** 2, "kernel-1"))
        stored = yield env.process(store.read("model-weights"))
        return pointer, stored

    process = env.process(run())
    pointer, stored = env.run(until=process)
    assert pointer.key == "model-weights"
    assert pointer.backend == "s3"
    assert stored.size_bytes == 200 * 1024 ** 2
    assert store.object_count() == 1
    assert len(store.write_latencies) == 1
    assert len(store.read_latencies) == 1


def test_datastore_read_missing_key_raises():
    env = Environment()
    store = DistributedDataStore(env, backend="redis")

    def run():
        yield env.process(store.read("nope"))

    process = env.process(run())
    with pytest.raises(KeyError):
        env.run(until=process)


def test_datastore_versioning_on_rewrite():
    env = Environment()
    store = DistributedDataStore(env, backend="redis", rng=SeededRandom(11))

    def run():
        first = yield env.process(store.write("obj", 1024, "k"))
        second = yield env.process(store.write("obj", 2048, "k"))
        return first, second

    process = env.process(run())
    first, second = env.run(until=process)
    assert first.version == 1
    assert second.version == 2


def test_datastore_node_cache_accelerates_reads():
    env = Environment()
    store = DistributedDataStore(env, backend="s3", rng=SeededRandom(12))
    size = 500 * 1024 ** 2

    def run():
        yield env.process(store.write("data", size, "k", node_id="replica-1"))
        start = env.now
        yield env.process(store.read("data", node_id="replica-1"))
        cached_latency = env.now - start
        start = env.now
        yield env.process(store.read("data", node_id="replica-2"))
        uncached_latency = env.now - start
        return cached_latency, uncached_latency

    process = env.process(run())
    cached, uncached = env.run(until=process)
    assert cached < uncached
    assert store.cache_hits == 1
    assert store.cache_misses == 1


def test_datastore_backend_selection_and_validation():
    env = Environment()
    assert DistributedDataStore(env, backend="hdfs").backend is HDFS_BACKEND
    assert DistributedDataStore(env, backend=REDIS_BACKEND).backend is REDIS_BACKEND
    assert DistributedDataStore(env, backend=S3_BACKEND).backend is S3_BACKEND
    with pytest.raises(ValueError):
        DistributedDataStore(env, backend="tape")


def test_datastore_redis_faster_than_s3_for_small_objects():
    env = Environment()
    s3 = DistributedDataStore(env, backend="s3", rng=SeededRandom(13))
    redis = DistributedDataStore(env, backend="redis", rng=SeededRandom(13))

    def run(store, key):
        yield env.process(store.write(key, 1024, "k"))

    process_s3 = env.process(run(s3, "a"))
    process_redis = env.process(run(redis, "b"))
    env.run(until=process_s3)
    env.run(until=process_redis)
    assert sum(redis.write_latencies) < sum(s3.write_latencies)


def test_datastore_begin_and_finish_write_match_the_write_process():
    # Rewrites, cache-filling writes and cache-less writes, on a node cache
    # small enough to evict.
    writes = [("a", 40, "n1"), ("b", 30, "n1"), ("a", 50, "n2"),
              ("c", 45, None), ("b", 35, "n1"), ("d", 90, "n1")]

    def make_store():
        env = Environment()
        return env, DistributedDataStore(env, backend="s3",
                                         rng=SeededRandom(15),
                                         node_cache_capacity_bytes=100)

    def as_processes(env, store):
        pointers, records = [], []
        for key, size, node in writes:
            pointer = yield env.process(store.write(key, size, "k",
                                                    node_id=node))
            pointers.append(pointer)
            records.append(store._objects[key])
        return pointers, records

    def by_hand(env, store):
        records = []
        for key, size, node in writes:
            start = env.now
            yield store.begin_write(size)
            # finish_write returns the record it filed, not a copy.
            record = store.finish_write(key, size, "k", start, node)
            assert store._objects[key] is record
            records.append(record)
        return records

    env, store = make_store()
    twin_env, twin = make_store()
    pointers, records = env.run(until=env.process(as_processes(env, store)))
    twin_records = twin_env.run(until=twin_env.process(by_hand(twin_env,
                                                               twin)))
    # Records with records (ids, versions, write times), pointers with
    # pointers.
    assert twin_records == records
    assert [twin.pointer_to(record) for record in twin_records] == pointers
    assert [p.version for p in pointers] == [1, 1, 2, 1, 2, 1]
    assert twin.write_latencies == store.write_latencies
    assert twin_env.now == env.now
    assert twin._objects == store._objects   # object ids and times included
    assert twin._node_caches == store._node_caches
    assert twin.bytes_written == store.bytes_written == 290


def test_begin_read_raises_for_a_missing_key_before_any_sleep():
    env = Environment()
    store = DistributedDataStore(env, backend="s3", rng=SeededRandom(16))
    with pytest.raises(KeyError, match="nope"):
        store.begin_read("nope", node_id="n1")
    assert env.now == 0.0
    assert (store.cache_hits, store.cache_misses) == (0, 0)
    assert store.read_latencies == []
    assert store._rng.getstate() == SeededRandom(16).getstate()


def _stored(env, store, key, size, node_id=None):
    """Write ``key`` through the store and run the clock past the write."""
    env.run(until=env.process(store.write(key, size, "k", node_id=node_id)))


def test_a_cache_hit_draws_nothing_and_costs_a_millisecond():
    env = Environment()
    store = DistributedDataStore(env, backend="s3", rng=SeededRandom(17))
    _stored(env, store, "obj", 300 * 1024 ** 2, node_id="n1")
    rng_state = store._rng.getstate()
    start = env.now
    delay, hit = store.begin_read("obj", node_id="n1")
    assert (delay, hit) == (CACHE_HIT_S, True) and CACHE_HIT_S == 0.001
    assert store._rng.getstate() == rng_state
    env.run(until=start + delay)
    stored = store.finish_read("obj", start, "n1", hit)
    assert stored is store._objects["obj"]
    assert store.read_latencies == [env.now - start]
    assert (store.cache_hits, store.cache_misses, store.bytes_read) == \
        (1, 0, 0)


def test_a_miss_draws_one_latency_and_fills_the_cache_only_at_its_end():
    env = Environment()
    size = 100 * 1024 ** 2
    store = DistributedDataStore(env, backend="s3", rng=SeededRandom(18))
    _stored(env, store, "obj", size)
    # The same stream, advanced past the write's one draw.
    rng = SeededRandom(18)
    S3_BACKEND.request_latency(rng)
    transfer = size / S3_BACKEND.read_bandwidth_bytes_per_s

    first_start = env.now
    first_delay, first_hit = store.begin_read("obj", node_id="n1")
    assert not first_hit
    assert first_delay == S3_BACKEND.request_latency(rng) + transfer
    assert store._rng.getstate() == rng.getstate()
    # A second read of the key on the same node, while the first is in
    # flight, misses too: the cache is filled only when a read ends.
    env.run(until=first_start + 0.001)
    second_start = env.now
    second_delay, second_hit = store.begin_read("obj", node_id="n1")
    assert not second_hit
    assert second_delay == S3_BACKEND.request_latency(rng) + transfer
    assert store._node_caches.get("n1", {}) == {}

    env.run(until=first_start + first_delay)
    store.finish_read("obj", first_start, "n1", first_hit)
    first_latency = env.now - first_start
    assert store._node_caches == {"n1": {"obj": size}}
    env.run(until=second_start + second_delay)
    store.finish_read("obj", second_start, "n1", second_hit)
    assert store.read_latencies == [first_latency, env.now - second_start]
    assert (store.cache_hits, store.cache_misses, store.bytes_read) == \
        (0, 2, 2 * size)
    # Once a read has filled the cache, the next one hits.
    assert store.begin_read("obj", node_id="n1") == (CACHE_HIT_S, True)


def _oracle_read(store, key, node_id=None):
    """The one-generator read the halves replaced, kept as their oracle."""
    env = store.env
    start = env.now
    stored = store._objects.get(key)
    if stored is None:
        raise KeyError(key)
    if node_id is not None and key in store._node_caches.get(node_id, {}):
        store.cache_hits += 1
        yield 0.001
        store.read_latencies.append(env.now - start)
        return stored
    store.cache_misses += 1
    latency = store.backend.request_latency(store._rng)
    latency += stored.size_bytes / store.backend.read_bandwidth_bytes_per_s
    yield latency
    store.bytes_read += stored.size_bytes
    store.read_latencies.append(env.now - start)
    if node_id is not None:
        store._cache_put(node_id, key, stored.size_bytes)
    return stored


@pytest.mark.parametrize("backend", ["s3", "redis"])
def test_read_and_its_halves_match_the_one_generator_read(backend):
    """On twin seeded stores, overlapping reads through the old generator,
    through ``read`` and through the halves by hand leave identical
    latencies, counters, caches and RNG positions."""
    writes = [("a", 40, "n1"), ("b", 30, None), ("c", 50, "n2"),
              ("d", 45, "n1")]
    # (gap before the read starts, key, node); the small gaps overlap
    # reads of one key on one node, and the node cache evicts.
    reads = [(0.0, "a", "n1"), (0.0, "b", "n1"), (0.0005, "b", "n1"),
             (0.0, "c", None), (0.3, "b", "n1"), (0.0, "a", "n2"),
             (0.0, "c", "n2"), (5.0, "d", "n1"), (0.0, "a", "n1"),
             (0.0, "b", "n2"), (0.2, "b", "n2")]

    def by_hand(store, key, node_id):
        start = store.env.now
        delay, hit = store.begin_read(key, node_id)
        yield delay
        return store.finish_read(key, start, node_id, hit)

    def replay(read):
        env = Environment()
        store = DistributedDataStore(env, backend=backend,
                                     rng=SeededRandom(19),
                                     node_cache_capacity_bytes=100)
        for key, size, node in writes:
            _stored(env, store, key, size, node_id=node)
        processes = []

        def launch_reads():
            for gap, key, node in reads:
                yield gap
                processes.append(env.process(read(store, key, node)))

        env.process(launch_reads())
        env.run()
        return {
            "now": env.now,
            "returned": [process.value for process in processes],
            "latencies": store.read_latencies,
            "counters": (store.cache_hits, store.cache_misses,
                         store.bytes_read),
            "caches": {node: list(cache.items())
                       for node, cache in store._node_caches.items()},
            "rng": store._rng.getstate(),
        }

    want = replay(_oracle_read)
    assert want["counters"][0] > 0 and want["counters"][1] > 0
    assert replay(DistributedDataStore.read) == want
    assert replay(by_hand) == want


@pytest.mark.xfail(strict=True, reason=(
    "DistributedDataStore._cache_put evicts the key it is writing when that "
    "key is the node's oldest entry and the write overflows the cache. "
    "The fix is a behaviour change, so it lands in its own labelled PR "
    "(ROADMAP item 16).  Only LCP passes node ids, so only LCP digests can "
    "move: that PR re-checks them, re-pins any that move and turns this "
    "into a plain check."))
def test_node_cache_keeps_the_key_just_written():
    env = Environment()
    store = DistributedDataStore(env, backend="s3", rng=SeededRandom(1),
                                 node_cache_capacity_bytes=100)
    store._cache_put("n", "a", 40)
    store._cache_put("n", "b", 40)
    store._cache_put("n", "a", 70)
    assert "a" in store._node_caches["n"]


def test_datastore_delete_and_invalidate():
    env = Environment()
    store = DistributedDataStore(env, backend="redis", rng=SeededRandom(14))

    def run():
        yield env.process(store.write("x", 10, "k", node_id="n1"))
        return True

    env.run(until=env.process(run()))
    assert store.contains("x")
    store.invalidate_cache("n1")
    assert store.delete("x")
    assert not store.delete("x")
    assert store.object_count() == 0


# ----------------------------------------------------------------------
# VM provisioner.
# ----------------------------------------------------------------------

def test_provision_immediately_creates_hosts_without_delay():
    env = Environment()
    provisioner = VMProvisioner(env, rng=SeededRandom(15))
    hosts = provisioner.provision_immediately(3)
    assert len(hosts) == 3
    assert env.now == 0.0
    assert provisioner.hosts_provisioned == 3
    assert len({host.host_id for host in hosts}) == 3


def test_provision_has_boot_delay_and_callback():
    env = Environment()
    provisioner = VMProvisioner(env, boot_time_mean=60.0, rng=SeededRandom(16))
    ready = []
    provisioner.on_host_ready(lambda host, request: ready.append((host, request)))

    def run():
        host = yield env.process(provisioner.provision(reason="burst"))
        return host

    process = env.process(run())
    host = env.run(until=process)
    assert env.now >= 20.0
    assert ready and ready[0][0] is host
    assert ready[0][1].reason == "burst"
    assert provisioner.mean_provisioning_time() == pytest.approx(env.now)


def test_provisioner_release_decommissions_host():
    env = Environment()
    provisioner = VMProvisioner(env, rng=SeededRandom(17))
    host = provisioner.provision_immediately(1)[0]
    provisioner.release(host)
    assert not host.is_active
    assert provisioner.hosts_released == 1


def test_mean_provisioning_time_none_without_requests():
    env = Environment()
    provisioner = VMProvisioner(env)
    assert provisioner.mean_provisioning_time() is None
