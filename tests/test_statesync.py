"""Unit tests for AST analysis, object classification, checkpointing, and sync."""

import keyword

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import DistributedDataStore
from repro.cluster.datastore import ObjectPointer
from repro.simulation import Environment, SeededRandom
from repro.simulation.engine import Process
from repro.statesync import (
    CheckpointManager,
    LARGE_OBJECT_THRESHOLD_BYTES,
    NamespaceObject,
    ObjectClass,
    StateSynchronizer,
    analyze_code,
    ast_cache_stats,
    classify_object,
    clear_ast_cache,
)
from repro.statesync.synchronizer import SyncLatencyModel


# ----------------------------------------------------------------------
# AST analysis.
# ----------------------------------------------------------------------

def test_analysis_cache_hits_are_identical_to_fresh_parses():
    """A memoized analysis equals (indeed *is*) the cold-cache analysis."""
    code = ("import torch\n"
            "model = build()\n"
            "for epoch in range(3):\n"
            "    history.append(train(model))\n")
    clear_ast_cache()
    cold = analyze_code(code)
    warm = analyze_code(code)
    assert warm is cold  # shared, treat-as-frozen
    assert ast_cache_stats() == (1, 1)
    clear_ast_cache()
    refreshed = analyze_code(code)
    assert refreshed is not cold
    assert refreshed == cold
    assert ast_cache_stats() == (0, 1)
    # Syntax errors are memoized too (the flag is part of the analysis).
    assert analyze_code("def broken(:").has_syntax_error
    assert analyze_code("def broken(:").has_syntax_error
    assert ast_cache_stats() == (1, 2)


def test_simple_assignment_detected():
    analysis = analyze_code("learning_rate = 0.001\nepochs = 10")
    assert analysis.assigned_names == {"learning_rate", "epochs"}
    assert analysis.touches_state


def test_augmented_assignment_marks_mutation():
    analysis = analyze_code("counter += 1")
    assert "counter" in analysis.mutated_names
    assert "counter" in analysis.names_to_replicate


def test_attribute_and_subscript_writes_mark_root_name():
    analysis = analyze_code("config['lr'] = 0.1\nmodel.dropout = 0.5")
    assert {"config", "model"} <= analysis.mutated_names


def test_mutating_method_calls_detected():
    code = "loss_history.append(loss)\noptimizer.step()\nmodel.load_state_dict(ckpt)"
    analysis = analyze_code(code)
    assert {"loss_history", "optimizer", "model"} <= analysis.mutated_names


def test_pure_reads_do_not_replicate():
    analysis = analyze_code("print(accuracy)\nresult = accuracy")
    assert "accuracy" in analysis.referenced_names
    assert "accuracy" not in analysis.names_to_replicate
    assert "result" in analysis.names_to_replicate


def test_imports_and_definitions_detected():
    code = (
        "import torch\n"
        "from torch import nn as neural\n"
        "def train_one_epoch(model):\n"
        "    local_only = 1\n"
        "    return model\n"
        "class Trainer:\n"
        "    pass\n"
    )
    analysis = analyze_code(code)
    assert {"torch", "neural"} <= analysis.imported_modules
    assert "train_one_epoch" in analysis.defined_functions
    assert "Trainer" in analysis.defined_classes
    # Names assigned only inside function bodies stay local.
    assert "local_only" not in analysis.names_to_replicate


def test_tuple_unpacking_and_for_loop_targets():
    analysis = analyze_code("a, (b, c) = 1, (2, 3)\nfor epoch in range(3):\n    pass")
    assert {"a", "b", "c", "epoch"} <= analysis.assigned_names


def test_with_statement_target_detected():
    analysis = analyze_code("with open('f') as handle:\n    data = handle.read()")
    assert "handle" in analysis.assigned_names
    assert "data" in analysis.assigned_names


def test_delete_statement_detected():
    analysis = analyze_code("del old_model")
    assert analysis.deleted_names == {"old_model"}
    assert analysis.touches_state


def test_walrus_operator_detected():
    analysis = analyze_code("if (n := compute()) > 3:\n    pass")
    assert "n" in analysis.assigned_names


def test_syntax_error_yields_empty_analysis():
    analysis = analyze_code("def broken(:\n    pass")
    assert analysis.has_syntax_error
    assert not analysis.touches_state


def test_realistic_training_cell():
    code = (
        "model = VGG16(num_classes=10)\n"
        "optimizer = torch.optim.SGD(model.parameters(), lr=lr)\n"
        "for epoch in range(epochs):\n"
        "    loss = train_epoch(model, loader, optimizer)\n"
        "    history.append(loss)\n"
    )
    analysis = analyze_code(code)
    assert {"model", "optimizer", "epoch"} <= analysis.assigned_names
    # `loss` is assigned inside the for body at module depth 0 -> replicated.
    assert "history" in analysis.mutated_names
    assert "train_epoch" not in analysis.names_to_replicate


@settings(max_examples=30, deadline=None)
@given(name=st.from_regex(r"[a-z_][a-z0-9_]{0,10}", fullmatch=True)
       .filter(lambda s: not keyword.iskeyword(s)),
       value=st.integers(min_value=0, max_value=10**6))
def test_any_simple_assignment_is_detected_property(name, value):
    analysis = analyze_code(f"{name} = {value}")
    assert name in analysis.assigned_names


# ----------------------------------------------------------------------
# Object classification.
# ----------------------------------------------------------------------

def test_classification_threshold():
    assert classify_object(0) == ObjectClass.SMALL
    assert classify_object(LARGE_OBJECT_THRESHOLD_BYTES - 1) == ObjectClass.SMALL
    assert classify_object(LARGE_OBJECT_THRESHOLD_BYTES) == ObjectClass.LARGE


def test_classification_rejects_negative():
    with pytest.raises(ValueError):
        classify_object(-1)
    with pytest.raises(ValueError):
        NamespaceObject(name="x", size_bytes=-5)


def test_namespace_object_class_property():
    small = NamespaceObject(name="lr", size_bytes=64, kind="scalar")
    big = NamespaceObject(name="model", size_bytes=500 * 1024 ** 2, kind="model",
                          resides_on_gpu=True)
    assert small.object_class == ObjectClass.SMALL
    assert big.object_class == ObjectClass.LARGE


# ----------------------------------------------------------------------
# Checkpoint manager.
# ----------------------------------------------------------------------

def make_checkpoint_env():
    env = Environment()
    store = DistributedDataStore(env, backend="s3", rng=SeededRandom(1))
    manager = CheckpointManager(env=env, datastore=store, kernel_id="kernel-1")
    return env, store, manager


def test_checkpoint_and_restore_roundtrip():
    env, store, manager = make_checkpoint_env()
    model = NamespaceObject(name="model", size_bytes=250 * 1024 ** 2, kind="model")

    def run():
        pointer = yield env.process(manager.checkpoint(model, node_id="replica-1"))
        restored = yield env.process(manager.restore("model", node_id="replica-2"))
        return pointer, restored

    pointer, restored = env.run(until=env.process(run()))
    assert pointer.key == "kernel-1/model"
    assert restored.size_bytes == model.size_bytes
    assert manager.checkpoints_written == 1
    assert manager.objects_restored == 1
    assert store.object_count() == 1


def test_checkpoint_all_and_restore_all():
    env, _store, manager = make_checkpoint_env()
    objects = [NamespaceObject(name=f"shard-{i}", size_bytes=10 * 1024 ** 2)
               for i in range(3)]

    def run():
        pointers = yield env.process(manager.checkpoint_all(objects))
        restored = yield env.process(manager.restore_all(node_id="new-replica"))
        return pointers, restored

    pointers, restored = env.run(until=env.process(run()))
    assert len(pointers) == 3
    assert len(restored) == 3
    assert sorted(manager.checkpointed_names) == ["shard-0", "shard-1", "shard-2"]
    assert manager.total_checkpointed_bytes() == 30 * 1024 ** 2


def test_restore_unknown_object_raises():
    env, _store, manager = make_checkpoint_env()

    def run():
        yield env.process(manager.restore("ghost"))

    with pytest.raises(KeyError):
        env.run(until=env.process(run()))


def test_checkpoint_versioning_on_overwrite():
    env, _store, manager = make_checkpoint_env()
    obj = NamespaceObject(name="model", size_bytes=2 * 1024 ** 2)

    def run():
        first = yield env.process(manager.checkpoint(obj))
        second = yield env.process(manager.checkpoint(obj))
        return first, second

    first, second = env.run(until=env.process(run()))
    assert second.version == first.version + 1
    assert manager.pointer_for("model").version == second.version


# ----------------------------------------------------------------------
# State synchronizer.
# ----------------------------------------------------------------------

def make_synchronizer(seed=3):
    env = Environment()
    store = DistributedDataStore(env, backend="s3", rng=SeededRandom(seed))
    manager = CheckpointManager(env=env, datastore=store, kernel_id="kernel-1")
    synchronizer = StateSynchronizer(env, "kernel-1", manager,
                                     rng=SeededRandom(seed))
    return env, synchronizer, manager


NAMESPACE = [
    NamespaceObject(name="model", size_bytes=300 * 1024 ** 2, kind="model"),
    NamespaceObject(name="dataset", size_bytes=1024 ** 3, kind="dataset"),
    NamespaceObject(name="lr", size_bytes=32, kind="scalar"),
    NamespaceObject(name="history", size_bytes=2048, kind="history"),
    NamespaceObject(name="untouched", size_bytes=128, kind="scalar"),
]


def test_synchronize_splits_small_and_large_state():
    env, synchronizer, manager = make_synchronizer()
    code = "model = train(model, dataset)\nlr = 0.01\nhistory.append(lr)"
    sink = []
    job = synchronizer.replicate(code, NAMESPACE, "replica-1", sink)
    # Only the touched large objects are written; the small ones ride the
    # Raft commit, and untouched names are not replicated at all.
    assert [o.name for o in job.large_objects] == ["model"]
    touched = job.analysis.names_to_replicate
    assert {"lr", "history", "model"} <= touched
    assert "untouched" not in touched and "dataset" not in touched
    assert job.raft_sync_latency == 0.0   # nothing has run yet
    env.run()
    assert job.raft_sync_latency > 0
    assert manager.checkpoints_written == 1
    assert synchronizer.sync_latencies == [job.raft_sync_latency]
    assert sink == [job.raft_sync_latency]
    # The one write starts when the commit lands.
    write_latencies = manager.datastore.write_latencies
    assert len(write_latencies) == 1 and write_latencies[0] > 0
    assert env.now == pytest.approx(job.raft_sync_latency
                                    + write_latencies[0])


def test_synchronize_pure_read_cell_is_noop():
    env, synchronizer, manager = make_synchronizer()
    sink = []
    job = synchronizer.replicate("print(history)", NAMESPACE, None, sink)
    env.run()
    assert job.raft_sync_latency == 0.0
    assert job.large_objects == []
    assert env.now == 0.0
    assert env.dispatch_stats()["dispatched"] == 0
    assert manager.checkpoints_written == 0
    assert synchronizer.sync_latencies == [] and sink == []


def test_checkpoint_records_are_the_stores_objects():
    """A write keeps one record, the data store's own ``StoredObject``, and
    the pointer APIs still return the same ``ObjectPointer`` values."""
    env, synchronizer, manager = make_synchronizer()
    store = manager.datastore
    code = "model = train(model, dataset)\ndataset = load()"
    synchronizer.replicate(code, NAMESPACE, "replica-1", [])
    env.run()
    synchronizer.replicate(code, NAMESPACE, "replica-2", [])
    env.run()
    assert sorted(manager.records) == ["dataset", "model"]
    for name, record in manager.records.items():
        key = f"kernel-1/{name}"
        assert record is store._objects[key]
        assert record.version == 2
        assert manager.pointer_for(name) == ObjectPointer(
            key=key, size_bytes=record.size_bytes, version=2, backend="s3")
    assert manager.pointer_for("lr") is None
    assert manager.total_checkpointed_bytes() == 300 * 1024 ** 2 + 1024 ** 3

    def run():
        first = yield env.process(store.write("k/x", 64, "k"))
        second = yield env.process(store.write("k/x", 96, "k"))
        return first, second

    first, second = env.run(until=env.process(run()))
    assert first == ObjectPointer(key="k/x", size_bytes=64, version=1,
                                  backend="s3")
    assert second == ObjectPointer(key="k/x", size_bytes=96, version=2,
                                   backend="s3")


@pytest.mark.parametrize("code, commits, large", [
    ("print(history)", 0, 0),
    ("lr = 0.01\nhistory.append(lr)", 1, 0),
    ("model = train(model, dataset)", 1, 1),
    ("model = train(model)\ndataset = load()\nlr = 0.1", 1, 2),
])
def test_replicating_a_cell_dispatches_one_entry_per_step(code, commits, large,
                                                          monkeypatch):
    """One entry for the commit plus one per large-object write, and no
    process; the process path dispatched a bootstrap and a completion entry
    on top of those."""
    def no_process(*_args, **_kwargs):
        raise AssertionError("replication created a process")

    monkeypatch.setattr(Process, "__init__", no_process)
    env, synchronizer, _manager = make_synchronizer()
    env.process = no_process
    job = synchronizer.replicate(code, NAMESPACE, "replica-1", [])
    assert len(job.large_objects) == large
    env.run()
    assert env.dispatch_stats()["dispatched"] == commits + large

    monkeypatch.undo()
    env, synchronizer, _manager = make_synchronizer()
    env.process(_oracle_replicate_state(synchronizer, code, NAMESPACE,
                                        "replica-1", []))
    env.run()
    assert env.dispatch_stats()["dispatched"] == commits + large + 2


# -- The process path replication replaced, kept here as the oracle. ----
# ``_oracle_replicate_state`` -> ``_oracle_synchronize`` ->
# ``_oracle_checkpoint_all`` are the three generator levels
# ``NotebookOSPolicy`` used to spawn as one background process per cell.

def _oracle_checkpoint_all(manager, objects, node_id):
    env = manager.env
    begin_write = manager.datastore.begin_write
    for obj in objects:
        start = env.now
        yield begin_write(obj.size_bytes)
        manager._written(obj, start, node_id)


def _oracle_synchronize(synchronizer, code, namespace_objects, node_id):
    env = synchronizer.env
    analysis = analyze_code(code)
    touched = analysis.names_to_replicate
    large = [obj for obj in namespace_objects if obj.name in touched
             and obj.size_bytes >= LARGE_OBJECT_THRESHOLD_BYTES]
    raft_sync_latency = 0.0
    if analysis.touches_state:
        start = env.now
        yield synchronizer.latency_model.sample(synchronizer._rng)
        raft_sync_latency = env.now - start
        synchronizer.sync_latencies.append(raft_sync_latency)
    if large:
        yield from _oracle_checkpoint_all(synchronizer.checkpoint_manager,
                                          large, node_id)
    return large, raft_sync_latency


def _oracle_replicate_state(synchronizer, code, namespace_objects, node_id,
                            sink):
    report = yield from _oracle_synchronize(synchronizer, code,
                                            namespace_objects, node_id)
    if report[1] > 0:
        sink.append(report[1])
    return report


CELL_TEMPLATES = [
    "print(history)",                                  # pure reads
    "len(losses)",
    "this is not python(",                             # syntax error
    "lr = 0.01",                                       # small state only
    "history.append(loss)\nresults['acc'] = 0.9",
    "del results",
    "import numpy",
    "def step(x):\n    return x",
    "model = train(model, train_loader)",              # large objects
    "model.fit(train_loader)\nhistory.append(1)",
    "train_loader = load()\nmodel = build()\nlr = 0.1",
    "optimizer.step()\nmodel.train()\ndataset = model",
]
NAMESPACE_NAMES = ["model", "train_loader", "dataset", "lr", "history",
                   "losses", "results", "optimizer"]
OBJECT_SIZES = [32, 2048, LARGE_OBJECT_THRESHOLD_BYTES - 1,
                LARGE_OBJECT_THRESHOLD_BYTES, 300 * 1024 ** 2, 2 * 1024 ** 3]

namespaces = st.lists(
    st.tuples(st.sampled_from(NAMESPACE_NAMES), st.sampled_from(OBJECT_SIZES)),
    min_size=1, max_size=8, unique_by=lambda entry: entry[0]).map(
        lambda entries: [NamespaceObject(name=name, size_bytes=size)
                         for name, size in entries])
# (kernel, gap before the cell completes, code, executor replica).  Gaps
# far below the write latencies make one kernel's replications overlap.
cells = st.lists(
    st.tuples(st.integers(0, 2),
              st.sampled_from([0.0, 0.001, 0.05, 0.7, 3.0, 40.0]),
              st.sampled_from(CELL_TEMPLATES),
              st.sampled_from([None, "replica-0", "replica-1"])),
    min_size=1, max_size=25)


def _replay(seed, kernel_namespaces, cell_list, scheduled):
    """Replay ``cell_list`` through either replication path and return
    everything either path can change."""
    env = Environment()
    store = DistributedDataStore(env, backend="s3", rng=SeededRandom(seed),
                                 node_cache_capacity_bytes=3 * 1024 ** 3)
    syncs = [StateSynchronizer(
        env, f"kernel-{index}",
        CheckpointManager(env=env, datastore=store,
                          kernel_id=f"kernel-{index}"),
        rng=SeededRandom(seed).substream(f"sync:kernel-{index}"))
        for index in range(len(kernel_namespaces))]
    sink = []
    outcomes = []

    def driver():
        for kernel, gap, code, node in cell_list:
            yield gap
            index = kernel % len(syncs)
            sync, namespace = syncs[index], kernel_namespaces[index]
            if scheduled:
                outcomes.append(sync.replicate(code, namespace, node, sink))
            else:
                outcomes.append(env.process(_oracle_replicate_state(
                    sync, code, namespace, node, sink)))

    env.run(until=env.process(driver()))
    env.run()
    if scheduled:
        reports = [(job.large_objects, job.raft_sync_latency)
                   for job in outcomes]
    else:
        reports = [process.value for process in outcomes]
    return {
        "now": env.now,
        "reports": reports,
        "raft_sink": sink,
        "sync_latencies": [sync.sync_latencies for sync in syncs],
        "write_latencies": store.write_latencies,
        "stored": dict(store._objects),
        "records": [dict(sync.checkpoint_manager.records) for sync in syncs],
        "written": [sync.checkpoint_manager.checkpoints_written
                    for sync in syncs],
        "node_caches": {node: list(cache.items())
                        for node, cache in store._node_caches.items()},
        "next_draws": ([sync._rng.random() for sync in syncs],
                       store._rng.random()),
    }


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1),
       kernel_namespaces=st.lists(namespaces, min_size=1, max_size=3),
       cell_list=cells)
def test_replicate_matches_the_process_path(seed, kernel_namespaces,
                                            cell_list):
    """The scheduled job replicates exactly as the per-cell process did:
    the same latencies in the same order, the same stored objects (ids and
    versions), node caches, and RNG positions afterwards."""
    clear_ast_cache()
    want = _replay(seed, kernel_namespaces, cell_list, scheduled=False)
    got = _replay(seed, kernel_namespaces, cell_list, scheduled=True)
    assert got == want


def test_sync_latency_model_magnitudes_match_figure11():
    rng = SeededRandom(9)
    model = SyncLatencyModel()
    samples = sorted(model.sample(rng) for _ in range(20000))
    p90 = samples[int(0.90 * len(samples))]
    p99 = samples[int(0.99 * len(samples))]
    # Figure 11: p90 = 54.79 ms, p99 = 268.25 ms. Same order of magnitude.
    assert 0.02 < p90 < 0.15
    assert 0.08 < p99 < 0.60
    assert min(samples) >= model.minimum_s
