"""Finished simulation work is freed by reference counting alone.

A finished :class:`~repro.simulation.engine.Process` drops its bound resume
callback and sleep stub, replicas hold no back-reference to their kernel,
the platform keeps no list of background processes, and a Batch job that
leaves the FCFS queue leaves no ticket behind.  So with the cyclic garbage
collector switched off, a replay must still free every finished process
and every shut-down kernel.
"""

import gc
import weakref

import pytest

from repro.api import RunSpec, Simulation
from repro.experiments.scenarios import build_trace
from repro.simulation import Environment

EPOCHS = 16


@pytest.fixture
def gc_off():
    """The cyclic garbage collector, switched off for one test."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _stepped_replay(spec, after_epoch):
    """Replay ``spec`` over EPOCHS barriers, calling ``after_epoch(platform)``
    at each.  Returns the platform and a weak reference to every process
    the run created."""
    simulation = Simulation.from_spec(spec)
    trace = build_trace(simulation.spec)
    platform = simulation.build(trace)
    process_refs = []
    create = platform.env.process

    def recording_process(generator, name=None):
        process = create(generator, name)
        process_refs.append(weakref.ref(process))
        return process

    platform.env.process = recording_process
    platform.begin_workload(trace)
    for epoch in range(EPOCHS):
        platform.step_workload_until(trace.duration * (epoch + 1) / EPOCHS)
        after_epoch(platform)
    platform.drain_workload()
    platform.finish_workload()
    platform.detach_metrics()
    return platform, process_refs


def test_finished_processes_and_shut_down_kernels_free_without_gc(gc_off):
    kernel_refs = {}

    def note_kernels(platform):
        # (No loop variable may outlive the loop and pin a kernel.)
        kernel_refs.update(
            (kernel_id, weakref.ref(kernel)) for kernel_id, kernel
            in platform.global_scheduler.kernels.items()
            if kernel_id not in kernel_refs)

    _, process_refs = _stepped_replay(
        RunSpec.from_scenario("smoke", policy="notebookos"), note_kernels)

    survivors = [ref() for ref in process_refs if ref() is not None]
    assert len(process_refs) > 50
    # Only processes still running (the autoscaler loop) may survive.
    assert all(process.is_alive for process in survivors), \
        [process.name for process in survivors if not process.is_alive]
    assert len(survivors) < len(process_refs)

    assert len(kernel_refs) > 10
    live_kernels = [ref() for ref in kernel_refs.values()
                    if ref() is not None]
    # Every session ended, so every kernel was shut down and freed.
    assert live_kernels == []


def test_contended_batch_queue_frees_every_finished_job_without_gc(gc_off):
    # Hundreds of jobs park in the FCFS queue on tickets and are handed the
    # head one by one; a finished job must not stay reachable through one.
    queue_lengths = []
    platform, process_refs = _stepped_replay(
        RunSpec.from_scenario("cluster_scale", policy="batch", seed=3,
                              num_sessions=500, duration_hours=1.0),
        lambda platform: queue_lengths.append(len(platform.policy._queue)))

    assert max(queue_lengths) > 10
    assert not platform.policy._queue
    survivors = [ref() for ref in process_refs if ref() is not None]
    assert len(process_refs) > 1000
    assert all(process.is_alive for process in survivors), \
        [process.name for process in survivors if not process.is_alive]


def test_finished_process_drops_its_self_references():
    env = Environment()

    def sleeper():
        yield 1.0
        return "done"

    process = env.process(sleeper())
    ref = weakref.ref(process)
    env.run()
    assert process.value == "done"
    assert process._resume_cb is None and process._sleep_call is None
    enabled = gc.isenabled()
    gc.disable()
    try:
        del process
        assert ref() is None
    finally:
        if enabled:
            gc.enable()

