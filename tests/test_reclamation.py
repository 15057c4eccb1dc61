"""Finished simulation work is freed by reference counting alone.

A finished :class:`~repro.simulation.engine.Process` drops its bound resume
callback and sleep stub, replicas hold no back-reference to their kernel,
and the platform keeps no list of background processes.  So with the cyclic
garbage collector switched off, a replay must still free every finished
process and every shut-down kernel.
"""

import gc
import weakref

from repro.api import RunSpec, Simulation
from repro.experiments.scenarios import build_trace
from repro.simulation import Environment, Interrupt

EPOCHS = 16


def test_finished_processes_and_shut_down_kernels_free_without_gc():
    simulation = Simulation.from_spec(
        RunSpec.from_scenario("smoke", policy="notebookos"))
    trace = build_trace(simulation.spec)
    platform = simulation.build(trace)
    process_refs = []
    create = platform.env.process

    def recording_process(generator, name=None):
        process = create(generator, name)
        process_refs.append(weakref.ref(process))
        return process

    platform.env.process = recording_process
    kernel_refs = {}
    enabled = gc.isenabled()
    gc.disable()
    try:
        platform.begin_workload(trace)
        for epoch in range(EPOCHS):
            platform.step_workload_until(trace.duration * (epoch + 1) / EPOCHS)
            # (No loop variable may outlive the loop and pin a kernel.)
            kernel_refs.update(
                (kernel_id, weakref.ref(kernel)) for kernel_id, kernel
                in platform.global_scheduler.kernels.items()
                if kernel_id not in kernel_refs)
        platform.drain_workload()
        platform.finish_workload()
        platform.detach_metrics()

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
    finally:
        if enabled:
            gc.enable()


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


def test_stale_sleep_stub_after_finish_is_ignored():
    """A process interrupted away from a sleep, which then finishes, leaves
    its old stub queued; the stub still wakes nothing when it pops."""
    env = Environment()
    log = []

    def sleeper():
        try:
            yield 10.0
        except Interrupt as interrupt:
            log.append(("interrupted", env.now, interrupt.cause))
        return "finished early"

    def interrupter(victim):
        yield 1.0
        victim.interrupt("stop")

    victim = env.process(sleeper())
    env.process(interrupter(victim))
    env.run()
    assert log == [("interrupted", 1.0, "stop")]
    assert victim.value == "finished early"
    # The stale 10 s stub still popped (the clock reached it) and was ignored.
    assert env.now == 10.0
