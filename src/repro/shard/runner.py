"""Drive K shards of one run to completion, serially or in parallel.

``run_sharded`` is the entry point.  ``num_shards=1`` is the **frozen
reference path**: it delegates straight to ``Simulation.from_spec(spec)``
— zero shard machinery touches the run, so it is bit-identical to the
pre-shard serial path.

For K > 1 the run proceeds in lockstep epochs over the *global* horizon:

1. each shard builds its own full platform from the spec, against its
   sub-trace (configs resolve per sub-trace, so the fleet divides ~K ways);
2. every epoch, each shard steps its engine to the barrier time,
   reports the capacity pressure it noted in a
   :class:`~repro.shard.barrier.ShardFrame`, and blocks;
3. the coordinator sums the K frames' pressure (shard order) into a
   :class:`~repro.shard.barrier.GlobalFrame` and broadcasts it back, and
   each shard keeps that fleet pressure for its QoS controller;
4. after the last barrier each shard drains its session tail
   independently (no further barriers — the tail is cross-shard-free),
   finishes its workload, and ships its result;
5. the coordinator merges the K results (:mod:`repro.shard.merge`).

The serial driver runs the K shard runtimes in-process; the parallel
driver forks one worker process per shard (pipes for the barrier
exchange).  Both execute the identical per-shard event sequences and the
identical shard-order merges, so their outputs are byte-identical —
``tests/test_shard.py`` pins this, and ``benchmarks/bench_giga.py`` gates
the parallel speedup on top of it.

The parallel driver fails fast: a worker that raises, dies, closes its
pipe or sends a message that does not unpickle ends the run with a
:class:`ShardExecutionError` naming the shard and the epoch, and every
other worker is torn down.  Nothing is retried — a shard's simulation is a
pure function of its inputs, so a rerun fails the same way unless the
fault came from outside the program.
"""

from __future__ import annotations

import multiprocessing
import time as _wallclock
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _wait
from typing import Dict, List, Optional, Sequence

from repro.api.spec import RunSpec
from repro.metrics.collector import ExperimentResult
from repro.profiling.memory import memory_stats
from repro.shard.barrier import GlobalFrame, ShardContext, ShardFrame
from repro.shard.merge import merge_results
from repro.shard.plan import ShardPlan, shard_traces

__all__ = ["ShardExecutionError", "ShardRuntime", "ShardedRunResult",
           "run_sharded"]


class ShardExecutionError(RuntimeError):
    """A worker of the parallel driver failed: it raised (the message
    carries the remote traceback text), died, closed its pipe, or sent a
    message that does not unpickle.  The message names the shard and the
    epoch; the run is torn down, not retried."""


@dataclass
class ShardedRunResult:
    """A sharded run's merged result plus per-shard reporting."""

    result: ExperimentResult
    num_shards: int
    #: ``"reference"`` (num_shards=1), ``"serial"`` or ``"parallel"``.
    mode: str
    #: Per-shard payloads in shard index order; each carries ``shard``
    #: (the stats_payload), ``memory`` (that process's peak RSS), and —
    #: when requested — ``profile`` / ``telemetry`` report dicts.
    shard_payloads: List[Dict[str, object]] = field(default_factory=list)

    @property
    def peak_rss_bytes(self) -> int:
        """Max per-process peak RSS across shards (coordinator excluded)."""
        return max((p.get("memory", {}).get("peak_rss_bytes", 0)
                    for p in self.shard_payloads), default=0)

    @property
    def barrier_stall_s(self) -> float:
        """Total wall seconds shards spent blocked at barriers."""
        return sum(p.get("shard", {}).get("barrier_stall_s", 0.0)
                   for p in self.shard_payloads)


class ShardRuntime:
    """One shard's platform, driven epoch-by-epoch from outside.

    Identical in both execution modes: the serial driver holds K of these
    in one process, the parallel worker holds exactly one.  All
    mode-dependent behavior (who waits on whom) lives in the drivers.
    """

    def __init__(self, spec: RunSpec, shard_index: int, plan: ShardPlan,
                 sketch: bool = False, profile: bool = False,
                 telemetry_kwargs: Optional[dict] = None,
                 trace=None) -> None:
        self.spec = RunSpec.from_spec(spec)
        self.shard_index = int(shard_index)
        self.plan = plan
        #: Pre-built sub-trace, when the coordinator already derived it —
        #: skipping the per-shard full-trace rebuild.  ``None`` re-derives
        #: it here; both paths run the same pure partition functions, so
        #: the resulting run is identical either way.
        self._trace = trace
        self.context = ShardContext(shard_index, plan.num_shards)
        self.profiler = None
        self.telemetry = None
        self._sketch = bool(sketch)
        self._profile = bool(profile)
        self._telemetry_kwargs = dict(telemetry_kwargs or {})
        self.platform = None
        self.result: Optional[ExperimentResult] = None

    def setup(self) -> None:
        """Build trace + platform and begin the workload (no stepping yet)."""
        from repro.api.simulation import Simulation

        simulation = Simulation.from_spec(self.spec)
        if self._sketch:
            simulation.with_sketch_metrics()
        if self._profile:
            from repro.profiling import Profiler

            self.profiler = Profiler()
            simulation.with_profiler(self.profiler)
        if self._telemetry_kwargs:
            simulation.with_telemetry(**self._telemetry_kwargs)
            self.telemetry = simulation.telemetry
        phase = (self.profiler.phase if self.profiler is not None
                 else _null_phase)
        with phase("trace_build"):
            if self._trace is not None:
                trace = self._trace
            else:
                full_trace = simulation._resolve_trace()
                trace = shard_traces(full_trace, self.plan.num_shards)[
                    self.shard_index]
        with phase("platform_build"):
            platform = simulation.build(trace)
        platform.shard_context = self.context
        platform.global_scheduler.shard_context = self.context
        # The *global* horizon, not the sub-trace's: every shard samples
        # the same windows and steps the same barrier schedule.
        platform.begin_workload(trace, until=self.plan.horizon)
        self.platform = platform
        self.simulation = simulation

    def step_epoch(self, epoch: int, time: float) -> ShardFrame:
        """Advance to the barrier at ``time`` and snapshot a frame."""
        return self.context.make_frame(
            epoch, time, self.platform.step_workload_until(time))

    def absorb(self, frame: GlobalFrame) -> None:
        self.context.absorb_global(frame)

    def finalize(self) -> ExperimentResult:
        """Drain the post-horizon tail, finish, and detach."""
        platform = self.platform
        try:
            platform.drain_workload()
            self.result = platform.finish_workload()
        finally:
            platform.detach_metrics()
        return self.result

    def abort(self) -> None:
        """Tear down after a failure elsewhere (idempotent)."""
        if self.platform is not None:
            self.platform.detach_metrics()

    def payload(self) -> Dict[str, object]:
        """Per-shard reporting: counters, memory, optional reports."""
        payload: Dict[str, object] = {
            "shard": self.context.stats_payload(),
            "memory": memory_stats(),
            "events_dispatched":
                self.platform.env.dispatch_stats()["dispatched"],
        }
        if self.profiler is not None and self.profiler.last is not None:
            payload["profile"] = self.profiler.last.to_dict()
            payload["profile_text"] = self.profiler.last.format()
        if self.telemetry is not None and self.telemetry.last is not None:
            payload["telemetry"] = self.telemetry.last.to_dict()
            payload["telemetry_text"] = self.telemetry.last.format()
        return payload


class _NullPhase:
    def __call__(self, name: str) -> "_NullPhase":
        return self

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_null_phase = _NullPhase()


# ----------------------------------------------------------------------
# Drivers.
# ----------------------------------------------------------------------
def _drive_serial(runtimes: Sequence[ShardRuntime],
                  plan: ShardPlan) -> List[Dict[str, object]]:
    """Lockstep the runtimes in-process; returns per-shard payload dicts.

    Factored out so tests can inject failing runtimes and observe the
    mid-epoch teardown path without multiprocessing in the way.
    """
    try:
        for runtime in runtimes:
            runtime.setup()
        for epoch, barrier_time in enumerate(plan.barrier_times):
            frames = [runtime.step_epoch(epoch, barrier_time)
                      for runtime in runtimes]
            merged = GlobalFrame.merge(frames)
            for runtime in runtimes:
                runtime.absorb(merged)
        payloads = []
        for runtime in runtimes:
            result = runtime.finalize()
            payload = runtime.payload()
            payload["result"] = result.to_dict()
            payloads.append(payload)
        return payloads
    except BaseException:
        for runtime in runtimes:
            try:
                runtime.abort()
            except Exception:
                pass
        raise


def _shard_worker(connection, spec_dict: dict, shard_index: int,
                  plan_dict: dict, options: dict, trace) -> None:
    """One shard's process: step, exchange frames over the pipe, report."""
    try:
        plan = ShardPlan.from_dict(plan_dict)
        runtime = ShardRuntime(
            RunSpec.from_dict(spec_dict), shard_index, plan,
            sketch=options.get("sketch", False),
            profile=options.get("profile", False),
            telemetry_kwargs=options.get("telemetry_kwargs"),
            trace=trace)
        runtime.setup()
        for epoch, barrier_time in enumerate(plan.barrier_times):
            frame = runtime.step_epoch(epoch, barrier_time)
            connection.send(("frame", frame.to_dict()))
            waited = _wallclock.monotonic()
            message = connection.recv()
            runtime.context.record_stall(_wallclock.monotonic() - waited)
            if message[0] != "global":
                return  # coordinator aborted
            runtime.absorb(GlobalFrame.from_dict(message[1]))
        result = runtime.finalize()
        payload = runtime.payload()
        payload["result"] = result.to_dict()
        connection.send(("result", payload))
    except BaseException as error:  # ship the traceback, never hang the pipe
        try:
            connection.send(("error", repr(error), traceback.format_exc()))
        except Exception:
            pass
    finally:
        connection.close()


def _lost(shard: int, process, stage: str, reason: str) -> ShardExecutionError:
    """The error for a worker whose pipe closed or whose process ended."""
    process.join(timeout=1.0)  # an exiting worker's exit code, if any
    return ShardExecutionError(
        f"shard {shard} worker lost at {stage}: {reason}, exit code "
        f"{process.exitcode}")


def _gather(workers: Sequence, expected: str, stage: str) -> List[object]:
    """One ``expected`` message from every worker, in shard order.

    Waits on the pending pipes and the worker sentinels together, so a
    worker that dies raises instead of blocking the barrier.
    """
    received: Dict[int, object] = {}
    while len(received) < len(workers):
        waiting = {}
        for shard, (process, connection) in enumerate(workers):
            if shard not in received:
                waiting[connection] = waiting[process.sentinel] = shard
        for ready in _wait(list(waiting)):
            shard = waiting[ready]
            process, connection = workers[shard]
            if shard in received:
                continue
            if ready is not connection:
                if connection.poll():
                    # Sent its message and then exited: not a death.
                    continue
                raise _lost(shard, process, stage, "process ended")
            try:
                message = connection.recv()
            except (EOFError, OSError) as error:
                raise _lost(shard, process, stage, f"pipe closed "
                            f"({type(error).__name__})") from error
            except Exception as error:
                raise ShardExecutionError(
                    f"shard {shard} sent a corrupt message at {stage} "
                    f"({type(error).__name__}: {error})") from error
            if message[0] == "error":
                raise ShardExecutionError(
                    f"shard {shard} failed at {stage}: {message[1]}\n"
                    f"{message[2]}")
            if message[0] != expected:
                raise ShardExecutionError(
                    f"shard {shard}: expected {expected!r} message at "
                    f"{stage}, got {message[0]!r}")
            received[shard] = message[1]
    return [received[shard] for shard in range(len(workers))]


def _drain_and_close(connection) -> None:
    """Drain, then close, a parent pipe end.

    A worker blocked writing into a full pipe exits only once the buffer
    empties, so joining it before draining can deadlock.
    """
    try:
        while connection.poll():
            connection.recv_bytes()
    except (EOFError, OSError):
        pass
    connection.close()


def _drive_parallel(spec: RunSpec, plan: ShardPlan, options: dict,
                    traces: Sequence) -> List[Dict[str, object]]:
    """One process per shard; the coordinator merges and broadcasts each
    barrier, and raises :class:`ShardExecutionError` on the first failed
    worker.  Every exit drains and closes each pipe before joining."""
    context = multiprocessing.get_context("fork")
    workers = []
    finished = False
    try:
        for shard in range(plan.num_shards):
            parent_end, child_end = context.Pipe()
            process = context.Process(
                target=_shard_worker,
                args=(child_end, spec.to_dict(), shard, plan.to_dict(),
                      options, traces[shard]),
                name=f"shard-{shard}", daemon=True)
            process.start()
            child_end.close()
            workers.append((process, parent_end))
        for epoch in range(plan.num_epochs):
            frames = _gather(workers, "frame", f"epoch {epoch}")
            merged = GlobalFrame.merge(
                [ShardFrame.from_dict(frame) for frame in frames]).to_dict()
            for shard, (process, connection) in enumerate(workers):
                try:
                    connection.send(("global", merged))
                except OSError as error:
                    raise _lost(shard, process, f"epoch {epoch}",
                                f"pipe closed ({type(error).__name__})"
                                ) from error
        payloads = _gather(
            workers, "result",
            f"the result phase after epoch {plan.num_epochs - 1}")
        finished = True
        return payloads
    finally:
        for process, connection in workers:
            _drain_and_close(connection)
            if not finished and process.is_alive():
                process.terminate()
        for process, _ in workers:
            process.join(timeout=60)


# ----------------------------------------------------------------------
# Entry point.
# ----------------------------------------------------------------------
def run_sharded(spec, num_shards: int, *, parallel: bool = True,
                epoch_s: Optional[float] = None, sketch: bool = False,
                profile: bool = False,
                telemetry_kwargs: Optional[dict] = None) -> ShardedRunResult:
    """Run ``spec`` partitioned into ``num_shards`` space shards.

    ``parallel`` selects one-process-per-shard execution; the in-process
    serial mode exists for verification (both produce byte-identical
    results) and for environments where forking is unwelcome.  ``sketch``
    runs every shard's collector in fixed-memory sketch mode (required for
    giga-scale traces).  ``profile`` / ``telemetry_kwargs`` attach a
    per-shard Profiler / Telemetry whose report dicts ride the shard
    payloads.

    A parallel worker that raises, dies, closes its pipe or corrupts a
    message raises :class:`ShardExecutionError` naming its shard and
    epoch; the other workers are torn down and nothing is retried.
    """
    spec = RunSpec.from_spec(spec)
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    started = _wallclock.monotonic()
    if num_shards == 1:
        # Frozen reference path: no shard machinery at all.
        from repro.api.simulation import Simulation

        simulation = Simulation.from_spec(spec)
        if sketch:
            simulation.with_sketch_metrics()
        profiler = telemetry = None
        if profile:
            from repro.profiling import Profiler

            profiler = Profiler()
            simulation.with_profiler(profiler)
        if telemetry_kwargs:
            simulation.with_telemetry(**telemetry_kwargs)
            telemetry = simulation.telemetry
        result = simulation.run()
        payload: Dict[str, object] = {
            "shard": {}, "memory": memory_stats(),
            "events_dispatched": (
                simulation.platform.env.dispatch_stats()["dispatched"]
                if simulation.platform is not None else 0),
            "result": None,  # the merged result IS the single result
        }
        if profiler is not None and profiler.last is not None:
            payload["profile"] = profiler.last.to_dict()
            payload["profile_text"] = profiler.last.format()
        if telemetry is not None and telemetry.last is not None:
            payload["telemetry"] = telemetry.last.to_dict()
            payload["telemetry_text"] = telemetry.last.format()
        return ShardedRunResult(result=result, num_shards=1,
                                mode="reference", shard_payloads=[payload])

    from repro.experiments.scenarios import build_trace

    full_trace = build_trace(spec)
    plan = ShardPlan.from_trace(full_trace, num_shards, epoch_s=epoch_s)
    traces = shard_traces(full_trace, num_shards)
    options = {"sketch": sketch, "profile": profile,
               "telemetry_kwargs": dict(telemetry_kwargs or {})}
    if parallel:
        payloads = _drive_parallel(spec, plan, options, traces)
        mode = "parallel"
    else:
        runtimes = [ShardRuntime(spec, i, plan, sketch=sketch,
                                 profile=profile,
                                 telemetry_kwargs=telemetry_kwargs,
                                 trace=traces[i])
                    for i in range(num_shards)]
        payloads = _drive_serial(runtimes, plan)
        mode = "serial"
    shard_results = [ExperimentResult.from_dict(p["result"])
                     for p in payloads]
    merged = merge_results(shard_results, trace_name=full_trace.name,
                           wall_clock_runtime=(
                               _wallclock.monotonic() - started))
    return ShardedRunResult(result=merged, num_shards=num_shards, mode=mode,
                            shard_payloads=payloads)
