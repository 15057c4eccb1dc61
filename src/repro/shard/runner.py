"""Drive K shards of one run to completion, serially or in parallel.

``run_sharded`` is the entry point.  ``num_shards=1`` is the **frozen
reference path**: it delegates straight to ``Simulation.from_spec(spec)``
— zero shard machinery touches the run, so it is bit-identical to the
pre-shard serial path.

For K > 1 the run is K independent replays:

1. the coordinator builds the full trace once and deals its sessions over
   the shards (:mod:`repro.shard.plan`);
2. each shard builds its own full platform from the spec against its
   sub-trace (configs resolve per sub-trace, so the fleet divides ~K ways)
   and replays it to completion over the *global* horizon, so every shard
   samples the same windows;
3. the coordinator merges the K results in shard order
   (:mod:`repro.shard.merge`).

The serial driver builds every shard in-process and then replays them one
after another; the parallel driver forks one worker process per shard,
and each worker sends back a single message.  Both run the identical
per-shard replays and the identical shard-order merge, so their outputs
are byte-identical — ``tests/test_shard.py`` pins this, and
``benchmarks/bench_giga.py`` gates the parallel speedup on top of it.

The parallel driver fails fast: a worker that raises, dies, closes its
pipe or sends a message that does not unpickle ends the run with a
:class:`ShardExecutionError` naming the shard, and every other worker is
torn down.  Nothing is retried — a shard's simulation is a pure function
of its inputs, so a rerun fails the same way unless the fault came from
outside the program.
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
from repro.shard.merge import merge_results
from repro.shard.plan import shard_traces
from repro.workload.trace import Trace

__all__ = ["ShardExecutionError", "ShardRuntime", "ShardedRunResult",
           "run_sharded"]


class ShardExecutionError(RuntimeError):
    """A worker of the parallel driver failed: it raised (the message
    carries the remote traceback text), died, closed its pipe, or sent a
    message that does not unpickle.  The message's first line names the
    shard; the run is torn down, not retried."""


@dataclass
class ShardedRunResult:
    """A sharded run's merged result plus per-shard reporting."""

    result: ExperimentResult
    num_shards: int
    #: ``"reference"`` (num_shards=1), ``"serial"`` or ``"parallel"``.
    mode: str
    #: Per-shard payloads in shard index order; each carries ``index``,
    #: ``memory`` (that process's peak RSS), ``events_dispatched``, the
    #: shard's ``result`` dict and — when requested — ``profile`` /
    #: ``telemetry`` report dicts.
    shard_payloads: List[Dict[str, object]] = field(default_factory=list)

    @property
    def peak_rss_bytes(self) -> int:
        """Max per-process peak RSS across shards (coordinator excluded)."""
        return max((p.get("memory", {}).get("peak_rss_bytes", 0)
                    for p in self.shard_payloads), default=0)


class ShardRuntime:
    """One shard's platform: built by :meth:`setup`, replayed to
    completion by :meth:`finalize`.

    Identical in both execution modes: the serial driver holds K of these
    in one process, a parallel worker holds exactly one.
    """

    def __init__(self, spec: RunSpec, shard_index: int, trace: Trace,
                 horizon: float, sketch: bool = False, profile: bool = False,
                 telemetry_kwargs: Optional[dict] = None) -> None:
        self.spec = RunSpec.from_spec(spec)
        self.shard_index = int(shard_index)
        #: This shard's sub-trace (see :func:`repro.shard.plan.shard_traces`).
        self.trace = trace
        #: The *global* horizon, not the sub-trace's: every shard samples
        #: the same windows.
        self.horizon = float(horizon)
        self.profiler = None
        self.telemetry = None
        self._sketch = bool(sketch)
        self._profile = bool(profile)
        self._telemetry_kwargs = dict(telemetry_kwargs or {})
        self.platform = None
        self.result: Optional[ExperimentResult] = None

    def setup(self) -> None:
        """Build the platform and begin the workload (no replay yet)."""
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
        if self.profiler is not None:
            with self.profiler.phase("platform_build"):
                platform = simulation.build(self.trace)
        else:
            platform = simulation.build(self.trace)
        platform.begin_workload(self.trace, until=self.horizon)
        self.platform = platform

    def finalize(self) -> ExperimentResult:
        """Replay the workload to completion, finish, and detach."""
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
        """Per-shard reporting after :meth:`finalize`: counters, memory,
        optional reports, and the result's dict form."""
        payload: Dict[str, object] = {
            "index": self.shard_index,
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
        payload["result"] = self.result.to_dict()
        return payload


# ----------------------------------------------------------------------
# Drivers.
# ----------------------------------------------------------------------
def _drive_serial(runtimes: Sequence[ShardRuntime]) -> List[Dict[str, object]]:
    """Build every shard, then replay each in shard order; returns the
    per-shard payloads.

    Building them all first puts the end of setup at one point: the first
    replay call.  A failure anywhere tears every shard down before it
    propagates.
    """
    try:
        for runtime in runtimes:
            runtime.setup()
        payloads = []
        for runtime in runtimes:
            runtime.finalize()
            payloads.append(runtime.payload())
        return payloads
    except BaseException:
        for runtime in runtimes:
            try:
                runtime.abort()
            except Exception:
                pass
        raise


def _shard_worker(connection, runtime: ShardRuntime) -> None:
    """One shard's process: replay the shard and send one message."""
    try:
        runtime.setup()
        runtime.finalize()
        connection.send(("result", runtime.payload()))
    except BaseException as error:  # ship the traceback, never hang the pipe
        try:
            connection.send(("error", repr(error), traceback.format_exc()))
        except Exception:
            pass
    finally:
        connection.close()


def _lost(shard: int, process, reason: str) -> ShardExecutionError:
    """The error for a worker whose pipe closed or whose process ended."""
    process.join(timeout=1.0)  # an exiting worker's exit code, if any
    return ShardExecutionError(
        f"shard {shard} worker lost: {reason}, exit code {process.exitcode}")


def _gather(workers: Sequence) -> List[Dict[str, object]]:
    """Every worker's payload, in shard order.

    Waits on the pending pipes and the worker sentinels together, so a
    worker that dies raises instead of blocking the coordinator.
    """
    received: Dict[int, Dict[str, object]] = {}
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
                raise _lost(shard, process, "process ended")
            try:
                message = connection.recv()
            except (EOFError, OSError) as error:
                raise _lost(shard, process, f"pipe closed "
                            f"({type(error).__name__})") from error
            except Exception as error:
                raise ShardExecutionError(
                    f"shard {shard} sent a corrupt message "
                    f"({type(error).__name__}: {error})") from error
            if message[0] == "error":
                raise ShardExecutionError(
                    f"shard {shard} failed: {message[1]}\n{message[2]}")
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


def _drive_parallel(
        runtimes: Sequence[ShardRuntime]) -> List[Dict[str, object]]:
    """One forked process per shard; raises :class:`ShardExecutionError`
    on the first failed worker.  Every exit drains and closes each pipe
    before joining."""
    context = multiprocessing.get_context("fork")
    workers = []
    finished = False
    try:
        for runtime in runtimes:
            parent_end, child_end = context.Pipe()
            process = context.Process(
                target=_shard_worker, args=(child_end, runtime),
                name=f"shard-{runtime.shard_index}", daemon=True)
            process.start()
            child_end.close()
            workers.append((process, parent_end))
        payloads = _gather(workers)
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
                sketch: bool = False, profile: bool = False,
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
    message raises :class:`ShardExecutionError` naming its shard; the
    other workers are torn down and nothing is retried.
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
            "index": 0, "memory": memory_stats(),
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
    runtimes = [ShardRuntime(spec, index, trace, full_trace.duration,
                             sketch=sketch, profile=profile,
                             telemetry_kwargs=telemetry_kwargs)
                for index, trace in enumerate(
                    shard_traces(full_trace, num_shards))]
    if parallel:
        payloads = _drive_parallel(runtimes)
        mode = "parallel"
    else:
        payloads = _drive_serial(runtimes)
        mode = "serial"
    # The digests hash the round-tripped form, so both modes merge it.
    shard_results = [ExperimentResult.from_dict(p["result"])
                     for p in payloads]
    merged = merge_results(shard_results, trace_name=full_trace.name,
                           wall_clock_runtime=(
                               _wallclock.monotonic() - started))
    return ShardedRunResult(result=merged, num_shards=num_shards, mode=mode,
                            shard_payloads=payloads)
