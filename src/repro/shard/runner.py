"""Drive K shards of one run to completion, serially or in parallel.

``run_sharded`` is the entry point.  ``num_shards=1`` is the **frozen
reference path**: it delegates straight to ``Simulation.from_spec(spec)``
— zero shard machinery touches the run, so it is bit-identical to the
pre-shard serial path.

For K > 1 the run proceeds in lockstep epochs over the *global* horizon:

1. each shard builds its own full platform from the spec, against its
   sub-trace (configs resolve per sub-trace, so the fleet divides ~K ways);
2. every epoch, each shard steps its calendar queue to the barrier time,
   snapshots a :class:`~repro.shard.barrier.ShardFrame`, and blocks;
3. the coordinator merges the K frames (shard order) into a
   :class:`~repro.shard.barrier.GlobalFrame` and broadcasts it back;
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
"""

from __future__ import annotations

import time as _wallclock
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.api.spec import RunSpec
from repro.metrics.collector import ExperimentResult
from repro.profiling.memory import memory_stats
from repro.shard.barrier import GlobalFrame, ShardContext
from repro.shard.merge import merge_results
from repro.shard.plan import ShardPlan, shard_traces

__all__ = ["ShardExecutionError", "ShardRuntime", "ShardedRunResult",
           "run_sharded"]


class ShardExecutionError(RuntimeError):
    """A shard failed *deterministically* (an in-simulation exception or a
    protocol violation); carries the remote traceback text.  Process-level
    losses — kills, hangs, corrupt frames — don't raise this: the
    supervisor (:mod:`repro.resilience`) recovers them transparently."""


@dataclass
class ShardedRunResult:
    """A sharded run's merged result plus per-shard reporting."""

    result: ExperimentResult
    num_shards: int
    #: ``"reference"`` (num_shards=1), ``"serial"``, ``"parallel"``, or
    #: ``"degraded"`` (supervision exhausted a shard's restart budget and
    #: fell back to the serial driver — same digest, no processes).
    mode: str
    #: Per-shard payloads in shard index order; each carries ``shard``
    #: (the stats_payload), ``memory`` (that process's peak RSS), and —
    #: when requested — ``profile`` / ``telemetry`` report dicts.
    shard_payloads: List[Dict[str, object]] = field(default_factory=list)
    #: Supervision accounting from :class:`repro.resilience.
    #: ResilienceMonitor` — worker losses/recoveries, per-shard restart
    #: counts, degrade flag, and the full event timeline.  Empty for the
    #: ``num_shards=1`` reference path.
    resilience: Dict[str, object] = field(default_factory=dict)

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

    @property
    def recoveries(self) -> int:
        """Workers lost and deterministically recovered during this run."""
        return int(self.resilience.get("workers_recovered", 0))

    @property
    def degraded(self) -> bool:
        """Whether supervision gave up and fell back to the serial driver."""
        return bool(self.resilience.get("degraded", False))


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
        #: Set on respawned incarnations (see repro.resilience): replay
        #: accounting that rides the payload and RUN_END stats.
        self.resilience = None

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
        platform = self.platform
        dispatched = platform.step_workload_until(time)
        return self.context.make_frame(
            epoch, time, dispatched,
            platform.cluster.aggregate(),
            platform.cluster.index.idle_gpu_histogram(),
            platform.active_session_count)

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
        if self.resilience is not None:
            payload["resilience"] = self.resilience.stats_payload()
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
                  plan_dict: dict, options: dict, trace=None,
                  recover: Optional[dict] = None) -> None:
    """One shard's process: step, exchange frames over the pipe, report.

    ``recover`` is set on respawned incarnations (see
    :mod:`repro.resilience.supervisor`): before rejoining the live barrier
    protocol the worker *fast-forwards* — it re-simulates every journaled
    epoch and absorbs the corresponding merged :class:`GlobalFrame` s,
    which reconstructs the dead incarnation's state bit for bit, then
    resumes at ``resume_epoch``.  ``options["fault_injection"]`` is the
    test-only crash harness (:class:`repro.resilience.FaultInjection`).
    """
    try:
        plan = ShardPlan.from_dict(plan_dict)
        runtime = ShardRuntime(
            RunSpec.from_dict(spec_dict), shard_index, plan,
            sketch=options.get("sketch", False),
            profile=options.get("profile", False),
            telemetry_kwargs=options.get("telemetry_kwargs"),
            trace=trace)
        injection = None
        injection_dict = options.get("fault_injection")
        if injection_dict and injection_dict.get("shard") == shard_index:
            from repro.resilience.supervisor import FaultInjection

            injection = FaultInjection.from_dict(injection_dict)
        runtime.setup()
        start_epoch = 0
        if recover is not None:
            start_epoch = int(recover["resume_epoch"])
            for epoch in range(start_epoch):
                # Deterministic replay: the recomputed frame is identical
                # to the one the dead incarnation sent, so it is discarded
                # and the journaled merged frame absorbed in its place.
                runtime.step_epoch(epoch, plan.barrier_times[epoch])
                runtime.absorb(GlobalFrame.from_dict(
                    recover["frames"][epoch]))
            from repro.resilience.monitor import ResilienceContext

            resilience = ResilienceContext(
                incarnation=int(recover.get("incarnation", 2)),
                replayed_epochs=start_epoch)
            runtime.platform.resilience_context = resilience
            runtime.resilience = resilience
        for epoch in range(start_epoch, plan.num_epochs):
            barrier_time = plan.barrier_times[epoch]
            frame = runtime.step_epoch(epoch, barrier_time)
            if injection is not None and epoch == injection.epoch:
                injection.fire(connection, ("frame", frame.to_dict()))
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
        if injection is not None and injection.epoch >= plan.num_epochs:
            injection.fire(connection, ("result", payload))
        connection.send(("result", payload))
    except BaseException as error:  # ship the traceback, never hang the pipe
        try:
            connection.send(("error", repr(error), traceback.format_exc()))
        except Exception:
            pass
    finally:
        connection.close()


# ----------------------------------------------------------------------
# Entry point.
# ----------------------------------------------------------------------
def run_sharded(spec, num_shards: int, *, parallel: bool = True,
                epoch_s: Optional[float] = None, sketch: bool = False,
                profile: bool = False,
                telemetry_kwargs: Optional[dict] = None,
                supervision=None, hooks=None,
                fault_injection=None) -> ShardedRunResult:
    """Run ``spec`` partitioned into ``num_shards`` space shards.

    ``parallel`` selects one-process-per-shard execution; the in-process
    serial mode exists for verification (both produce byte-identical
    results) and for environments where forking is unwelcome.  ``sketch``
    runs every shard's collector in fixed-memory sketch mode (required for
    giga-scale traces).  ``profile`` / ``telemetry_kwargs`` attach a
    per-shard Profiler / Telemetry whose report dicts ride the shard
    payloads.

    The parallel driver is **supervised** (see :mod:`repro.resilience`):
    a worker that dies, hangs past ``supervision.worker_timeout_s``, or
    corrupts a barrier frame is respawned and deterministically
    fast-forwarded from the journal of merged global frames, so the merged
    result is byte-identical to a fault-free run; after
    ``supervision.max_worker_restarts`` consecutive failures of one shard
    the run degrades to the serial driver (``mode == "degraded"``).
    ``hooks`` receives ``WORKER_LOST``/``WORKER_RECOVERED`` publishes;
    ``fault_injection`` is the test-only crash harness
    (:class:`repro.resilience.FaultInjection`).
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
    if fault_injection is not None:
        options["fault_injection"] = (
            fault_injection if isinstance(fault_injection, dict)
            else fault_injection.to_dict())
    # Imported lazily: repro.resilience.supervisor imports _shard_worker
    # from this module at spawn time.
    from repro.resilience import (
        ResilienceExhausted,
        ResilienceMonitor,
        ShardSupervisor,
        SupervisorConfig,
    )

    monitor = ResilienceMonitor(hooks=hooks)
    if parallel:
        config = supervision if supervision is not None else SupervisorConfig()
        supervisor = ShardSupervisor(spec, plan, options, traces,
                                     config, monitor)
        try:
            payloads = supervisor.run()
            mode = "parallel"
        except ResilienceExhausted as error:
            # One shard kept dying past its restart budget: give up on
            # parallelism, not on the run.  The serial driver ignores
            # fault_injection (it never forks), so a persistent injection
            # cannot re-kill the degraded run.
            monitor.degraded(str(error))
            runtimes = [ShardRuntime(spec, i, plan, sketch=sketch,
                                     profile=profile,
                                     telemetry_kwargs=telemetry_kwargs,
                                     trace=traces[i])
                        for i in range(num_shards)]
            payloads = _drive_serial(runtimes, plan)
            mode = "degraded"
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
                            shard_payloads=payloads,
                            resilience=monitor.payload())
