"""The NotebookOS platform facade and experiment runner.

:class:`NotebookOSPlatform` wires every component together — the simulation
environment, GPU server cluster, Local and Global Schedulers, pre-warmed
container pool, distributed data store, auto-scaler, and metrics collector —
and replays a workload trace against a scheduling policy.  The Jupyter Server
and the network hops between components are modelled as the per-hop
latencies in :class:`~repro.core.config.PlatformConfig`.

Every lifecycle occurrence (session start/end, task submit/complete,
placement decisions, checkpoints, migrations, scale events) is published
through a :class:`~repro.api.hooks.HookBus`; the metrics collector is seated
as the bus's *first* subscriber, so custom instrumentation observes a
collector that already reflects each event.  Hook callbacks are synchronous
and add zero events to the simulation timeline.

Entry point: the :class:`repro.api.Simulation` builder::

    from repro.api import Simulation

    result = Simulation.from_scenario("smoke", policy="notebookos").run()
    print(result.summary())
"""

from __future__ import annotations

import time as _wallclock
from typing import List, Optional

from repro.api.hooks import (
    RUN_END,
    RUN_START,
    SESSION_END,
    SESSION_START,
    TASK_COMPLETE,
    TASK_SUBMIT,
    PLATFORM_EVENT,
    HookBus,
)
from repro.cluster.datastore import DistributedDataStore
from repro.cluster.prewarmer import ContainerPrewarmer, PrewarmPolicy
from repro.cluster.provisioner import VMProvisioner
from repro.core.autoscaler import AutoScaler
from repro.core.config import ClusterConfig, PlatformConfig
from repro.core.global_scheduler import ClusterState, GlobalScheduler
from repro.core.gpu_binding import GpuBindingModel
from repro.core.local_scheduler import LocalScheduler
from repro.core.placement import LeastLoadedPlacement
from repro.metrics.collector import EventKind, ExperimentResult, MetricsCollector
from repro.metrics.latency_breakdown import LatencyBreakdown
from repro.profiling.memory import memory_stats
from repro.simulation.distributions import SeededRandom
from repro.simulation.engine import Environment
from repro.simulation.events import AllOf
from repro.workload.trace import SessionTrace, Trace


class NotebookOSPlatform:
    """A fully wired NotebookOS deployment running inside the simulator."""

    def __init__(self, policy, cluster_config: Optional[ClusterConfig] = None,
                 platform_config: Optional[PlatformConfig] = None,
                 hooks: Optional[HookBus] = None) -> None:
        self.policy = policy
        self.cluster_config = cluster_config or ClusterConfig()
        self.config = platform_config or PlatformConfig()
        self.cluster_config.validate()
        self.config.validate()

        self.env = Environment()
        self.rng = SeededRandom(self.config.seed)
        self.metrics = MetricsCollector(
            sample_interval=self.config.metrics_sample_interval_s,
            sketch_mode=self.config.metrics_sketch_mode,
            sketch_compression=self.config.metrics_sketch_compression)
        # The metrics collector is the hook bus's FIRST subscriber: every
        # discrete platform event reaches it through PLATFORM_EVENT before
        # any user hook runs, so instrumentation sees an up-to-date
        # collector.  Callbacks are synchronous — the bus adds no events to
        # the simulation timeline (golden-pinned).
        self.hooks = hooks if hooks is not None else HookBus()
        self._seat_metrics()
        # Sketch mode keeps no per-task records, so it keeps no per-task
        # latency breakdown either: the result's ``breakdown`` is None.
        self.breakdown = None if self.config.metrics_sketch_mode else \
            LatencyBreakdown(policy=getattr(policy, "name", "unknown"))
        self.gpu_binding = GpuBindingModel()

        # Infrastructure substrate.
        self.provisioner = VMProvisioner(
            self.env, host_spec=self.cluster_config.host_spec,
            boot_time_mean=self.cluster_config.vm_boot_time_mean_s,
            rng=self.rng.substream("provisioner"))
        self.datastore = DistributedDataStore(
            self.env, backend=self.config.datastore_backend,
            rng=self.rng.substream("datastore"))
        self.prewarmer = ContainerPrewarmer(
            self.env, policy=self.config.prewarm_policy)
        self.cluster = ClusterState(self.env)
        for host in self.provisioner.provision_immediately(self.cluster_config.initial_hosts):
            scheduler = LocalScheduler(
                self.env, host, prewarmer=self.prewarmer,
                container_latency=self.config.container_latency,
                rng=self.rng.substream(f"ls:{host.host_id}"),
                processing_delay=self.config.ls_processing_s)
            self.cluster.add_host(host, scheduler)
        self.prewarmer.start_maintenance()

        # Control plane.
        placement = LeastLoadedPlacement(
            oversubscription_enabled=self.config.oversubscription_enabled,
            subscription_ratio_limit=self.config.subscription_ratio_limit,
            high_watermark=self.config.subscription_high_watermark)
        self.global_scheduler = GlobalScheduler(
            self.env, self.cluster, self.config, self.cluster_config,
            provisioner=self.provisioner, prewarmer=self.prewarmer,
            datastore=self.datastore, metrics=self.metrics, placement=placement,
            rng=self.rng.substream("global-scheduler"), hooks=self.hooks)
        self.autoscaler = AutoScaler(self.env, self.global_scheduler,
                                     self.config, self.cluster_config)

        # Run-time session bookkeeping.
        self.active_session_count = 0
        self.active_training_count = 0
        # Set by the shard runner (repro.shard) when this platform simulates
        # one shard of a space-partitioned run.  Anything with a
        # ``stats_payload()`` method qualifies (duck-typed to keep the core
        # free of shard imports); when set, finish_workload adds its payload
        # under ``stats["shard"]`` in the RUN_END publish.
        self.shard_context = None
        # In-flight workload bookkeeping between begin_workload and
        # finish_workload (None outside a run).
        self._workload: Optional[dict] = None

        # QoS admission throttle (repro.qos.actions.admission_throttle):
        # while the clock is before ``admission_throttle_until`` every task
        # admission is deferred by ``admission_throttle_delay_s``.  Inactive
        # (the default) costs one float compare per admission and yields
        # nothing, so runs without QoS stay byte-identical.
        self.admission_throttle_until = 0.0
        self.admission_throttle_delay_s = 0.0
        # Failure-storm log: (time, host_id, replicas_failed) per executed
        # chaos round (see repro.core.chaos; empty unless configured).
        self.chaos_log: List = []
        # The closed-loop QoS controller — built only when the config
        # carries a qos block, so default runs construct (and subscribe)
        # nothing.
        qos_config = self.config.normalized_qos()
        if qos_config is not None:
            from repro.qos.controller import QosController

            self.qos = QosController(self, qos_config)
        else:
            self.qos = None

    def _seat_metrics(self) -> None:
        """Seat the collector first on the bus (idempotent via detach)."""
        self.hooks.subscribe(PLATFORM_EVENT, self.metrics.record_event,
                             first=True)
        if self.metrics.sketch_mode:
            # Sketch-mode collectors keep no task list; they fold each
            # finished task into their sketches from the completion hook,
            # seated first like record_event.
            self.hooks.subscribe(TASK_COMPLETE,
                                 self.metrics.absorb_completed_task,
                                 first=True)

    def detach_metrics(self) -> None:
        """Stop routing bus events into this platform's collector.

        A :class:`HookBus` can outlive the platform it was first attached to
        (e.g. a :class:`~repro.api.Simulation` that is run twice); detaching
        keeps a finished run's collector from recording a later run's
        events.  Idempotent.
        """
        self.hooks.unsubscribe(PLATFORM_EVENT, self.metrics.record_event)
        if self.metrics.sketch_mode:
            self.hooks.unsubscribe(TASK_COMPLETE,
                                   self.metrics.absorb_completed_task)

    # ------------------------------------------------------------------
    # Helpers used by policies.
    # ------------------------------------------------------------------
    def spawn_background(self, generator) -> None:
        """Run a generator as a fire-and-forget background process.

        The platform keeps no reference to the process: the event queue holds
        it while it runs, and reference counting frees it (and whatever it
        returned) as soon as it finishes.
        """
        self.env.process(generator)

    # ------------------------------------------------------------------
    # Workload replay.
    # ------------------------------------------------------------------
    def run_workload(self, trace: Trace, until: Optional[float] = None) -> ExperimentResult:
        """Replay ``trace`` under this platform's policy and collect metrics.

        Equivalent to ``begin_workload``; ``drain_workload``;
        ``finish_workload`` — the same calls the shard runner makes, minus
        the epoch-bounded ``step_workload_until`` stepping in between.  The
        phases execute the identical operations in the identical order the
        pre-split monolith did, so this path stays the frozen bit-identical
        reference the golden digests pin.
        """
        self.begin_workload(trace, until=until)
        try:
            self.drain_workload()
            return self.finish_workload()
        finally:
            # The run is over (or died): retire this collector from the bus
            # so a shared bus reused for another platform cannot keep
            # appending into this run's metrics.
            self.detach_metrics()

    def begin_workload(self, trace: Trace, until: Optional[float] = None) -> None:
        """Start replaying ``trace``: seat metrics, publish RUN_START, and
        launch the sampler/autoscaler/session processes — without running
        the event loop.

        After this call the caller owns the clock: either
        :meth:`drain_workload` in one go (what :meth:`run_workload` does) or
        repeated :meth:`step_workload_until` epochs followed by a drain.
        ``until`` bounds the metrics sampler and the idle-tail fill exactly
        as before; pass the *global* horizon when this platform simulates
        one shard of a larger run so every shard samples the same windows.
        """
        from repro.statesync.ast_analysis import ast_cache_stats

        started_wallclock = _wallclock.monotonic()
        ast_hits_before, ast_misses_before = ast_cache_stats()
        dispatch_before = self.env.dispatch_stats()
        # (Re-)seat the collector first on the bus: idempotent for the normal
        # construct-then-run flow, and restores the subscription the previous
        # run's teardown removed if this platform is driven twice.
        self.detach_metrics()
        self._seat_metrics()
        self.hooks.publish(RUN_START, self, trace)
        horizon = until if until is not None else trace.duration
        self.env.process(self._sampler_loop(horizon), name="metrics-sampler")
        if self.policy.uses_autoscaler and self.config.autoscaler_enabled:
            self.autoscaler.start()
        if self.config.host_failure_interval_s is not None:
            from repro.core.chaos import chaos_process

            self.env.process(
                chaos_process(self, self.config.host_failure_interval_s,
                              self.config.min_surviving_hosts),
                name="chaos")
        session_processes = [
            self.env.process(self._session_process(session),
                             name=f"session:{session.session_id}")
            for session in trace]
        self._workload = {
            "trace": trace,
            "horizon": horizon,
            "started_wallclock": started_wallclock,
            "ast_before": (ast_hits_before, ast_misses_before),
            "dispatch_before": dispatch_before,
            "allof": (AllOf(self.env, session_processes)
                      if session_processes else None),
        }

    def step_workload_until(self, time: float) -> int:
        """Advance the in-flight workload to exactly ``time`` (one epoch).

        Returns the number of events dispatched this epoch (the shard
        barrier's progress signal).  Stepping to the horizon and then
        calling :meth:`drain_workload` dispatches the exact event sequence
        one unbounded drain would — the epoch bound is inclusive and never
        splits a same-timestamp batch (see ``Environment.run_until``).
        """
        return self.env.run_until(time)

    def drain_workload(self) -> None:
        """Run the in-flight workload to completion (sessions + idle tail).

        Safe after any number of ``step_workload_until`` epochs: an
        already-finished session ``AllOf`` returns immediately, and the
        horizon fill is skipped once the clock has reached it.
        """
        workload = self._workload
        if workload is None:
            raise RuntimeError("no workload in flight; call begin_workload")
        allof = workload["allof"]
        if allof is not None:
            self.env.run(until=allof)
        if self.env.now < workload["horizon"]:
            self.env.run(until=workload["horizon"])

    def finish_workload(self) -> ExperimentResult:
        """Finalize metrics, publish RUN_END, and return the result.

        Does *not* detach the collector from the bus — callers that own the
        begin/step/drain sequence (the shard runner, :meth:`run_workload`)
        do that in their own ``finally`` so a died run is torn down too.
        """
        workload = self._workload
        if workload is None:
            raise RuntimeError("no workload in flight; call begin_workload")
        from repro.statesync.ast_analysis import ast_cache_stats

        self._workload = None
        trace = workload["trace"]
        ast_hits_before, ast_misses_before = workload["ast_before"]
        self._finalize_metrics()
        result = ExperimentResult(policy=getattr(self.policy, "name", "unknown"),
                                  trace_name=trace.name, collector=self.metrics,
                                  wall_clock_runtime=(
                                      _wallclock.monotonic()
                                      - workload["started_wallclock"]),
                                  breakdown=self.breakdown)
        ast_hits, ast_misses = ast_cache_stats()
        dispatch_after = self.env.dispatch_stats()
        dispatch_before = workload["dispatch_before"]
        stats = {
            "ast_cache_hits": ast_hits - ast_hits_before,
            "ast_cache_misses": ast_misses - ast_misses_before,
            # Engine dispatch counters for this run (see
            # Environment.dispatch_stats); the repro.profiling
            # subsystem folds these into its report.
            "dispatch": {key: dispatch_after[key] - dispatch_before[key]
                         for key in dispatch_after},
            # Peak process memory (lifetime high-water mark, not
            # run-scoped — getrusage cannot be reset).
            "memory": memory_stats(),
        }
        if self.shard_context is not None:
            # Per-shard dispatch/barrier counters (index, epochs, stall
            # seconds, pressure); only present on sharded runs so the
            # serial RUN_END payload — and everything golden-pinned
            # downstream of it — is byte-identical to before.
            stats["shard"] = self.shard_context.stats_payload()
        self.hooks.publish(RUN_END, self, result, stats)
        return result

    def _finalize_metrics(self) -> None:
        self.metrics.datastore_read_latencies = list(self.datastore.read_latencies)
        self.metrics.datastore_write_latencies = list(self.datastore.write_latencies)

    # ------------------------------------------------------------------
    # Per-session driver.
    # ------------------------------------------------------------------
    def _session_process(self, session: SessionTrace):
        env = self.env
        publish = self.hooks.publish
        breakdown = self.breakdown
        if session.start_time > env.now:
            yield session.start_time - env.now
        kernel_id = f"{session.session_id}-kernel"
        self.active_session_count += 1
        publish(PLATFORM_EVENT, env.now, EventKind.SESSION_STARTED,
                session.session_id)
        publish(SESSION_START, env.now, session)
        try:
            # The zero-sleeps bracketing the two session-lifecycle hooks
            # reproduce the bootstrap/completion event timing of the
            # ``yield env.process(hook)`` form they replaced: hooks like
            # Reservation's subscribe/unsubscribe mutate host state the
            # metrics sampler can observe at the same instant, so their
            # synchronous prefix/suffix must run at exactly the event-pop
            # they used to (golden-pinned), just without the Process
            # allocation.  execute_task below needs no bracket: its
            # synchronous edges touch only task-local state.
            yield 0.0
            yield from self.policy.on_session_start(self, session)
            yield 0.0
            for task in sorted(session.tasks, key=lambda t: t.submit_time):
                if task.submit_time > env.now:
                    yield task.submit_time - env.now
                # QoS admission backpressure: while a throttle hold is
                # active, defer this admission by the configured delay.
                # Inactive — the permanent state without a QoS controller —
                # this is a single float compare and no yield, keeping bare
                # runs byte-identical.
                if env.now < self.admission_throttle_until:
                    yield self.admission_throttle_delay_s
                metrics = self.metrics.new_task(
                    session_id=session.session_id, kernel_id=kernel_id,
                    submitted_at=env.now, gpus=task.gpus, is_gpu_task=task.is_gpu_task)
                publish(TASK_SUBMIT, env.now, session, task, metrics)
                if task.is_gpu_task:
                    self.active_training_count += 1
                try:
                    yield from self.policy.execute_task(self, session, task,
                                                        metrics)
                finally:
                    if task.is_gpu_task:
                        self.active_training_count -= 1
                if breakdown is not None:
                    breakdown.add(metrics.steps)
                publish(TASK_COMPLETE, env.now, session, task, metrics)
            if session.end_time > env.now:
                yield session.end_time - env.now
            yield 0.0
            yield from self.policy.on_session_end(self, session)
            yield 0.0
        finally:
            # Non-yielding bookkeeping only: this block must stay safe even if
            # the session process is torn down with an exception in flight.
            self.active_session_count -= 1
            publish(PLATFORM_EVENT, env.now, EventKind.SESSION_TERMINATED,
                    session.session_id)
            publish(SESSION_END, env.now, session)

    # ------------------------------------------------------------------
    # Periodic cluster sampling.
    # ------------------------------------------------------------------
    def _sampler_loop(self, horizon: float):
        # Every value below reads an O(1) incremental aggregate (see
        # ClusterState), and record() appends straight into the timelines —
        # the sampler costs the same on 400 hosts as on 4.
        env = self.env
        cluster = self.cluster
        policy = self.policy
        record = self.metrics.make_cluster_sampler()
        interval = self.config.metrics_sample_interval_s
        replication = max(1, self.config.replication_factor)
        while env.now <= horizon:
            record(env.now,
                   int(policy.provisioned_gpus(self)),
                   cluster.committed_training_gpus(),
                   self.active_session_count,
                   self.active_training_count,
                   cluster.subscription_ratio(replication),
                   cluster.active_host_count)
            yield interval
