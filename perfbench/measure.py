"""One workload's measurement, in a fresh process (started by ``run.py``).

Untraced (``--trace 0``): an untimed warm-up setup, a few setup-only
repetitions, then full repetitions (setup + replay) until ``--seconds`` is
spent.  Every timed section is calibrated slice by slice
(:mod:`calibration`); the end-to-end metrics are medians over repetitions.

Traced (``--trace 1``): setup-only repetitions, one unprofiled repetition
for the overhead baseline, and one repetition whose replay runs under
cProfile; the per-layer table comes from that profile plus the
program's own counters (:mod:`layers`).

Both modes check every repetition's output and print the canonical digest of
the collector's ``to_dict()``.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import platform as host_platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from calibration import REFERENCE_S, SliceClock, Yardstick, peak_rss_mb

# The yardstick is built before the program is imported, so its working set
# is frozen out of the garbage collector before any program object exists.
YARDSTICK = Yardstick()

from repro.api import RUN_END, TASK_COMPLETE, RunSpec  # noqa: E402
from repro.api.simulation import Simulation  # noqa: E402
from repro.core.platform import NotebookOSPlatform  # noqa: E402
from repro.experiments.scenarios import build_trace  # noqa: E402
from repro.qos.targets import QosConfig  # noqa: E402
from repro.shard import run_sharded  # noqa: E402
from repro.statesync.ast_analysis import clear_ast_cache  # noqa: E402

import layers  # noqa: E402

#: Epochs the single-platform replays are stepped through (the shard
#: driver's default count): each step is a slice boundary.
EPOCHS = 64
#: CPU seconds per calibrated slice.
SLICE_S = 0.25
#: Setup-only repetitions before the full ones (setup is cheap, and its
#: median needs more samples than the replay's).
SETUP_ONLY_REPS = 8
STORM_QOS = "interactivity:p99>60:autoscaler_override,extra_hosts=2,hold_s=900"


def oversub_spec(seed: int) -> RunSpec:
    return RunSpec.from_scenario("cluster_scale", policy="notebookos",
                                 seed=seed)


def fcfs_spec(seed: int) -> RunSpec:
    return RunSpec.from_scenario("cluster_scale", policy="batch", seed=seed)


def storm_spec(seed: int) -> RunSpec:
    qos = QosConfig.from_specs([STORM_QOS], window_s=300.0).to_dict()
    return RunSpec.from_scenario("failure_storm", policy="notebookos",
                                 seed=seed, num_sessions=1500, qos=qos)


def replay_single(spec: RunSpec):
    """One platform through the public begin/step/drain/finish calls."""
    simulation = Simulation.from_spec(spec)
    trace = build_trace(simulation.spec)
    platform = simulation.build(trace)
    platform.begin_workload(trace)
    try:
        for epoch in range(EPOCHS):
            platform.step_workload_until(trace.duration * (epoch + 1) / EPOCHS)
        platform.drain_workload()
        return platform.finish_workload()
    finally:
        platform.detach_metrics()


def replay_sharded(spec: RunSpec):
    """K=2 space shards through the in-process serial driver."""
    return run_sharded(spec, 2, parallel=False).result


#: name -> (spec factory, replay function)
WORKLOADS: Dict[str, tuple] = {
    "oversub_notebookos": (oversub_spec, replay_single),
    "fcfs_batch": (fcfs_spec, replay_single),
    "storm_shards": (storm_spec, replay_sharded),
}


class SetupDone(Exception):
    """Ends a setup-only repetition at its first replay step."""


@dataclass
class Rep:
    """What one repetition measured."""

    trace: tuple = (0.0, 0.0)    # (raw, calibrated) CPU seconds
    setup: tuple = (0.0, 0.0)
    replay: tuple = (0.0, 0.0)
    result: object = None
    stats: List[dict] = field(default_factory=list)    # RUN_END per platform
    index_versions: int = 0
    profile: Optional[cProfile.Profile] = None
    peak_rss_mb: float = 0.0
    digest: str = ""
    problems: List[str] = field(default_factory=list)
    outcomes: Dict[str, float] = field(default_factory=dict)
    tasks: int = 0
    not_ok: int = 0


class Probe:
    """Times repetitions from outside the program, at its public calls.

    While active it wraps ``Simulation.build`` (the end of trace
    generation) and the platform's ``begin/step_workload_until/drain/
    finish_workload`` (the end of setup at the first step, then slice
    boundaries), and subscribes a slice tick to every platform's
    ``TASK_COMPLETE`` hook.  Hooks are synchronous and add no simulation
    events, so a probed run is bit-identical to a bare one.
    """

    def __init__(self, yardstick: Yardstick) -> None:
        self.yardstick = yardstick
        self._saved: Dict[tuple, Callable] = {}
        self.rep: Optional[Rep] = None

    def __enter__(self) -> "Probe":
        probe = self
        build = Simulation.build
        begin = NotebookOSPlatform.begin_workload
        step = NotebookOSPlatform.step_workload_until
        drain = NotebookOSPlatform.drain_workload
        finish = NotebookOSPlatform.finish_workload

        def build_wrapper(simulation, *args, **kwargs):
            probe._end_trace()
            return build(simulation, *args, **kwargs)

        def begin_wrapper(platform, *args, **kwargs):
            platform.hooks.subscribe(TASK_COMPLETE, probe._tick)
            platform.hooks.subscribe(RUN_END, probe._run_end)
            return begin(platform, *args, **kwargs)

        def step_wrapper(platform, until):
            probe._boundary()
            return step(platform, until)

        def drain_wrapper(platform):
            probe._boundary()
            return drain(platform)

        def finish_wrapper(platform):
            probe._boundary()
            result = finish(platform)
            probe.rep.index_versions += platform.cluster.version
            return result

        for owner, name, wrapper in (
                (Simulation, "build", build_wrapper),
                (NotebookOSPlatform, "begin_workload", begin_wrapper),
                (NotebookOSPlatform, "step_workload_until", step_wrapper),
                (NotebookOSPlatform, "drain_workload", drain_wrapper),
                (NotebookOSPlatform, "finish_workload", finish_wrapper)):
            self._saved[(owner, name)] = getattr(owner, name)
            setattr(owner, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for (owner, name), original in self._saved.items():
            setattr(owner, name, original)
        self._saved.clear()

    # -- one repetition ---------------------------------------------------
    def run(self, replay, spec, setup_only: bool = False,
            profile: bool = False) -> Rep:
        self.rep = rep = Rep()
        self._setup_only = setup_only
        self._profile = cProfile.Profile() if profile else None
        self._in_trace = True
        self._replay_clock: Optional[SliceClock] = None
        # The AST cache is process-wide: start every repetition as cold as
        # a fresh process would.
        clear_ast_cache()
        gc.collect()
        self._setup_clock = SliceClock(self.yardstick)
        self._setup_clock.start()
        try:
            rep.result = replay(spec)
        except SetupDone:
            return rep
        finally:
            if self._profile is not None:
                self._profile.disable()
        self._replay_clock.stop()
        # Read before anything else allocates: the digest's serialization
        # must not count as the program's memory.
        rep.peak_rss_mb = peak_rss_mb(self.yardstick)
        rep.replay = (self._replay_clock.raw_s,
                      self._replay_clock.calibrated_s)
        rep.profile = self._profile
        return rep

    def _end_trace(self) -> None:
        if self._in_trace:
            self._in_trace = False
            self._setup_clock.cut()
            self.rep.trace = (self._setup_clock.raw_s,
                              self._setup_clock.calibrated_s)

    def _boundary(self) -> None:
        if self._replay_clock is None:
            self._begin_replay()
        else:
            self._replay_clock.tick()

    def _begin_replay(self) -> None:
        self._setup_clock.stop()
        self.rep.setup = (self._setup_clock.raw_s,
                          self._setup_clock.calibrated_s)
        if self._setup_only:
            raise SetupDone
        gc.collect()
        # A profiled replay is timed as one slice: yardstick samples taken
        # inside it would be profiled too.
        self._replay_clock = SliceClock(
            self.yardstick,
            slice_s=float("inf") if self._profile is not None else SLICE_S)
        self._replay_clock.start()
        if self._profile is not None:
            self._profile.enable()

    def _tick(self, *_args) -> None:
        self._replay_clock.tick()

    def _run_end(self, _platform, _result, stats) -> None:
        self.rep.stats.append(stats)


# ----------------------------------------------------------------------
# Checks and simulated outcomes.
# ----------------------------------------------------------------------
def digest(result) -> str:
    """SHA-256 of the collector's canonical JSON (sorted keys)."""
    canonical = json.dumps(result.collector.to_dict(), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def settle(rep: Rep, trace_tasks: int) -> None:
    """Check a finished repetition and record its simulated outcomes.

    Task accounting must hold: ok + failed == submitted == tasks in the
    trace.
    """
    collector = rep.result.collector
    tasks = collector.tasks
    ok = sum(1 for task in tasks if task.status == "ok")
    errors = sum(1 for task in tasks if task.status == "error")
    rep.tasks, rep.not_ok = len(tasks), len(tasks) - ok
    rep.digest = digest(rep.result)
    if ok + errors != len(tasks):
        rep.problems.append(f"{len(tasks) - ok - errors} tasks neither ok "
                            f"nor failed")
    if len(tasks) != trace_tasks:
        rep.problems.append(f"{len(tasks)} tasks submitted, trace has "
                            f"{trace_tasks}")
    rep.outcomes = {
        "interactivity_p50_s": collector.interactivity_percentile(0.50),
        "interactivity_p99_s": collector.interactivity_percentile(0.99),
        "provisioned_gpu_hours": collector.provisioned_gpu_hours(),
        "ok_task_frac": ok / len(tasks),
    }


def verdict(reps: List[Rep]):
    """(problems, failed tasks): a repetition that failed a check, or whose
    digest disagrees with the others', counts all its tasks as failed."""
    problems = [problem for rep in reps for problem in rep.problems]
    agree = len({rep.digest for rep in reps}) == 1
    if not agree:
        problems.append("digests differ between replays of one input")
    failed = sum(rep.tasks if rep.problems or not agree else rep.not_ok
                 for rep in reps)
    return problems, failed


def spread(values: List[float]) -> str:
    if len(values) < 2:
        return "n=1"
    low, high = min(values), max(values)
    return f"n={len(values)} range {low:.4f}-{high:.4f}"


def host_block(yardstick: Yardstick) -> Dict[str, object]:
    q1, q2, q3 = yardstick.quartiles()
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "platform": host_platform.platform(),
            "calibration_reference_s": REFERENCE_S,
            "yardstick_q1_s": round(q1, 5), "yardstick_median_s": round(q2, 5),
            "yardstick_q3_s": round(q3, 5),
            "yardstick_samples": len(yardstick.samples)}


# ----------------------------------------------------------------------
# Modes.
# ----------------------------------------------------------------------
def measure(name: str, seed: int, seconds: float) -> dict:
    make_spec, replay = WORKLOADS[name]
    spec = make_spec(seed)
    trace_tasks = build_trace(spec).total_task_count
    setups: List[tuple] = []
    reps: List[Rep] = []
    with Probe(YARDSTICK) as probe:
        probe.run(replay, spec, setup_only=True)  # warm-up, untimed
        started = time.monotonic()
        for _ in range(SETUP_ONLY_REPS):
            setups.append(probe.run(replay, spec, setup_only=True).setup)
        while True:
            rep_started = time.monotonic()
            rep = probe.run(replay, spec)
            setups.append(rep.setup)
            reps.append(rep)
            settle(rep, trace_tasks)
            rep.result = None
            # Start another repetition only if three quarters of it fits
            # in the measuring time: a run overshoots by at most a quarter
            # of one repetition.
            now = time.monotonic()
            if now + 0.75 * (now - rep_started) > started + seconds:
                break
    return summarize(name, seed, setups, reps, trace_tasks)


def summarize(name, seed, setups, reps, trace_tasks) -> dict:
    problems, failed = verdict(reps)
    replay_raw = [rep.replay[0] for rep in reps]
    replay_cal = [rep.replay[1] for rep in reps]
    setup_raw = [setup[0] for setup in setups]
    setup_cal = [setup[1] for setup in setups]
    replay_s = statistics.median(replay_cal)
    setup_s = statistics.median(setup_cal)
    sim = reps[0].outcomes
    metrics = {
        "replay_s": (replay_s, "s"),
        "setup_s": (setup_s, "s"),
        "tasks_per_s": (statistics.median(rep.tasks / rep.replay[1]
                                          for rep in reps), "tasks/s"),
        "peak_rss_mb": (reps[0].peak_rss_mb, "MB"),
        "interactivity_p50_s": (sim["interactivity_p50_s"], "sim_s"),
        "interactivity_p99_s": (sim["interactivity_p99_s"], "sim_s"),
        "provisioned_gpu_hours": (sim["provisioned_gpu_hours"], "GPU-h"),
        "ok_task_frac": (sim["ok_task_frac"], "ratio"),
    }
    samples = {"replay_s": len(reps), "setup_s": len(setups),
               "tasks_per_s": len(reps), "peak_rss_mb": 1}
    interactivity_samples = reps[0].tasks
    lines = [f"workload {name} seed {seed}: {trace_tasks} tasks, "
             f"{len(reps)} repetitions, digest {reps[0].digest[:16]}"]
    lines.append("host " + json.dumps(host_block(YARDSTICK)))
    lines.append(f"  replay_s calibrated {replay_s:.4f} ({spread(replay_cal)})"
                 f" raw {statistics.median(replay_raw):.4f} "
                 f"({spread(replay_raw)})")
    lines.append(f"  setup_s  calibrated {setup_s:.4f} ({spread(setup_cal)}) "
                 f"raw {statistics.median(setup_raw):.4f} "
                 f"({spread(setup_raw)})")
    for index, rep in enumerate(reps):
        lines.append(f"    rep {index}: replay calibrated {rep.replay[1]:.4f} "
                     f"raw {rep.replay[0]:.4f}; setup calibrated "
                     f"{rep.setup[1]:.4f} raw {rep.setup[0]:.4f}")
    for key, (value, unit) in metrics.items():
        count = samples.get(key, interactivity_samples)
        lines.append(f"  {key:<24} {value:>14.6f} {unit:<8} n={count}")
    last = interactivity_samples - 1
    beyond = last - int(0.99 * last)
    lines.append(f"  interactivity samples {interactivity_samples}, "
                 f"{beyond} beyond p99")
    for problem in problems:
        lines.append(f"  CHECK FAILED: {problem}")
    return {"lines": lines, "correct": not problems,
            "attempted": trace_tasks * len(reps), "failed": failed,
            "metrics": {key: {"value": value, "unit": unit}
                        for key, (value, unit) in metrics.items()}}


def measure_traced(name: str, seed: int) -> dict:
    make_spec, replay = WORKLOADS[name]
    spec = make_spec(seed)
    trace_tasks = build_trace(spec).total_task_count
    setups: List[Rep] = []
    with Probe(YARDSTICK) as probe:
        probe.run(replay, spec, setup_only=True)  # warm-up, untimed
        for _ in range(SETUP_ONLY_REPS):
            setups.append(probe.run(replay, spec, setup_only=True))
        plain = probe.run(replay, spec)
        traced = probe.run(replay, spec, profile=True)
    settle(plain, trace_tasks)
    settle(traced, trace_tasks)
    problems, failed = verdict([plain, traced])
    table = layers.layer_table(traced.profile, traced.replay[1])
    metrics = layers.per_layer_metrics(
        table, traced, setups, plain.replay[1], trace_tasks)
    lines = [f"workload {name} seed {seed} (traced): {trace_tasks} tasks, "
             f"digest {plain.digest[:16]} untraced / {traced.digest[:16]} "
             f"traced"]
    lines.append("host " + json.dumps(host_block(YARDSTICK)))
    lines.append(f"  untraced replay {plain.replay[1]:.4f} s calibrated "
                 f"(raw {plain.replay[0]:.4f}); traced {traced.replay[1]:.4f}"
                 f" (raw {traced.replay[0]:.4f}); overhead "
                 f"{metrics['trace_overhead'][0]:.3f}x")
    lines.extend(layers.format_table(table))
    lines.append("  not exercised: " + ", ".join(layers.NOT_EXERCISED))
    for key, (value, unit) in metrics.items():
        lines.append(f"  {key:<30} {value:>14.6f} {unit}")
    for problem in problems:
        lines.append(f"  CHECK FAILED: {problem}")
    return {"lines": lines, "correct": not problems,
            "attempted": 2 * trace_tasks, "failed": failed,
            "metrics": {key: {"value": value, "unit": unit}
                        for key, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.trace:
        report = measure_traced(args.workload, args.seed)
    else:
        report = measure(args.workload, args.seed, args.seconds)
    for line in report.pop("lines"):
        print(line)
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
