"""Command-line interface for the experiment subsystem.

Usage::

    python -m repro.experiments list
    python -m repro.experiments run <scenario> [--policy P] [--seed N]
    python -m repro.experiments sweep --policies reservation,batch,notebookos,lcp \
        --seeds 7,8,9 --workers 4
    python -m repro.experiments profile <scenario> [--policy P] [--json OUT]
    python -m repro.experiments telemetry <scenario> [--stream interactivity]
    python -m repro.experiments trace <scenario> --out run.trace.json

``run`` and ``sweep`` persist results to the on-disk store (default
``.repro_results/``, override with ``--store-dir`` or the
``REPRO_RESULTS_DIR`` environment variable), so repeating a command is a
cache hit.  See EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.api import (
    ResultStore,
    RunOutcome,
    SweepGrid,
    default_policy_registry,
    default_registry,
    run_specs,
)
from repro.shard import ShardExecutionError

SUMMARY_COLUMNS = ["scenario", "policy", "seed", "tasks", "interact_p50_s",
                   "interact_p95_s", "tct_p50_s", "gpu_hours", "migrations",
                   "source", "runtime_s"]


def _csv(text: str) -> List[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _csv_ints(text: str) -> List[int]:
    return [int(item) for item in _csv(text)]


def _shard_count(text: str) -> int:
    """``--shards``: a whole number of shards, at least one."""
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def _make_store(args) -> Optional[ResultStore]:
    if getattr(args, "no_store", False):
        return None
    return ResultStore(args.store_dir)


def _print_outcomes(outcomes: Sequence[RunOutcome]) -> None:
    outcomes = [outcome for outcome in outcomes if not outcome.failed]
    if not outcomes:
        return
    rows = []
    for outcome in outcomes:
        summary = outcome.result.summary()
        rows.append({
            "scenario": outcome.spec.scenario,
            "policy": outcome.spec.policy,
            "seed": outcome.spec.seed,
            "tasks": summary["tasks_completed"],
            "interact_p50_s": _round(summary["interactivity_p50_s"]),
            "interact_p95_s": _round(summary["interactivity_p95_s"]),
            "tct_p50_s": _round(summary["tct_p50_s"]),
            "gpu_hours": summary["provisioned_gpu_hours"],
            "migrations": summary["migrations"],
            "source": "store" if outcome.cached else "run",
            "runtime_s": round(outcome.runtime_s, 1),
        })
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows))
              for c in SUMMARY_COLUMNS}
    header = "  ".join(c.ljust(widths[c]) for c in SUMMARY_COLUMNS)
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(str(row[c]).ljust(widths[c]) for c in SUMMARY_COLUMNS))


def _round(value, digits: int = 2):
    return round(value, digits) if value is not None else "-"


def _print_failures(failures: Sequence[RunOutcome]) -> None:
    """Per-spec failure summary: label and failure headline."""
    print(f"\n{len(failures)} spec(s) failed:", file=sys.stderr)
    for outcome in failures:
        headline = outcome.error or "unknown failure"
        if outcome.traceback:
            lines = [line for line in outcome.traceback.strip().splitlines()
                     if line.strip()]
            if lines:
                headline = lines[-1].strip()
        print(f"  {outcome.spec.label}: {headline}", file=sys.stderr)


def _report_store(store: Optional[ResultStore], total: int) -> None:
    if store is None:
        return
    print(f"\nstore: {store.hits}/{total} cache hits "
          f"({store.root.resolve()})")


def cmd_list(args) -> int:
    registry = default_registry()
    for scenario in registry:
        kwargs = ", ".join(f"{k}={v}" for k, v in
                           sorted(scenario.generator_kwargs.items()))
        print(f"{scenario.name:<10} generator={scenario.generator} "
              f"preset={scenario.config_preset} seed={scenario.default_seed}")
        print(f"           {scenario.description}")
        print(f"           knobs: {kwargs}")
    print("\npolicies:")
    for entry in default_policy_registry():
        aliases = f" (aliases: {', '.join(entry.aliases)})" if entry.aliases else ""
        print(f"{entry.name:<12} {entry.description}{aliases}")
    store = ResultStore(args.store_dir)
    entries = list(store.entries())
    print(f"\nresult store: {store.root.resolve()} ({len(entries)} cached "
          f"result{'s' if len(entries) != 1 else ''})")
    return 0


def _qos_block(args) -> Optional[dict]:
    """Parse the ``--qos`` shorthand targets into a spec ``qos`` block."""
    if not getattr(args, "qos", None):
        return None
    from repro.qos import QosConfig

    config = QosConfig.from_specs(args.qos, window_s=args.qos_window)
    config.validate()
    return config.to_dict()


def _run_with_qos(spec) -> int:
    """Run one QoS-enabled spec, printing the live control-loop timeline."""
    from repro.api import (
        QOS_ACTION,
        QOS_BREACH,
        QOS_RECOVER,
        RUN_END,
        Simulation,
    )

    qos_stats: dict = {}
    sim = (Simulation.from_spec(spec)
           .on(QOS_BREACH, lambda t, name, detail: print(
               f"[{t:10.1f}s] breach  {name}: "
               f"{detail['stat']}={detail['value']:.2f} "
               f"(threshold {detail['threshold']:g})"))
           .on(QOS_ACTION, lambda t, name, action, detail: print(
               f"[{t:10.1f}s] action  {name} -> {action}"))
           .on(QOS_RECOVER, lambda t, name, detail: print(
               f"[{t:10.1f}s] recover {name}: "
               f"{detail['stat']}={detail['value']:.2f}"))
           .on(RUN_END, lambda p, r, stats: qos_stats.update(
               stats.get("qos", {}))))
    result = sim.run()
    summary = result.summary()
    print(f"\ntasks={summary['tasks_completed']}  "
          f"interact_p50={_round(summary['interactivity_p50_s'])}s  "
          f"tct_p50={_round(summary['tct_p50_s'])}s  "
          f"migrations={summary['migrations']}")
    for name, entry in sorted(qos_stats.get("targets", {}).items()):
        print(f"qos {name}: breaches={entry['breaches']} "
              f"recoveries={entry['recoveries']} "
              f"actions={entry['actions_fired']} ({entry['action']}) "
              f"final={entry['final_state']}")
    return 0


def _run_sharded_cli(spec, args) -> int:
    """Run one spec space-sharded over one process per shard."""
    from repro.shard import run_sharded

    sharded = run_sharded(spec, args.shards)
    _print_outcomes([RunOutcome(spec=spec, result=sharded.result,
                                cached=False, runtime_s=0.0)])
    print(f"\nmode={sharded.mode}  shards={sharded.num_shards}")
    return 0


def cmd_run(args) -> int:
    if args.shards > 1 and args.qos:
        # run --qos prints the live control-loop timeline from this
        # process's hooks, which a sharded run's workers do not reach.
        raise ValueError("--shards and --qos cannot be combined on 'run'; "
                         "use 'telemetry --shards K --qos ...' for a "
                         "sharded QoS run")
    scenario = default_registry().get(args.scenario)
    spec = scenario.instantiate(policy=args.policy, seed=args.seed,
                                num_sessions=args.sessions,
                                duration_hours=args.hours,
                                qos=_qos_block(args))
    if spec.qos:
        # A QoS run is about the live breach/action/recovery timeline, which
        # only exists while hooks fire — run it directly, bypassing the store.
        return _run_with_qos(spec)
    if args.shards > 1:
        # Sharded runs bypass the store (like profile/telemetry --shards):
        # a K-shard run is a different experiment from the spec's unsharded
        # run, and K is not part of the spec hash the store keys on.
        return _run_sharded_cli(spec, args)
    store = _make_store(args)
    outcomes = run_specs([spec], workers=1, store=store, progress=print,
                         strict=False)
    failures = [outcome for outcome in outcomes if outcome.failed]
    if failures:
        _print_failures(failures)
        return 2
    _print_outcomes(outcomes)
    _report_store(store, 1)
    return 0


def cmd_profile(args) -> int:
    """Run one scenario with a :class:`repro.profiling.Profiler` attached."""
    import json as _json
    from pathlib import Path

    from repro.api import Simulation
    from repro.profiling import Profiler

    scenario = default_registry().get(args.scenario)
    spec = scenario.instantiate(policy=args.policy, seed=args.seed,
                                num_sessions=args.sessions,
                                duration_hours=args.hours)
    if args.shards > 1:
        # Sharded run: one profiler per shard; each shard's report carries
        # its own phase timings and dispatch counters.
        from repro.shard import run_sharded

        sharded = run_sharded(spec, args.shards, profile=True)
        for payload in sharded.shard_payloads:
            print(f"--- shard {payload['index']}/{args.shards} ---")
            print(payload["profile_text"])
        result = sharded.result
        summary = result.summary()
        print(f"\nmode={sharded.mode}  shards={sharded.num_shards}  "
              f"tasks={summary['tasks_completed']}  "
              f"interact_p50={_round(summary['interactivity_p50_s'])}s  "
              f"tct_p50={_round(summary['tct_p50_s'])}s  "
              f"migrations={summary['migrations']}")
        if args.json:
            document = {"shards": [payload["profile"]
                                   for payload in sharded.shard_payloads]}
            Path(args.json).write_text(
                _json.dumps(document, indent=2, sort_keys=True) + "\n")
            print(f"wrote {args.json}")
        return 0
    profiler = Profiler()
    result = Simulation.from_spec(spec).with_profiler(profiler).run()
    report = profiler.last
    print(report.format())
    summary = result.summary()
    print(f"\ntasks={summary['tasks_completed']}  "
          f"interact_p50={_round(summary['interactivity_p50_s'])}s  "
          f"tct_p50={_round(summary['tct_p50_s'])}s  "
          f"migrations={summary['migrations']}")
    if args.json:
        Path(args.json).write_text(report.to_json() + "\n")
        print(f"wrote {args.json}")
    return 0


def cmd_telemetry(args) -> int:
    """Run one scenario with streaming telemetry attached."""
    from pathlib import Path

    from repro.api import Simulation
    from repro.telemetry import Telemetry

    scenario = default_registry().get(args.scenario)
    spec = scenario.instantiate(policy=args.policy, seed=args.seed,
                                num_sessions=args.sessions,
                                duration_hours=args.hours,
                                qos=_qos_block(args))
    if args.shards > 1:
        # Sharded run: one telemetry attachment per shard; print each
        # shard's report (the windows cover the same global horizon).
        import json as _json

        from repro.shard import run_sharded
        from repro.telemetry import TelemetryReport

        sharded = run_sharded(
            spec, args.shards, sketch=args.sketch,
            telemetry_kwargs={"window_s": args.window, "spans": args.spans})
        for payload in sharded.shard_payloads:
            report = TelemetryReport.from_dict(payload["telemetry"])
            if args.stream is not None and args.stream not in report.streams:
                raise KeyError(
                    f"unknown stream {args.stream!r} "
                    f"(known: {', '.join(sorted(report.streams))})")
            print(f"--- shard {payload['index']}/{args.shards} ---")
            print(report.format(stream=args.stream))
        print(f"mode={sharded.mode}  shards={sharded.num_shards}")
        if args.json:
            document = {"shards": [payload["telemetry"]
                                   for payload in sharded.shard_payloads]}
            Path(args.json).write_text(
                _json.dumps(document, indent=2, sort_keys=True) + "\n")
            print(f"wrote {args.json}")
        if args.store_artifact:
            store = ResultStore(args.store_dir)
            path = store.save_artifact(
                spec, "telemetry",
                {"shards": [payload["telemetry"]
                            for payload in sharded.shard_payloads]})
            print(f"stored telemetry artifact at {path}")
        return 0
    telemetry = Telemetry(window_s=args.window, spans=args.spans)
    sim = Simulation.from_spec(spec).with_telemetry(telemetry)
    if args.sketch:
        sim.with_sketch_metrics()
    qos_stats: dict = {}
    if spec.qos:
        from repro.api import RUN_END
        sim.on(RUN_END,
               lambda p, r, stats: qos_stats.update(stats.get("qos", {})))
    sim.run()
    report = telemetry.last
    if args.stream is not None and args.stream not in report.streams:
        raise KeyError(f"unknown stream {args.stream!r} "
                       f"(known: {', '.join(sorted(report.streams))})")
    print(report.format(stream=args.stream))
    for name, entry in sorted(qos_stats.get("targets", {}).items()):
        print(f"qos {name}: breaches={entry['breaches']} "
              f"recoveries={entry['recoveries']} "
              f"actions={entry['actions_fired']} ({entry['action']}) "
              f"final={entry['final_state']}")
    if args.json:
        Path(args.json).write_text(report.to_json() + "\n")
        print(f"wrote {args.json}")
    if args.store_artifact:
        store = ResultStore(args.store_dir)
        path = store.save_artifact(spec, "telemetry", report.to_dict())
        print(f"stored telemetry artifact at {path}")
    return 0


def cmd_trace(args) -> int:
    """Run one scenario recording trace spans and export them as JSON."""
    import json
    from pathlib import Path

    from repro.api import Simulation
    from repro.telemetry import Telemetry

    scenario = default_registry().get(args.scenario)
    spec = scenario.instantiate(policy=args.policy, seed=args.seed,
                                num_sessions=args.sessions,
                                duration_hours=args.hours)
    telemetry = Telemetry(window_s=args.window, spans=True)
    Simulation.from_spec(spec).with_telemetry(telemetry).run()
    report = telemetry.last
    out = Path(args.out if args.out else f"{args.scenario}.trace.json")
    document = report.timeline() if args.timeline else report.chrome_trace()
    out.write_text(json.dumps(document) + "\n")
    counts = ", ".join(f"{category}={count}" for category, count
                       in sorted(report.span_counts.items()))
    print(f"trace: {report.trace_name} / {report.policy} — "
          f"{len(report.spans)} spans ({counts})")
    hint = "" if args.timeline else \
        "  (load in https://ui.perfetto.dev or chrome://tracing)"
    print(f"wrote {out}{hint}")
    return 0


def cmd_sweep(args) -> int:
    generator_grid = {}
    if args.sessions:
        generator_grid["num_sessions"] = _csv_ints(args.sessions)
    grid = SweepGrid(scenario=args.scenario, policies=_csv(args.policies),
                     seeds=_csv_ints(args.seeds) or [None],
                     generator_grid=generator_grid)
    specs = grid.expand()
    if not specs:
        raise ValueError("empty sweep: --policies expanded to no runs")
    print(f"sweep: {len(specs)} runs "
          f"({len(grid.policies)} policies x {len(grid.seeds)} seeds"
          + (f" x {generator_grid}" if generator_grid else "")
          + f"), workers={args.workers}")
    store = _make_store(args)
    if args.resume and store is None:
        raise ValueError("--resume needs the result store "
                         "(drop --no-store)")
    outcomes = run_specs(specs, workers=args.workers, store=store,
                         progress=print, strict=False)
    print()
    _print_outcomes(outcomes)
    _report_store(store, len(specs))
    if args.resume:
        resumed = sum(1 for outcome in outcomes if outcome.cached)
        print(f"resume: {resumed} spec(s) served from the store, "
              f"{len(outcomes) - resumed} executed")
    failures = [outcome for outcome in outcomes if outcome.failed]
    if failures:
        _print_failures(failures)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run and sweep NotebookOS reproduction experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_store_args(p):
        p.add_argument("--store-dir", default=None,
                       help="result store directory (default .repro_results "
                            "or $REPRO_RESULTS_DIR)")

    p_list = sub.add_parser("list", help="list registered scenarios")
    add_store_args(p_list)
    p_list.set_defaults(func=cmd_list)

    p_run = sub.add_parser("run", help="run one scenario once")
    p_run.add_argument("scenario")
    p_run.add_argument("--policy", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--sessions", type=int, default=None,
                       help="override the scenario's session count")
    p_run.add_argument("--hours", type=float, default=None,
                       help="override the scenario's duration (hours)")
    p_run.add_argument("--no-store", action="store_true",
                       help="do not read or write the result store")
    p_run.add_argument("--qos", action="append", default=None,
                       metavar="TARGET",
                       help="enable the QoS control plane with this target "
                            "(shorthand 'metric:stat<op>threshold:action"
                            "[,key=value...]', e.g. "
                            "'interactivity:p99>60:autoscaler_override'; "
                            "repeatable)")
    p_run.add_argument("--qos-window", type=float, default=300.0,
                       help="QoS evaluation window in simulated seconds "
                            "(default 300)")
    p_run.add_argument("--shards", type=_shard_count, default=1,
                       help="run space-sharded over K processes "
                            "(see repro.shard; default 1 = serial)")
    add_store_args(p_run)
    p_run.set_defaults(func=cmd_run)

    p_profile = sub.add_parser(
        "profile",
        help="run one scenario with the profiler attached and print "
             "per-phase wall time + event-class counters")
    p_profile.add_argument("scenario")
    p_profile.add_argument("--policy", default=None)
    p_profile.add_argument("--seed", type=int, default=None)
    p_profile.add_argument("--sessions", type=int, default=None,
                           help="override the scenario's session count")
    p_profile.add_argument("--hours", type=float, default=None,
                           help="override the scenario's duration (hours)")
    p_profile.add_argument("--json", default=None,
                           help="also write the report as JSON to this path")
    p_profile.add_argument("--shards", type=_shard_count, default=1,
                           help="run space-sharded over K processes "
                                "(see repro.shard; default 1 = serial)")
    p_profile.set_defaults(func=cmd_profile)

    p_tele = sub.add_parser(
        "telemetry",
        help="run one scenario with streaming windowed metrics attached "
             "and print per-stream rates and percentile sketches")
    p_tele.add_argument("scenario")
    p_tele.add_argument("--policy", default=None)
    p_tele.add_argument("--seed", type=int, default=None)
    p_tele.add_argument("--sessions", type=int, default=None,
                        help="override the scenario's session count")
    p_tele.add_argument("--hours", type=float, default=None,
                        help="override the scenario's duration (hours)")
    p_tele.add_argument("--window", type=float, default=300.0,
                        help="tumbling window length in simulated seconds")
    p_tele.add_argument("--stream", default=None,
                        help="also print the per-window table of this stream "
                             "(e.g. interactivity)")
    p_tele.add_argument("--spans", action="store_true",
                        help="record lifecycle trace spans too")
    p_tele.add_argument("--sketch", action="store_true",
                        help="run the metrics collector in fixed-memory "
                             "sketch mode")
    p_tele.add_argument("--json", default=None,
                        help="also write the telemetry report as JSON")
    p_tele.add_argument("--store-artifact", action="store_true",
                        help="persist the report as a result-store artifact")
    p_tele.add_argument("--shards", type=_shard_count, default=1,
                        help="run space-sharded over K processes "
                             "(see repro.shard; default 1 = serial)")
    p_tele.add_argument("--qos", action="append", default=None,
                        metavar="TARGET",
                        help="enable the QoS control plane with this target "
                             "(shorthand form, repeatable; see 'run --qos')")
    p_tele.add_argument("--qos-window", type=float, default=300.0,
                        help="QoS evaluation window in simulated seconds "
                             "(default 300)")
    add_store_args(p_tele)
    p_tele.set_defaults(func=cmd_telemetry)

    p_trace = sub.add_parser(
        "trace",
        help="run one scenario recording lifecycle spans and write a "
             "Chrome trace_event file (Perfetto-loadable)")
    p_trace.add_argument("scenario")
    p_trace.add_argument("--policy", default=None)
    p_trace.add_argument("--seed", type=int, default=None)
    p_trace.add_argument("--sessions", type=int, default=None,
                         help="override the scenario's session count")
    p_trace.add_argument("--hours", type=float, default=None,
                         help="override the scenario's duration (hours)")
    p_trace.add_argument("--window", type=float, default=300.0,
                         help="tumbling window length in simulated seconds")
    p_trace.add_argument("--out", default=None,
                         help="output path (default <scenario>.trace.json)")
    p_trace.add_argument("--timeline", action="store_true",
                         help="write the plain JSON span timeline instead "
                              "of Chrome trace_event format")
    p_trace.set_defaults(func=cmd_trace)

    p_sweep = sub.add_parser("sweep", help="run a policies x seeds grid")
    p_sweep.add_argument("--scenario", default="excerpt")
    p_sweep.add_argument("--policies", default="reservation,batch,notebookos,lcp")
    p_sweep.add_argument("--seeds", default="7")
    p_sweep.add_argument("--sessions", default=None,
                         help="comma-separated session counts (extra grid axis)")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--no-store", action="store_true",
                         help="do not read or write the result store")
    p_sweep.add_argument("--resume", action="store_true",
                         help="explicitly resume a partial sweep: serve "
                              "everything already in the store and report "
                              "how much was skipped (store hits always "
                              "short-circuit; this makes the count visible)")
    add_store_args(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (KeyError, ValueError) as error:
        # Unknown scenario/policy/preset or a malformed --seeds/--sessions
        # list: the message already names the valid choices.
        message = error.args[0] if error.args else str(error)
        print(f"error: {message}", file=sys.stderr)
        return 2
    except ShardExecutionError as error:
        # A failed shard worker: its message's first line names the shard
        # and the cause; the rest is the worker's traceback.
        print(f"error: {str(error).splitlines()[0]}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
