"""QoS control-plane benchmark: zero cost disabled, bounded cost enabled.

PR 9 added :mod:`repro.qos` — a closed-loop controller that evaluates
declarative targets at telemetry window closes and fires mitigations
through the platform's existing seams.  This benchmark pins the two
promises that make it safe to ship enabled-by-flag:

* **disabled = free** — a ``cluster_scale`` run with telemetry attached
  and *no* ``qos`` block produces a collector digest byte-identical to the
  committed pre-QoS baseline (``BASELINE_DIGEST``).  Any drift means the
  control plane leaked into the disabled path.
* **enabled = cheap** — the same run with a QoS target that never
  breaches (threshold effectively infinite, so the controller's window
  evaluation runs every close but schedules nothing) may make at most 5 %
  more calls into ``repro`` functions than the telemetry-only run.  The
  calls are cProfile primitive calls of functions under ``src/repro``,
  comprehension frames excluded, over ``sim.run()``, each side in its own
  spawned interpreter so both start with a cold AST cache.  The count
  repeats exactly from run to run, so the ratio needs no noise band.
* **the loop closes** — the ``failure_storm`` scenario under a
  p99-interactivity target must record at least one breach, fired action,
  and recovery (the control loop demonstrably controls).

Results land in ``BENCH_qos.json`` next to this file (override with
``--output``).  CI runs ``--smoke --check``.

Usage::

    PYTHONPATH=src:. python benchmarks/bench_qos.py            # measure + write
    PYTHONPATH=src:. python benchmarks/bench_qos.py --smoke
    PYTHONPATH=src:. python benchmarks/bench_qos.py --smoke --check
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import multiprocessing
import os
import pstats
import sys
import time
from pathlib import Path

DEFAULT_OUTPUT = Path(__file__).with_name("BENCH_qos.json")

#: Collector digest of ``cluster_scale`` (300 sessions, telemetry attached,
#: 300 s windows) from the commit *before* the QoS subsystem landed.  The
#: qos-disabled path must keep reproducing it byte for byte.
BASELINE_DIGEST = \
    "86d9117009c1b7f638e0175ef2bfaf187094f67a93ed3550435841aa413757bf"

SMOKE_SESSIONS = 300
#: Allowed ratio of calls into ``repro`` with the idle target attached over
#: calls without it.
CALL_RATIO_CEILING = 1.05
#: Frames cProfile reports for comprehensions, which the call count skips.
COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}

#: A target that can never breach: the controller evaluates every window
#: close (the full hot path) but never schedules a mitigation, so the
#: extra calls are pure control-plane overhead.
IDLE_TARGET = "interactivity:p99>1000000"
#: The closed-loop demonstration target for the failure storm.
STORM_TARGET = ("interactivity:p99>60:"
                "autoscaler_override,extra_hosts=2,hold_s=900")
WINDOW_S = 300.0


def _cluster_scale_worker(connection, sessions: int, qos: bool) -> None:
    """One telemetry-attached cluster_scale run in a clean interpreter,
    counting its calls into ``repro`` functions."""
    import repro
    from repro.api import Simulation

    sim = (Simulation.from_scenario("cluster_scale", num_sessions=sessions)
           .with_telemetry(window_s=WINDOW_S))
    if qos:
        sim.with_qos(IDLE_TARGET, window_s=WINDOW_S)
    profile = cProfile.Profile()
    profile.enable()
    result = sim.run()
    profile.disable()
    package = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
    calls = sum(primitive for (path, _, func), (primitive, *_)
                in pstats.Stats(profile).stats.items()
                if path.startswith(package) and func not in COMPREHENSIONS)
    canonical = json.dumps(result.collector.to_dict(), sort_keys=True,
                           separators=(",", ":"))
    connection.send({
        "calls": calls,
        "digest": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "tasks_completed": result.summary()["tasks_completed"],
    })
    connection.close()


def _storm_worker(connection) -> None:
    """failure_storm under the demonstration target; ships loop counters."""
    from repro.api import RUN_END, Simulation

    qos_stats: dict = {}
    sim = (Simulation.from_scenario("failure_storm")
           .with_qos(STORM_TARGET, window_s=WINDOW_S)
           .on(RUN_END,
               lambda p, r, stats: qos_stats.update(stats.get("qos", {}))))
    started = time.perf_counter()
    result = sim.run()
    elapsed = time.perf_counter() - started
    entry = next(iter(qos_stats["targets"].values()))
    connection.send({
        "wall_s": round(elapsed, 3),
        "tasks_completed": result.summary()["tasks_completed"],
        "breaches": entry["breaches"],
        "actions_fired": entry["actions_fired"],
        "recoveries": entry["recoveries"],
        "timeline_events": len(qos_stats["timeline"]),
    })
    connection.close()


def _measure(target, *args) -> dict:
    """Run one worker in a fresh *spawned* interpreter (clean process
    image and cold caches; measured inside the child, so startup is
    excluded)."""
    context = multiprocessing.get_context("spawn")
    parent_end, child_end = context.Pipe()
    process = context.Process(target=target, args=(child_end, *args))
    process.start()
    child_end.close()
    try:
        record = parent_end.recv()
    except EOFError:
        process.join()
        raise RuntimeError(
            f"measurement subprocess died (exit code {process.exitcode})"
        ) from None
    process.join()
    return record


def run_smoke(sessions: int = SMOKE_SESSIONS) -> dict:
    """Digest pin, call ratio, and loop closure at CI sizes."""
    plain = _measure(_cluster_scale_worker, sessions, False)
    enabled = _measure(_cluster_scale_worker, sessions, True)
    storm = _measure(_storm_worker)
    return {
        "sessions": sessions,
        "digest": plain["digest"],
        "telemetry_calls": plain["calls"],
        "qos_calls": enabled["calls"],
        "call_ratio": round(enabled["calls"] / plain["calls"], 4),
        "tasks_completed": plain["tasks_completed"],
        "qos_tasks_completed": enabled["tasks_completed"],
        "storm": storm,
    }


def check_regression(smoke: dict) -> int:
    """Non-zero on digest drift, a call-ratio breach, or an open loop."""
    failures = 0

    stable = smoke["digest"] == BASELINE_DIGEST
    print(f"check: qos-disabled cluster_scale digest "
          f"{'matches pre-QoS baseline' if stable else 'DRIFTED'} "
          f"({smoke['digest'] if not stable else smoke['digest'][:16]}...)")
    failures += 0 if stable else 1

    ratio = smoke["call_ratio"]
    within = ratio <= CALL_RATIO_CEILING
    print(f"check: qos-enabled calls {smoke['qos_calls']:,} / telemetry-only "
          f"{smoke['telemetry_calls']:,} = {ratio:.4f} "
          f"(ceiling {CALL_RATIO_CEILING:.2f}): "
          f"{'ok' if within else 'TOO MUCH WORK'}")
    failures += 0 if within else 1

    storm = smoke["storm"]
    closed = (storm["breaches"] >= 1 and storm["actions_fired"] >= 1
              and storm["recoveries"] >= 1)
    print(f"check: failure_storm loop breaches={storm['breaches']} "
          f"actions={storm['actions_fired']} "
          f"recoveries={storm['recoveries']}: "
          f"{'closed' if closed else 'OPEN LOOP'}")
    failures += 0 if closed else 1
    return 1 if failures else 0


def _print_smoke(smoke: dict) -> None:
    print(f"[qos smoke] cluster_scale sessions={smoke['sessions']}")
    print(f"  telemetry-only : {smoke['telemetry_calls']:,} calls  "
          f"tasks {smoke['tasks_completed']}")
    print(f"  qos idle target: {smoke['qos_calls']:,} calls  "
          f"ratio {smoke['call_ratio']:.4f}")
    storm = smoke["storm"]
    print(f"  failure_storm  : {storm['wall_s']:.3f}s  "
          f"tasks {storm['tasks_completed']}  "
          f"breach/action/recover = {storm['breaches']}/"
          f"{storm['actions_fired']}/{storm['recoveries']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI sizes only (currently the only sizes)")
    parser.add_argument("--check", action="store_true",
                        help="verify the digest pin, the <=1.05 call-ratio "
                             "ceiling, and loop closure; exit non-zero on "
                             "any breach (does not overwrite the baseline)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="where to write the results JSON")
    args = parser.parse_args(argv)

    smoke = run_smoke()
    _print_smoke(smoke)

    if args.check:
        return check_regression(smoke)

    args.output.write_text(
        json.dumps({"smoke": smoke}, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
