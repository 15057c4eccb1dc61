"""Sharded-runner benchmark: serial vs K space shards on the big scenarios.

:mod:`repro.shard` partitions one run over K processes, each replaying
its share of the sessions on its share of the fleet independently of the
others; the coordinator merges the K results.  This benchmark pins both
halves of that contract:

* **wall-clock** — ``mega_scale`` end to end as a plain serial run and at
  2/4/8 shards (one process per shard), recording events/sec and per-shard
  peak RSS (:func:`repro.profiling.memory.memory_stats` inside each
  worker).  ``giga_scale`` — 50k sessions on a
  ~10k-host fleet, an order of magnitude past what the serial collector
  can hold exactly — runs sharded in sketch mode with bounded per-shard
  memory.
* **bit-identity** — at a fixed shard count the in-process serial driver
  and the one-process-per-shard driver must produce byte-identical merged
  collector digests (asserted on every run, full and smoke).  Shard count
  itself is part of the experiment definition: K=1 is the frozen serial
  reference path, different K are different (each internally deterministic)
  experiments.

Results land in ``BENCH_giga.json`` next to this file (override with
``--output``).  CI runs ``--smoke --check``, which re-measures the 4-shard
speedup on a scaled-down ``mega_scale`` variant and fails on a >20 %
regression against the committed baseline, and additionally enforces the
per-shard peak-RSS ceiling on the ``giga_scale`` smoke variant.

Speedup numbers are machine-dependent in a way the other benchmark ratios
are not: a single-CPU container cannot run shard processes concurrently at
all, so the committed baseline encodes the CI machine's parallelism and
the regression check is relative to that, not to an absolute target.

Usage::

    PYTHONPATH=src:. python benchmarks/bench_giga.py            # full run
    PYTHONPATH=src:. python benchmarks/bench_giga.py --smoke    # CI sizes
    PYTHONPATH=src:. python benchmarks/bench_giga.py --smoke --check
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import sys
import time
from pathlib import Path

from repro.api import RunSpec
from repro.shard import run_sharded

DEFAULT_OUTPUT = Path(__file__).with_name("BENCH_giga.json")

# Allowed regression before --check fails (on the 4-shard mega speedup).
REGRESSION_TOLERANCE = 0.20
# Acceptance floor used when no baseline has been committed yet: sharding
# must at minimum not *halve* throughput on the smoke variant.
ACCEPTANCE_FLOOR = 0.5
# Per-shard peak-RSS ceiling for the giga smoke variant (sketch mode).
# Measured ~120 MB per shard; the ceiling leaves headroom for allocator
# and interpreter-version variance while still catching an unbounded
# collector sneaking back in (the serial exact run peaks at ~340 MB on
# mega_scale alone).
GIGA_SMOKE_RSS_CEILING_MB = 512

SHARD_COUNTS = (2, 4, 8)
SMOKE_MEGA_SESSIONS = 1500
SMOKE_GIGA_SESSIONS = 5000


def _collector_digest(result) -> str:
    canonical = json.dumps(result.collector.to_dict(), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _measure_worker(connection, scenario: str, sessions, num_shards: int,
                    parallel: bool, sketch: bool) -> None:
    """Run one configuration and ship a compact summary back."""
    spec = RunSpec.from_scenario(scenario, num_sessions=sessions)
    started = time.perf_counter()
    run = run_sharded(spec, num_shards, parallel=parallel, sketch=sketch)
    elapsed = time.perf_counter() - started
    events = sum(p.get("events_dispatched", 0) for p in run.shard_payloads)
    connection.send({
        "wall_s": round(elapsed, 2),
        "events": events,
        "events_per_sec": round(events / elapsed, 1),
        "peak_rss_mb": round(run.peak_rss_bytes / 2**20, 1),
        "per_shard_rss_mb": [
            round(p["memory"]["peak_rss_bytes"] / 2**20, 1)
            for p in run.shard_payloads],
        "digest": _collector_digest(run.result),
        "tasks_completed": run.result.summary()["tasks_completed"],
    })
    connection.close()


def _measure(scenario: str, sessions, num_shards: int, parallel: bool = True,
             sketch: bool = False) -> dict:
    """One configuration in a fresh *spawned* interpreter.

    A shared parent would poison every later number: forked shard workers
    inherit the parent's heap, so accumulated collectors from earlier
    configurations would count toward per-shard RSS (and page-duplication
    toward wall time).  Spawning starts each measurement from a clean
    process image; the wall clock is taken inside the child, so interpreter
    startup is excluded.
    """
    context = multiprocessing.get_context("spawn")
    parent_end, child_end = context.Pipe()
    process = context.Process(
        target=_measure_worker,
        args=(child_end, scenario, sessions, num_shards, parallel, sketch))
    process.start()
    child_end.close()
    try:
        record = parent_end.recv()
    except EOFError:
        process.join()
        raise RuntimeError(
            f"measurement subprocess died ({scenario}, {num_shards} shards, "
            f"exit code {process.exitcode})") from None
    process.join()
    return record


def bench_mega(sessions=None, shard_counts=SHARD_COUNTS) -> dict:
    """mega_scale serial vs sharded; digests pinned across driver modes."""
    record: dict = {"sessions": sessions or "default", "shards": {}}

    digests = {}
    for num_shards in shard_counts:
        config = _measure("mega_scale", sessions, num_shards)
        digests[num_shards] = config.pop("digest")
        del config["per_shard_rss_mb"], config["tasks_completed"]
        record["shards"][str(num_shards)] = config

    # Driver-mode bit-identity at 4 shards: the in-process serial driver
    # must reproduce the parallel driver's merged collector byte for byte.
    check_shards = 4 if 4 in digests else max(digests)
    serial_mode = _measure("mega_scale", sessions, check_shards,
                           parallel=False)
    if serial_mode["digest"] != digests[check_shards]:
        raise AssertionError(
            f"serial and parallel {check_shards}-shard mega_scale runs "
            f"produced different collector digests")
    record["driver_modes_bit_identical"] = True

    serial = _measure("mega_scale", sessions, 1)
    del serial["digest"], serial["per_shard_rss_mb"], serial["tasks_completed"]
    record["serial"] = serial
    for num_shards in shard_counts:
        record[f"speedup_{num_shards}"] = round(
            serial["wall_s"] / record["shards"][str(num_shards)]["wall_s"], 3)
    return record


def bench_giga(sessions=None, num_shards=8) -> dict:
    """giga_scale sharded in sketch mode: completes with bounded memory."""
    record = {"sessions": sessions or "default", "sketch": True,
              "num_shards": num_shards}
    parallel = _measure("giga_scale", sessions, num_shards, sketch=True)
    serial_mode = _measure("giga_scale", sessions, num_shards,
                           parallel=False, sketch=True)
    if serial_mode["digest"] != parallel["digest"]:
        raise AssertionError(
            "serial and parallel giga_scale sharded runs produced "
            "different collector digests")
    del parallel["digest"]
    record.update(parallel)
    record["driver_modes_bit_identical"] = True
    return record


def run_smoke() -> dict:
    mega = bench_mega(sessions=SMOKE_MEGA_SESSIONS, shard_counts=(4,))
    giga = bench_giga(sessions=SMOKE_GIGA_SESSIONS, num_shards=4)
    giga["rss_ceiling_mb"] = GIGA_SMOKE_RSS_CEILING_MB
    return {"mega": mega, "giga": giga}


def run_full() -> dict:
    return {"mega": bench_mega(), "giga": bench_giga()}


def check_regression(smoke: dict, baseline_path: Path) -> int:
    """Fail (non-zero) on a >20 % 4-shard-speedup regression or an RSS
    ceiling breach on the giga smoke variant."""
    measured = smoke["mega"]["speedup_4"]
    try:
        baseline = json.loads(baseline_path.read_text())
        baseline_speedup = baseline["smoke"]["mega"]["speedup_4"]
    except (OSError, ValueError, KeyError):
        print(f"check: no committed baseline at {baseline_path}; "
              f"requiring the {ACCEPTANCE_FLOOR}x acceptance floor instead")
        baseline_speedup = ACCEPTANCE_FLOOR / (1.0 - REGRESSION_TOLERANCE)
    floor = baseline_speedup * (1.0 - REGRESSION_TOLERANCE)
    verdict = "ok" if measured >= floor else "REGRESSION"
    print(f"check: 4-shard mega speedup {measured:.2f}x vs baseline "
          f"{baseline_speedup:.2f}x (floor {floor:.2f}x): {verdict}")

    rss = max(smoke["giga"]["per_shard_rss_mb"])
    rss_verdict = "ok" if rss <= GIGA_SMOKE_RSS_CEILING_MB else "CEILING BREACH"
    print(f"check: giga smoke per-shard peak RSS {rss:.0f} MB vs ceiling "
          f"{GIGA_SMOKE_RSS_CEILING_MB} MB: {rss_verdict}")
    return 0 if (measured >= floor
                 and rss <= GIGA_SMOKE_RSS_CEILING_MB) else 1


def _print_section(name: str, record: dict) -> None:
    print(f"[{name}]")
    serial = record.get("serial")
    if serial:
        print(f"  serial: {serial['wall_s']:>7.1f}s  "
              f"{serial['events_per_sec']:>9,.0f} ev/s  "
              f"rss {serial['peak_rss_mb']:.0f} MB")
    for num_shards, config in sorted(record.get("shards", {}).items(),
                                     key=lambda kv: int(kv[0])):
        speedup = record.get(f"speedup_{num_shards}")
        extra = f"  {speedup:.2f}x" if speedup is not None else ""
        print(f"  {num_shards:>2} shards: {config['wall_s']:>5.1f}s  "
              f"{config['events_per_sec']:>9,.0f} ev/s  "
              f"rss {config['peak_rss_mb']:.0f} MB{extra}")
    if "num_shards" in record:
        print(f"  {record['num_shards']} shards: {record['wall_s']:>5.1f}s  "
              f"{record['events_per_sec']:>9,.0f} ev/s  "
              f"per-shard rss {max(record['per_shard_rss_mb']):.0f} MB  "
              f"tasks {record['tasks_completed']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="scaled-down CI sizes only")
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed BENCH_giga.json "
                             "and exit non-zero on a >20%% regression or an "
                             "RSS ceiling breach (does not overwrite the "
                             "baseline)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="where to write the results JSON")
    args = parser.parse_args(argv)

    smoke = run_smoke()
    _print_section("mega smoke", smoke["mega"])
    _print_section("giga smoke", smoke["giga"])

    if args.check:
        return check_regression(smoke, args.output)

    results = {"smoke": smoke}
    if not args.smoke:
        results["full"] = run_full()
        _print_section("mega full", results["full"]["mega"])
        _print_section("giga full", results["full"]["giga"])

    args.output.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
