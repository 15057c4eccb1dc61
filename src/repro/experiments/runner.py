"""The sweep runner: store-backed, parallel, deterministic, fail-fast.

Each :class:`ScenarioSpec` is an independent, fully seeded unit of work — the
spec embeds the generator seed and the platform seed, and every random stream
inside the simulator derives from them — so running N specs across a
``ProcessPoolExecutor`` is embarrassingly parallel and *bit-identical* to
running them serially.  To make that guarantee hold end to end, both paths
materialize results through the same JSON round-trip
(``ExperimentResult.to_dict`` in the worker, ``from_dict`` in the parent),
which is also exactly what a store hit deserializes.

A spec that raises — or whose pool worker is killed, which breaks the pool
for every spec still pending — becomes a failed :class:`RunOutcome` with its
error and traceback; every spec that finished is already stored.  Nothing is
retried: replay is deterministic, so rerunning the same sweep executes only
what the store lacks.

Workers are handed plain spec dicts (cheap to pickle); traces are regenerated
inside the worker from the spec's seed rather than shipped across the
process boundary.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback as _traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments.scenarios import ScenarioSpec
from repro.experiments.store import ResultStore
from repro.metrics.collector import ExperimentResult

ProgressCallback = Callable[[str], None]


@dataclass
class RunOutcome:
    """One finished, cache-served, or failed experiment.

    A failed spec has ``result is None`` and carries the ``error`` repr and
    the captured ``traceback``.
    """

    spec: ScenarioSpec
    result: Optional[ExperimentResult]
    cached: bool
    runtime_s: float
    error: Optional[str] = None
    traceback: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.result is None


class SweepExecutionError(RuntimeError):
    """Raised (``strict=True``) after a sweep finishes with failed specs.
    Raised *at the end* — every healthy spec has already completed and been
    stored — with the failed outcomes attached."""

    def __init__(self, failures: Sequence[RunOutcome]) -> None:
        self.failures = list(failures)
        labels = ", ".join(outcome.spec.label for outcome in self.failures)
        super().__init__(f"{len(self.failures)} spec(s) failed: {labels}")


def _execute_spec(spec_dict: Dict[str, object]) -> Dict[str, object]:
    """Run one spec in-process and return the serialized result.

    Determinism needs no extra per-worker seeding: the spec carries the seed,
    and the simulator's randomness all flows from ``SeededRandom(seed)``.
    Execution goes through the :class:`repro.api.Simulation` façade — the
    one code path every entry point shares.
    """
    from repro.api.simulation import Simulation

    return Simulation.from_spec(spec_dict).run().to_dict()


def _execute_timed(spec_dict: Dict[str, object]):
    """Pool-worker entry point: the serialized result and the wall seconds
    it took, so a spec that queued behind others does not count the wait.
    Module-level so it pickles under every multiprocessing start method."""
    started = time.monotonic()
    return _execute_spec(spec_dict), time.monotonic() - started


def run_specs(specs: Sequence[ScenarioSpec], workers: int = 1,
              store: Optional[ResultStore] = None,
              progress: Optional[ProgressCallback] = None, *,
              strict: bool = True) -> List[RunOutcome]:
    """Run every spec, in order, returning one :class:`RunOutcome` each.

    ``workers <= 1`` is the serial fallback; it produces bit-identical
    metrics to any parallel run.  When ``store`` is given, specs already
    present are served from disk and fresh results are persisted as each
    spec completes — which is also what makes a re-run after a partial
    failure a *resume*: nothing already stored runs again.  Duplicate specs
    (same content hash) are executed once.

    A spec that fails keeps ``result=None`` plus its error and traceback,
    while every other spec still completes.  ``strict=True`` raises
    :class:`SweepExecutionError` at the very end if anything failed;
    ``strict=False`` leaves the failed outcomes in the returned list for the
    caller to report.
    """
    specs = list(specs)
    total = len(specs)
    outcomes: List[Optional[RunOutcome]] = [None] * total
    done = 0

    def report(index: int, outcome: RunOutcome) -> None:
        nonlocal done
        done += 1
        if progress is not None:
            if outcome.failed:
                source = f"FAILED: {outcome.error}"
            elif outcome.cached:
                source = "cache hit"
            else:
                source = f"ran in {outcome.runtime_s:.1f}s"
            progress(f"[{done}/{total}] {outcome.spec.label}: {source}")

    # Serve store hits first; collect the distinct specs that must run.
    to_run: Dict[str, List[int]] = {}
    for index, spec in enumerate(specs):
        cached = store.load(spec) if store is not None else None
        if cached is not None:
            outcomes[index] = RunOutcome(spec=spec, result=cached, cached=True,
                                         runtime_s=0.0)
            report(index, outcomes[index])
        else:
            to_run.setdefault(spec.spec_hash(), []).append(index)

    def finish(spec_hash: str, result_dict: Dict[str, object],
               runtime_s: float) -> None:
        indices = to_run[spec_hash]
        if store is not None:
            store.save(specs[indices[0]], result_dict)
        for index in indices:
            outcomes[index] = RunOutcome(
                spec=specs[index],
                result=ExperimentResult.from_dict(result_dict),
                cached=False, runtime_s=runtime_s)
            report(index, outcomes[index])

    def fail(spec_hash: str, runtime_s: float, error: BaseException) -> None:
        trace = "".join(_traceback.format_exception(
            type(error), error, error.__traceback__))
        for index in to_run[spec_hash]:
            outcomes[index] = RunOutcome(
                spec=specs[index], result=None, cached=False,
                runtime_s=runtime_s, error=repr(error), traceback=trace)
            report(index, outcomes[index])

    if workers > 1 and len(to_run) > 1:
        # Imported here: concurrent.futures brings logging and queue with
        # it, which serial runs (and every replay in the benchmark) skip.
        from concurrent.futures import ProcessPoolExecutor, as_completed

        # Fork, as the shard driver does: workers inherit the parent's
        # modules instead of re-importing them.
        with ProcessPoolExecutor(
                max_workers=min(workers, len(to_run)),
                mp_context=multiprocessing.get_context("fork")) as pool:
            started = time.monotonic()
            futures = {pool.submit(_execute_timed,
                                   specs[indices[0]].to_dict()): spec_hash
                       for spec_hash, indices in to_run.items()}
            try:
                for future in as_completed(futures):
                    try:
                        result_dict, runtime_s = future.result()
                    except Exception as error:
                        fail(futures[future], time.monotonic() - started,
                             error)
                    else:
                        finish(futures[future], result_dict, runtime_s)
            except BaseException:
                # Drop the specs not yet started, so leaving the pool waits
                # only for the running ones.
                pool.shutdown(cancel_futures=True)
                raise
    else:
        for spec_hash, indices in to_run.items():
            started = time.monotonic()
            try:
                result_dict = _execute_spec(specs[indices[0]].to_dict())
            except Exception as error:
                fail(spec_hash, time.monotonic() - started, error)
            else:
                finish(spec_hash, result_dict, time.monotonic() - started)

    results = [outcome for outcome in outcomes if outcome is not None]
    failures = [outcome for outcome in results if outcome.failed]
    if failures and strict:
        raise SweepExecutionError(failures)
    return results


def run_spec(spec: ScenarioSpec,
             store: Optional[ResultStore] = None) -> RunOutcome:
    """Run (or load) a single spec."""
    return run_specs([spec], workers=1, store=store)[0]
