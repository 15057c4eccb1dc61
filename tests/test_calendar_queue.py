"""Dispatch-order tests: the engine vs a ten-line heap reference.

The engine's dispatch contract is "(time, serial) order — exactly what a
single global ``(time, serial, item)`` heap produces", with entries
scheduled at the current time taking the same-time FIFO lane behind every
heap entry at that time.  A hypothesis property drives random *defer trees*
(callbacks that schedule more callbacks, including zero and far-future
delays) through the real :class:`Environment` and through a heapq
reference, and requires identical firing order and timestamps.  Unit tests
pin the lane order and the dispatch-stat accounting.

The serial-vs-parallel sweep test at the bottom re-pins cross-process
determinism, with tuned ``policy_kwargs`` riding along (they must
round-trip through worker processes and the store key).
"""

import heapq
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import Environment

# Zero, sub-second, boundary-like and far-future delays.
DELAY_CHOICES = (0.0, 1e-4, 0.1, 0.125, 0.25, 0.26, 0.5, 0.75, 1.0, 2.0,
                 3.75, 4.0, 7.5, 100.0)


# ----------------------------------------------------------------------
# Defer trees vs the heap reference.
# ----------------------------------------------------------------------
def build_script(seed: int, nodes: int = 40):
    """A random defer tree: node -> (delay, children node ids)."""
    rng = random.Random(seed)
    script = {}
    for node in range(nodes):
        fanout = rng.choice((0, 0, 1, 1, 2, 3))
        children = [child for child in range(node + 1, nodes)
                    if rng.random() < 0.5][:fanout]
        script[node] = (rng.choice(DELAY_CHOICES), children)
    roots = [node for node in range(nodes)
             if not any(node in kids for _, kids in script.values())]
    return script, roots


def run_script_on_engine(script, roots) -> list:
    env = Environment()
    fired = []

    def make_callback(node):
        def fire(_stub):
            fired.append((node, env.now))
            for child in script[node][1]:
                env.defer(script[child][0], make_callback(child))
        return fire

    for root in roots:
        env.defer(script[root][0], make_callback(root))
    env.run()
    return fired


def run_script_on_heap_reference(script, roots) -> list:
    """The frozen reference: one global (time, serial, node) heap."""
    heap, serial, now, fired = [], 0, 0.0, []
    for root in roots:
        heapq.heappush(heap, (now + script[root][0], serial, root))
        serial += 1
    while heap:
        now, _, node = heapq.heappop(heap)
        fired.append((node, now))
        for child in script[node][1]:
            heapq.heappush(heap, (now + script[child][0], serial, child))
            serial += 1
    return fired


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_defer_trees_fire_in_heap_order(seed):
    script, roots = build_script(seed)
    assert run_script_on_engine(script, roots) == \
        run_script_on_heap_reference(script, roots)


# ----------------------------------------------------------------------
# Lanes and accounting.
# ----------------------------------------------------------------------
def test_heap_entries_run_before_same_time_fifo_entries():
    env = Environment()
    fired = []

    def first(_stub):
        fired.append("first-at-1")
        # Scheduled at the current time: the FIFO lane, behind the heap
        # entry already queued at t=1.0 with a smaller serial.
        env.defer(0.0, lambda _s: fired.append("fifo-at-1"))

    env.defer(1.0, first)
    env.defer(1.0, lambda _s: fired.append("second-at-1"))
    env.defer(2.0, lambda _s: fired.append("at-2"))
    env.run(until=1.0)
    assert env.now == 1.0
    assert fired == ["first-at-1", "second-at-1", "fifo-at-1"]
    env.run()
    assert fired[-1] == "at-2"


def test_dispatch_stats_account_for_lanes_and_batches():
    env = Environment()
    for _ in range(3):
        env.defer(0.0, lambda _s: None)      # same-time FIFO lane
    env.defer(1.0, lambda _s: None)          # heap entry
    env.defer(1.0, lambda _s: None)          # fused into the same batch
    env.defer(10_000.0, lambda _s: None)     # far future, its own batch
    env.run()
    # Batches: t=0 (three FIFO entries), t=1 (two fused), t=10000 (one).
    assert env.dispatch_stats() == {"dispatched": 6, "batches": 3,
                                    "serials": 3}  # only heap entries mint


def test_environment_rejects_past_schedules_and_negative_delays():
    env = Environment()
    env.defer(5.0, lambda _s: None)
    env.run()
    try:
        env.defer(-1.0, lambda _s: None)
    except Exception as error:
        assert "past" in str(error)
    else:  # pragma: no cover - the raise is the contract
        raise AssertionError("negative defer must be rejected")


# ----------------------------------------------------------------------
# Serial vs parallel sweeps (with tuned policy kwargs).
# ----------------------------------------------------------------------
def test_policy_kwargs_sweep_serial_vs_parallel_bit_identical(tmp_path):
    from repro.experiments import SweepGrid, run_specs
    from repro.experiments.store import ResultStore

    grid = SweepGrid(scenario="smoke", policies=("reservation",),
                     seeds=(7, 8), policy_kwargs={"state_persist_s": 0.45})
    specs = grid.expand()
    assert all(spec.policy_kwargs == {"state_persist_s": 0.45}
               for spec in specs)
    # Tuned variants must be tellable apart in human-readable output.
    assert specs[0].label == "smoke/reservation/seed7[state_persist_s=0.45]"

    def canonical(outcomes):
        rows = []
        for outcome in outcomes:
            cleaned = outcome.result.to_dict()
            cleaned.pop("wall_clock_runtime", None)
            rows.append(json.dumps(cleaned, sort_keys=True))
        return rows

    serial = run_specs(specs, workers=1, store=None)
    parallel = run_specs(specs, workers=2, store=None)
    assert canonical(serial) == canonical(parallel)

    # Tuned variants are storable under their own content hash: a rerun
    # through a store is a full cache hit, and differs from the untuned key.
    store = ResultStore(tmp_path)
    run_specs(specs, workers=1, store=store)
    rerun = run_specs(specs, workers=1, store=store)
    assert all(outcome.cached for outcome in rerun)
    untuned = SweepGrid(scenario="smoke", policies=("reservation",),
                        seeds=(7, 8)).expand()
    assert {spec.spec_hash() for spec in specs}.isdisjoint(
        {spec.spec_hash() for spec in untuned})
