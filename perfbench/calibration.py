"""Host-speed calibration: a fixed yardstick loop timed beside each slice.

On a small shared VM the CPU seconds a fixed piece of Python needs swing by
tens of percent within seconds, while process CPU time tracks wall time
closely: the host runs slower, it does not steal the time.  So instead of
running longer, the benchmark splits every timed section into CPU slices of
about ``slice_s`` and runs a fixed loop right beside each slice.  A slice's
CPU seconds are divided by the loop's CPU seconds measured around it and
multiplied by :data:`REFERENCE_S`, which gives *calibrated seconds*: the
seconds the slice would take on a host where the loop takes exactly
``REFERENCE_S``.

The loop imports nothing from the program under test, so no program change
can move the yardstick.  Its operation mix is the simulator's (generator
resumes, dict lookups, attribute loads and heap pushes), run over a
cache-resident table and over one (about 50 MB) far larger than the per-core
caches, so it slows down under the same mix of execution-unit and memory
contention the simulator does.  It allocates nothing while it runs, so it
never triggers a garbage collection that the program's objects would then
pay for.
"""

from __future__ import annotations

import gc
import heapq
import resource
import statistics
from time import process_time
from typing import Dict, List, Optional

#: Calibration reference: the yardstick's nominal CPU seconds.  A calibrated
#: second is a second on a host that runs the yardstick in exactly this long
#: (about a 2-vCPU Xeon VM's typical speed with Python 3.11).
REFERENCE_S = 0.025

#: (nodes, steps) of the yardstick's two loops: one over a cache-resident
#: table, one over a table far larger than the per-core caches.  On a
#: 2-vCPU Xeon VM (Python 3.11), either loop alone tracked the
#: host's slow/fast regimes to about +-5% (the cache-resident loop slowed
#: more than the simulator, the cache-exceeding one less); spending about
#: two thirds of the sample in the resident loop tracked them to +-2.5%.
_LOOPS = ((1 << 12, 70_000), (1 << 18, 8_000))
#: Size the yardstick's heap is kept at.
_HEAP = 512


class _Node:
    __slots__ = ("weight", "link")

    def __init__(self, weight: float, link: int) -> None:
        self.weight = weight
        self.link = link


def _walk(order: List[int]):
    while True:
        for key in order:
            yield key


def _table(nodes: int):
    """A dict of nodes keyed 0..nodes-1 and an endless walk over its keys.

    The walk follows a fixed multiplicative permutation, so consecutive
    lookups land far apart, like the simulator's pointer chasing.
    """
    stride = 0x9E3779B1 % nodes | 1
    order = [(i * stride) % nodes for i in range(nodes)]
    table = {key: _Node(float(key % 9973) / 9973.0, order[key])
             for key in range(nodes)}
    return table, _walk(order)


def _loop(table: Dict[int, _Node], keys, heap: List[float],
          steps: int) -> None:
    push = heapq.heappushpop
    for _ in range(steps):
        node = table[next(keys)]
        node = table[node.link]
        push(heap, node.weight)


class Yardstick:
    """The fixed calibration loop and its working set.

    Build it once per process, before anything is measured: construction
    allocates the working set, then moves it to the garbage collector's
    permanent generation so collections during the measured program never
    traverse it.  :attr:`footprint_mb` is the peak-RSS growth the working
    set caused, which the benchmark subtracts from the program's peak RSS.
    """

    def __init__(self) -> None:
        rss_before = _maxrss_mb()
        self._loops = [(*_table(nodes), steps) for nodes, steps in _LOOPS]
        self._heap: List[float] = [0.0] * _HEAP
        gc.collect()
        gc.freeze()
        self.footprint_mb = max(0.0, _maxrss_mb() - rss_before)
        self.samples: List[float] = []
        self.sample()  # warm the loop's code path

    def sample(self) -> float:
        """Run the yardstick once; returns and records its CPU seconds."""
        heap = self._heap
        started = process_time()
        for table, keys, steps in self._loops:
            _loop(table, keys, heap, steps)
        elapsed = process_time() - started
        self.samples.append(elapsed)
        return elapsed

    def quartiles(self) -> List[float]:
        """Q1, median and Q3 of every sample taken so far."""
        if len(self.samples) < 2:
            return [self.samples[0]] * 3 if self.samples else [0.0] * 3
        return statistics.quantiles(self.samples, n=4)


class SliceClock:
    """Calibrated CPU time of one timed section, measured slice by slice.

    Call :meth:`start`, then :meth:`tick` as often as convenient (every
    public call boundary, every completed task); a tick closes the current
    slice once it holds ``slice_s`` CPU seconds and runs the yardstick.
    :meth:`stop` closes the last slice.  Each slice is calibrated against
    the mean of the yardstick samples taken right before and right after
    it; yardstick time itself is never part of a slice.
    """

    def __init__(self, yardstick: Yardstick, slice_s: float = 0.3) -> None:
        self.yardstick = yardstick
        self.slice_s = slice_s
        self.raw_s = 0.0
        self.calibrated_s = 0.0
        self.slices = 0
        self._started: Optional[float] = None
        self._before = 0.0

    def start(self) -> None:
        self._before = self.yardstick.sample()
        self._started = process_time()

    def tick(self, *_args) -> None:
        if process_time() - self._started >= self.slice_s:
            self.cut()

    def cut(self) -> None:
        """Close the current slice now and open the next one."""
        raw = process_time() - self._started
        after = self.yardstick.sample()
        self.raw_s += raw
        self.calibrated_s += raw * REFERENCE_S / ((self._before + after) / 2)
        self.slices += 1
        self._before = after
        self._started = process_time()

    def stop(self) -> None:
        self.cut()
        self._started = None


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb(yardstick: Yardstick) -> float:
    """This process's peak RSS in MB, without the yardstick's working set."""
    return _maxrss_mb() - yardstick.footprint_mb


__all__ = ["REFERENCE_S", "SliceClock", "Yardstick", "peak_rss_mb"]
