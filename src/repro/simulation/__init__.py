"""Discrete-event simulation substrate.

This package provides the simulation kernel on which every other part of the
NotebookOS reproduction runs: a generator-based discrete-event engine
(:mod:`repro.simulation.engine`), waitable events
(:mod:`repro.simulation.events`), and seeded random distributions
(:mod:`repro.simulation.distributions`).

Simulation *processes* are Python generators that ``yield`` a delay in
seconds, an event, or another process.  All NotebookOS components —
schedulers, kernel replicas, sessions — are such processes, which lets
multi-day workloads execute in seconds of wall-clock time while exercising
the same control-plane logic a real deployment would.  Control-plane hops
(Jupyter Server, Global/Local Scheduler, Raft commits) are modelled as
latencies, not as messages.

The engine keeps one ``(time, serial, item)`` heap for future entries and a
FIFO lane for entries at the current time, and dispatches them in
``(time, serial)`` order, one fused batch per timestamp (see
:mod:`repro.simulation.engine`).
"""

from repro.simulation.engine import Environment, Process, SimulationError
from repro.simulation.events import AllOf, Event, Timeout
from repro.simulation.distributions import PiecewiseCDFSampler, SeededRandom

__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "PiecewiseCDFSampler",
    "Process",
    "SeededRandom",
    "SimulationError",
    "Timeout",
]
