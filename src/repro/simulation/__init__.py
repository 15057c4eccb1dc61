"""Discrete-event simulation substrate.

This package provides the simulation kernel on which every other part of the
NotebookOS reproduction runs: a generator-based discrete-event engine
(:mod:`repro.simulation.engine`), waitable events and queues
(:mod:`repro.simulation.events`, :mod:`repro.simulation.queues`), a
latency-modelled message-passing network (:mod:`repro.simulation.network`),
and seeded random distributions (:mod:`repro.simulation.distributions`).

The engine is deliberately SimPy-like: simulation *processes* are Python
generators that ``yield`` waitable objects (timeouts, events, other
processes).  All NotebookOS components — schedulers, kernel replicas,
sessions — are implemented as such processes, which lets multi-day
workloads execute in seconds of wall-clock time while exercising the same
control-plane logic a real deployment would.  Control-plane hops (Jupyter
Server, Global/Local Scheduler, Raft commits) are modelled as latencies,
not as messages: no replay builds a :class:`Network`.
"""

from repro.simulation.engine import Environment, Process, SimulationError
from repro.simulation.events import AllOf, AnyOf, Event, Interrupt, Timeout
from repro.simulation.queues import PriorityStore, Resource, Store
from repro.simulation.network import Link, Message, Network, NetworkAddress
from repro.simulation.distributions import (
    BoundedParetoSampler,
    EmpiricalSampler,
    ExponentialSampler,
    LogNormalSampler,
    PiecewiseCDFSampler,
    SeededRandom,
    constant,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "BoundedParetoSampler",
    "EmpiricalSampler",
    "Environment",
    "Event",
    "ExponentialSampler",
    "Interrupt",
    "Link",
    "LogNormalSampler",
    "Message",
    "Network",
    "NetworkAddress",
    "PiecewiseCDFSampler",
    "PriorityStore",
    "Process",
    "Resource",
    "SeededRandom",
    "SimulationError",
    "Store",
    "Timeout",
    "constant",
]
