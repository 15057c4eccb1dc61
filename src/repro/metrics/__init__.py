"""Metrics: everything the paper's evaluation section measures.

* :mod:`repro.metrics.collector` — per-task records (interactivity delay,
  task completion time, per-step latency breakdown), cluster timelines
  (provisioned / committed GPUs, subscription ratio, active sessions and
  trainings), and platform events (kernel creations, migrations, scale-outs);
* :mod:`repro.metrics.cost` — the billing model of §5.5.1 (provider cost,
  revenue, profit margin) and the GPU-hours-saved accounting of Figures 8
  and 13;
* :mod:`repro.metrics.latency_breakdown` — the per-step latency breakdown of
  Figures 15–19.

An exact-mode run keeps one :class:`TaskMetrics` and one
:class:`StepLatencies` per submitted cell until it ends, so these records
(and :class:`PlatformEvent`) are slotted: no instance ``__dict__``, and the
step latencies sit in one fixed-length list that shares constant hop values
between cells.
"""

from repro.metrics.collector import (
    EventKind,
    ExperimentResult,
    MetricsCollector,
    PlatformEvent,
    TaskMetrics,
)
from repro.metrics.cost import BillingModel, CostReport, GpuHoursSavedReport
from repro.metrics.latency_breakdown import (
    REQUEST_STEPS,
    LatencyBreakdown,
    StepLatencies,
)

__all__ = [
    "BillingModel",
    "CostReport",
    "EventKind",
    "ExperimentResult",
    "GpuHoursSavedReport",
    "LatencyBreakdown",
    "MetricsCollector",
    "PlatformEvent",
    "REQUEST_STEPS",
    "StepLatencies",
    "TaskMetrics",
]
