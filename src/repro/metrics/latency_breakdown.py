"""Per-step latency breakdown of execute requests (Figures 15–19).

The paper decomposes the critical path of a cell execution request into the
steps of Figure 15.  Each policy implementation records the per-step
latencies it actually incurs; steps a policy does not have (e.g. the executor
election under Reservation) are simply absent / zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.cdf import CDF

# Step identifiers following Figure 15.  The abbreviations in parentheses
# match the x-axis labels of Figures 16-19.
REQUEST_STEPS: List[str] = [
    "gs_process_request",     # (1)  Global Scheduler pre-processing / queueing
    "gs_to_ls_hop",           # (2)  network hop Global -> Local Scheduler
    "ls_process_request",     # (3)  Local Scheduler processing
    "ls_to_kernel_hop",       # (4)  network hop Local Scheduler -> replica
    "kernel_preprocess",      # (5)  replica pre-processing (metadata extraction)
    "primary_replica_protocol",  # (6) executor election (NotebookOS only)
    "intermediary_interval",  # (7)  selection -> start of execution (GPU bind)
    "execute_code",           # (8)  user code execution
    "kernel_postprocess",     # (9)  post-processing (sync is async in NotebookOS)
    "kernel_to_ls_hop",       # (10) reply hop kernel -> Local Scheduler
]
_STEP_NAMES = frozenset(REQUEST_STEPS)


@dataclass
class StepLatencies:
    """The per-step latencies of one execute request."""

    steps: Dict[str, float] = field(default_factory=dict)

    def record(self, step: str, latency: float) -> None:
        if step not in _STEP_NAMES:
            raise KeyError(f"unknown request step {step!r}")
        if latency < 0:
            raise ValueError(f"negative latency for step {step!r}: {latency}")
        self.steps[step] = self.steps.get(step, 0.0) + latency

    def get(self, step: str) -> float:
        return self.steps.get(step, 0.0)

    @property
    def end_to_end(self) -> float:
        return sum(self.steps.values())

    def to_dict(self) -> Dict[str, float]:
        return dict(self.steps)

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "StepLatencies":
        return cls(steps={str(step): float(latency)
                          for step, latency in data.items()})


@dataclass
class LatencyBreakdown:
    """Aggregated per-step latency distributions for one policy."""

    policy: str
    samples: List[StepLatencies] = field(default_factory=list)

    def add(self, sample: StepLatencies) -> None:
        self.samples.append(sample)

    def __len__(self) -> int:
        return len(self.samples)

    def cdf_for(self, step: str) -> CDF:
        """CDF of a step's latency across the requests that include that step."""
        return CDF.from_values(s.steps[step] for s in self.samples if step in s.steps)

    def end_to_end_cdf(self) -> CDF:
        return CDF.from_values(s.end_to_end for s in self.samples)

    def table(self) -> Dict[str, Dict[str, float]]:
        """Per-step percentile summary (the data behind Figs. 16-19)."""
        rows: Dict[str, Dict[str, float]] = {
            "end_to_end": self.end_to_end_cdf().summary()}
        for step in REQUEST_STEPS:
            cdf = self.cdf_for(step)
            rows[step] = cdf.summary() if not cdf.is_empty else {"count": 0}
        return rows

    def to_dict(self) -> dict:
        return {"policy": self.policy,
                "samples": [sample.to_dict() for sample in self.samples]}

    @classmethod
    def from_dict(cls, data: dict) -> "LatencyBreakdown":
        return cls(policy=data["policy"],
                   samples=[StepLatencies.from_dict(sample)
                            for sample in data["samples"]])
