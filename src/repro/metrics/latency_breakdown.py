"""Per-step latency breakdown of execute requests (Figures 15–19).

The paper decomposes the critical path of a cell execution request into the
steps of Figure 15.  Each policy implementation records the per-step
latencies it actually incurs; steps a policy does not have (e.g. the executor
election under Reservation) are simply absent / zero.

Every cell keeps one :class:`StepLatencies` for the whole run, so its layout
is what a long replay's memory is made of: one fixed-length list of
``len(REQUEST_STEPS)`` slots, ``None`` where a step was never recorded.  A
step's first record stores the latency object itself when it is a non-zero
float, so a constant hop (``network_hop_s``, ``ls_processing_s``,
``kernel_preprocess_s``) is one float shared by every cell of a run.

``end_to_end`` sums the recorded slots in ``REQUEST_STEPS`` order.  Every
policy records a request's steps for the first time in that order (a test
pins it), so the sum is the one a dict in recording order would give, bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

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
_STEP_INDEX: Dict[str, int] = {step: i for i, step in enumerate(REQUEST_STEPS)}
_STEP_COUNT = len(REQUEST_STEPS)


class StepLatencies:
    """The per-step latencies of one execute request.

    Slot ``i`` holds the latency of ``REQUEST_STEPS[i]``, or ``None`` if the
    request never recorded that step; repeated records of a step add up.
    """

    __slots__ = ("_values",)

    def __init__(self) -> None:
        self._values: List[Optional[float]] = [None] * _STEP_COUNT

    def record(self, step: str, latency: float) -> None:
        index = _STEP_INDEX.get(step)
        if index is None:
            raise KeyError(f"unknown request step {step!r}")
        if latency < 0:
            raise ValueError(f"negative latency for step {step!r}: {latency}")
        values = self._values
        previous = values[index]
        if previous is not None:
            values[index] = previous + latency
        elif latency and type(latency) is float:
            # ``0.0 + x`` is ``x`` bit for bit for a non-zero float, so the
            # object itself is kept: a constant hop is shared, not copied.
            values[index] = latency
        else:
            # Zeros and ints are normalised to a float, as ``0.0 + x`` does.
            values[index] = 0.0 + latency

    def get(self, step: str) -> float:
        index = _STEP_INDEX.get(step)
        value = None if index is None else self._values[index]
        return 0.0 if value is None else value

    @property
    def end_to_end(self) -> float:
        return sum([value for value in self._values if value is not None])

    def to_dict(self) -> Dict[str, float]:
        """The recorded steps, in ``REQUEST_STEPS`` order."""
        return {step: value for step, value in zip(REQUEST_STEPS, self._values)
                if value is not None}

    @classmethod
    def from_dict(cls, data: Mapping[str, float]) -> "StepLatencies":
        sample = cls()
        values = sample._values
        for step, latency in data.items():
            index = _STEP_INDEX.get(step)
            if index is None:
                raise KeyError(f"unknown request step {step!r}")
            values[index] = float(latency)
        return sample

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    __hash__ = None  # mutable, so unhashable

    def __repr__(self) -> str:
        return f"StepLatencies({self.to_dict()!r})"


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
        index = _STEP_INDEX.get(step)
        if index is None:
            return CDF.from_values(())
        values = [sample._values[index] for sample in self.samples]
        return CDF.from_values([value for value in values if value is not None])

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
