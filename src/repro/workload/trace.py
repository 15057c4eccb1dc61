"""Trace records: sessions and the cell tasks they submit.

A :class:`Trace` is the unit handed to the workload driver and the benchmark
harnesses: a set of user sessions, each with its arrival time, lifetime,
resource request, assigned model/dataset, and an ordered list of cell task
submissions (:class:`TaskRecord`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from repro.workload.models import WorkloadAssignment


@dataclass(slots=True)
class TaskRecord:
    """One user-submitted cell task in the trace.

    Slotted (no ``__dict__``): a trace holds one per cell, and shard
    workers receive traces by pickle, which slotted dataclasses support.
    """

    session_id: str
    submit_time: float
    duration: float
    gpus: int
    is_gpu_task: bool = True
    gpu_utilization: float = 0.75
    code: Optional[str] = None
    task_index: int = 0

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"task duration must be non-negative: {self.duration}")
        if self.submit_time < 0:
            raise ValueError(f"submit time must be non-negative: {self.submit_time}")

    @property
    def end_time(self) -> float:
        """Submission time plus execution duration (ignores queueing)."""
        return self.submit_time + self.duration

    @property
    def gpu_seconds(self) -> float:
        return self.duration * self.gpus if self.is_gpu_task else 0.0


@dataclass
class SessionTrace:
    """One user session: arrival, lifetime, and its sequence of tasks."""

    session_id: str
    user_id: str
    start_time: float
    end_time: float
    gpus_requested: int
    assignment: Optional[WorkloadAssignment] = None
    tasks: List[TaskRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.end_time < self.start_time:
            raise ValueError(
                f"session {self.session_id} ends before it starts "
                f"({self.end_time} < {self.start_time})")

    @property
    def lifetime(self) -> float:
        return self.end_time - self.start_time

    @property
    def gpu_task_count(self) -> int:
        return sum(1 for task in self.tasks if task.is_gpu_task)

    def inter_arrival_times(self) -> List[float]:
        """Per-session task IATs, as the paper measures them (§2.3.2)."""
        submit_times = sorted(task.submit_time for task in self.tasks)
        return [b - a for a, b in zip(submit_times, submit_times[1:])]

    def gpu_busy_seconds(self) -> float:
        return sum(task.duration for task in self.tasks if task.is_gpu_task)

    def gpu_duty_cycle(self) -> float:
        """Fraction of the session lifetime spent running GPU tasks."""
        if self.lifetime <= 0:
            return 0.0
        return min(1.0, self.gpu_busy_seconds() / self.lifetime)


@dataclass
class Trace:
    """A full workload trace: many sessions over a time horizon."""

    name: str
    sessions: List[SessionTrace] = field(default_factory=list)
    sample_interval: float = 15.0   # AdobeTrace granularity (§2.3)

    def __len__(self) -> int:
        return len(self.sessions)

    def __iter__(self) -> Iterator[SessionTrace]:
        return iter(self.sessions)

    @property
    def duration(self) -> float:
        """The time horizon spanned by the trace."""
        if not self.sessions:
            return 0.0
        return max(s.end_time for s in self.sessions)

    @property
    def all_tasks(self) -> List[TaskRecord]:
        tasks: List[TaskRecord] = []
        for session in self.sessions:
            tasks.extend(session.tasks)
        return sorted(tasks, key=lambda t: t.submit_time)

    @property
    def total_task_count(self) -> int:
        return sum(len(s.tasks) for s in self.sessions)

    def active_sessions_at(self, time: float) -> int:
        return sum(1 for s in self.sessions if s.start_time <= time < s.end_time)

    def active_trainings_at(self, time: float) -> int:
        return sum(1 for task in self.all_tasks
                   if task.is_gpu_task and task.submit_time <= time < task.end_time)

    def required_gpus_at(self, time: float) -> int:
        """The oracle GPU demand: GPUs needed by tasks running at ``time``."""
        return sum(task.gpus for task in self.all_tasks
                   if task.is_gpu_task and task.submit_time <= time < task.end_time)

    def truncated(self, horizon: float, name: Optional[str] = None) -> "Trace":
        """A copy limited to sessions starting before ``horizon``.

        Sessions are clipped to the horizon and tasks beyond it are dropped —
        used to carve the 17.5-hour excerpt out of a longer trace.
        """
        clipped: List[SessionTrace] = []
        for session in self.sessions:
            if session.start_time >= horizon:
                continue
            tasks = [t for t in session.tasks if t.submit_time < horizon]
            clipped.append(SessionTrace(
                session_id=session.session_id, user_id=session.user_id,
                start_time=session.start_time,
                end_time=min(session.end_time, horizon),
                gpus_requested=session.gpus_requested,
                assignment=session.assignment, tasks=tasks))
        return Trace(name=name or f"{self.name}-truncated",
                     sessions=clipped, sample_interval=self.sample_interval)
