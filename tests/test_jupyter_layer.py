"""Unit tests for notebook sessions."""

import pytest

from repro.jupyter import (
    CellExecution,
    NotebookCell,
    NotebookSession,
    SessionState,
)


def make_session():
    return NotebookSession(session_id="s1", user_id="u1", kernel_id="k1",
                           gpus_required=2, created_at=0.0)


def test_session_lifecycle_states():
    session = make_session()
    assert session.state == SessionState.PENDING
    session.activate(10.0)
    assert session.is_active
    session.reclaim_idle(100.0)
    assert session.state == SessionState.IDLE_RECLAIMED
    assert session.idle_reclamations == 1
    session.resume(120.0)
    assert session.is_active
    session.terminate(200.0)
    assert session.state == SessionState.TERMINATED
    assert session.lifetime(500.0) == pytest.approx(190.0)


def test_cell_execution_interactivity_and_tct():
    cell = NotebookCell(code="train()", gpus_required=1, expected_duration=60.0)
    execution = CellExecution(cell=cell, submitted_at=100.0)
    execution.mark_started(103.5)
    execution.mark_completed(170.0, executor_replica="r1")
    assert execution.interactivity_delay == pytest.approx(3.5)
    assert execution.task_completion_time == pytest.approx(70.0)
    assert execution.executor_replica == "r1"


def test_session_gpu_duty_cycle():
    session = make_session()
    session.activate(0.0)
    busy_cell = NotebookCell(code="train()", gpus_required=1)
    execution = CellExecution(cell=busy_cell, submitted_at=10.0)
    execution.mark_started(10.0)
    execution.mark_completed(110.0)
    session.record_execution(execution)
    session.terminate(1000.0)
    assert session.gpu_active_time() == pytest.approx(100.0)
    assert session.gpu_duty_cycle(1000.0) == pytest.approx(0.1)


def test_session_last_activity_time():
    session = make_session()
    session.activate(0.0)
    execution = CellExecution(cell=NotebookCell(code="x=1"), submitted_at=50.0)
    execution.mark_started(51.0)
    execution.mark_completed(60.0)
    session.record_execution(execution)
    assert session.last_activity_time(now=500.0) == pytest.approx(60.0)
