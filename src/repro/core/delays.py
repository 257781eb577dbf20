"""Shared machinery for delay-based schedulers.

Every scheduler in the random-delays family does the same three things:
sample per-algorithm phase delays, execute via the phase engine, and
account the result into a :class:`~repro.metrics.schedule.ScheduleReport`.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Sequence


from ..faults import NULL_INJECTOR, FaultInjector
from ..metrics.schedule import (
    ScheduleReport,
    phase_completion_rounds,
    phase_schedule_length,
)
from ..telemetry import NULL_RECORDER, Recorder
from .base import Scheduler
from .phase_engine import run_delayed_phases
from .workload import Workload

__all__ = ["phase_size_log", "phase_size_log_over_loglog", "execute_with_delays"]


def phase_size_log(num_nodes: int, constant: float = 1.0) -> int:
    """Phase size ``Θ(log n)`` rounds (Theorem 1.1)."""
    return max(1, math.ceil(constant * math.log2(max(num_nodes, 2))))


def phase_size_log_over_loglog(num_nodes: int, constant: float = 1.0) -> int:
    """Phase size ``Θ(log n / log log n)`` rounds (remark after Thm 3.1)."""
    log_n = math.log2(max(num_nodes, 4))
    return max(1, math.ceil(constant * log_n / math.log2(log_n)))


def execute_with_delays(
    scheduler_name: str,
    workload: Workload,
    delays: Sequence[int],
    phase_size: int,
    precomputation_rounds: int = 0,
    notes: Optional[Dict] = None,
    recorder: Recorder = NULL_RECORDER,
    injector: FaultInjector = NULL_INJECTOR,
    max_phases: Optional[int] = None,
    on_limit: str = "raise",
    transport: Any = None,
) -> tuple:
    """Run the phase engine and build the report (not yet verified).

    Returns ``(outputs, report)``; the caller passes them through
    :meth:`Scheduler._finish` for verification. ``max_phases`` lets a
    scheduler's round budget cap the execution; combined with
    ``on_limit="truncate"`` the cap yields a partial result (flagged in
    ``report.notes["truncated"]``) instead of an exception.
    """
    with recorder.span(
        "phase-execution", category="scheduler", scheduler=scheduler_name
    ):
        execution = run_delayed_phases(
            workload,
            delays,
            max_phases=max_phases,
            recorder=recorder,
            injector=injector,
            on_limit=on_limit,
            transport=transport,
        )
    params = workload.params()
    report = ScheduleReport(
        scheduler=scheduler_name,
        params=params,
        length_rounds=phase_schedule_length(
            execution.num_phases, phase_size, execution.max_phase_load
        ),
        precomputation_rounds=precomputation_rounds,
        num_phases=execution.num_phases,
        phase_size=phase_size,
        max_phase_load=execution.max_phase_load,
        messages_sent=execution.messages,
        load_histogram=execution.load_histogram,
        completion_rounds=phase_completion_rounds(
            delays,
            [run.rounds for run in workload.solo_runs()],
            phase_size,
            execution.max_phase_load,
        ),
        notes=dict(notes or {}),
    )
    report.notes.setdefault("delays", list(delays))
    if execution.truncated:
        report.notes["truncated"] = True
    return execution.outputs, report
