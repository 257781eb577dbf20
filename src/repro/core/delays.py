"""Shared machinery for delay-based schedulers.

Every scheduler in the random-delays family does the same three things:
sample per-algorithm phase delays, execute via the phase engine
(:func:`execute_with_delays`), and account the result into a
:class:`~repro.metrics.schedule.ScheduleReport` (:func:`phase_report`,
which a replayed artifact shares).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence


from ..metrics.schedule import (
    ScheduleReport,
    phase_completion_rounds,
    phase_schedule_length,
)
from .base import Scheduler
from .phase_engine import PhaseExecution, run_delayed_phases
from .workload import Workload

__all__ = ["phase_size_log", "phase_size_log_over_loglog", "execute_with_delays",
           "phase_report"]


def phase_size_log(num_nodes: int, constant: float = 1.0) -> int:
    """Phase size ``Θ(log n)`` rounds (Theorem 1.1)."""
    return max(1, math.ceil(constant * math.log2(max(num_nodes, 2))))


def phase_size_log_over_loglog(num_nodes: int, constant: float = 1.0) -> int:
    """Phase size ``Θ(log n / log log n)`` rounds (remark after Thm 3.1)."""
    log_n = math.log2(max(num_nodes, 4))
    return max(1, math.ceil(constant * log_n / math.log2(log_n)))


def execute_with_delays(
    scheduler: Scheduler,
    workload: Workload,
    delays: Sequence[int],
    phase_size: int,
    notes: Optional[Dict] = None,
) -> tuple:
    """Run the phase engine under ``scheduler``'s ``name``, ``recorder``,
    ``injector`` and ``round_budget`` (a phase budget), and report.

    Returns ``(outputs, report)``, not yet verified; the caller passes
    them through :meth:`Scheduler._finish`.
    """
    with scheduler.recorder.span(
        "phase-execution", category="scheduler", scheduler=scheduler.name
    ):
        execution = run_delayed_phases(
            workload,
            delays,
            max_phases=scheduler.round_budget,
            recorder=scheduler.recorder,
            injector=scheduler.injector,
        )
    report = phase_report(
        scheduler.name, workload, execution, delays, phase_size, notes
    )
    return execution.outputs, report


def phase_report(
    name: str,
    workload: Workload,
    execution: PhaseExecution,
    delays: Sequence[int],
    phase_size: int,
    notes: Optional[Dict] = None,
) -> ScheduleReport:
    """The :class:`ScheduleReport` of a delayed-phases execution.

    The one place a ``PhaseExecution`` becomes a report: every delay
    schedule, doubling's accepted guess and a replayed artifact.
    """
    report = ScheduleReport(
        scheduler=name,
        params=workload.params(),
        length_rounds=phase_schedule_length(
            execution.num_phases, phase_size, execution.max_phase_load
        ),
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
        notes={**(notes or {}), "delays": list(delays)},
    )
    if execution.truncated:
        report.notes["truncated"] = True
    return report
