"""Baseline: time-multiplex the algorithms round-robin.

Each algorithm gets every ``k``-th physical round, so all run concurrently
but the schedule takes exactly ``k · dilation`` rounds regardless of actual
congestion. Equivalent to the phase engine with all delays zero and phase
size ``k`` (each phase carries one round of every algorithm; per-direction
load is at most ``k`` because a single algorithm sends at most one message
per edge direction per round).

This is what "run them together naively but safely" costs — the schedulers
of Theorems 1.1/4.1 beat it exactly when ``congestion ≪ k · dilation``,
i.e. when the algorithms don't actually collide much.
"""

from __future__ import annotations

from .base import ScheduleResult, Scheduler
from .delays import execute_with_delays
from .workload import Workload

__all__ = ["RoundRobinScheduler"]


class RoundRobinScheduler(Scheduler):
    """One round per algorithm per ``k``-round slice."""

    name = "round-robin"

    def run(self, workload: Workload, seed: int = 0) -> ScheduleResult:
        k = workload.num_algorithms
        outputs, report = execute_with_delays(self, workload, [0] * k, k)
        return self._finish(workload, outputs, report)
