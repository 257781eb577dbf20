"""Removing the known-congestion assumption by doubling (paper Section 2).

The paper assumes nodes know constant-factor approximations of congestion
and dilation and notes "both of these assumptions can be removed using
standard doubling techniques" (deferred to the full version). This module
supplies that step for the delay-based schedulers: guess
``congestion = 2^0, 2^1, 2^2, …``, run the schedule sized for the guess,
and *validate* — if some (edge, phase) load exceeded the phase capacity
the schedule would have corrupted executions, so it is abandoned, its
planned rounds are charged, and the guess doubles. Because planned
lengths grow geometrically, the failed attempts cost at most a constant
factor of the final successful schedule.
"""

from __future__ import annotations

import math
import random


from .._util import derive_seed
from ..metrics.schedule import (
    ScheduleReport,
    phase_completion_rounds,
    phase_schedule_length,
)
from .base import ScheduleResult, Scheduler
from .delays import phase_size_log
from .phase_engine import run_delayed_phases
from .workload import Workload

__all__ = ["DoublingScheduler"]


class DoublingScheduler(Scheduler):
    """Random-delay scheduling with geometric congestion guessing.

    ``capacity_slack`` sets the validation rule: an attempt succeeds when
    the max per-(edge, phase) load is at most
    ``capacity_slack × phase_size`` (the rounds a phase can actually
    carry, with slack for the Chernoff constant).
    """

    name = "random-delay+doubling"

    def __init__(
        self,
        phase_constant: float = 1.0,
        capacity_slack: float = 2.0,
        max_attempts: int = 40,
    ):
        if capacity_slack < 1.0:
            raise ValueError("capacity_slack must be at least 1")
        self.phase_constant = phase_constant
        self.capacity_slack = capacity_slack
        self.max_attempts = max_attempts

    def run(self, workload: Workload, seed: int = 0) -> ScheduleResult:
        n = workload.network.num_nodes
        phase_size = phase_size_log(n, self.phase_constant)
        capacity = math.floor(self.capacity_slack * phase_size)
        rng = random.Random(derive_seed(seed, "doubling"))

        wasted_rounds = 0
        attempts = 0
        guess = 1
        while True:
            attempts += 1
            if attempts > self.max_attempts:
                raise RuntimeError("doubling failed to converge")
            delay_range = max(1, math.ceil(guess / phase_size))
            delays = [rng.randrange(delay_range) for _ in workload.aids]
            execution = run_delayed_phases(
                workload,
                delays,
                max_phases=self.round_budget,
                recorder=self.recorder,
                injector=self.injector,
                on_limit="truncate" if self.round_budget is not None else "raise",
            )
            planned = execution.num_phases * phase_size
            if execution.max_phase_load <= capacity:
                break
            # Validation failed: the schedule would have overflowed.
            wasted_rounds += planned
            guess *= 2

        params = workload.params()
        report = ScheduleReport(
            scheduler=self.name,
            params=params,
            length_rounds=phase_schedule_length(
                execution.num_phases, phase_size, execution.max_phase_load
            )
            + wasted_rounds,
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
                offset=wasted_rounds,
            ),
            notes={
                "delays": delays,
                "final_guess": guess,
                "attempts": attempts,
                "wasted_rounds": wasted_rounds,
                "true_congestion": params.congestion,
            },
        )
        if execution.truncated:
            report.notes["truncated"] = True
        return self._finish(workload, execution.outputs, report)
