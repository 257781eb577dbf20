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
from .base import ScheduleResult, Scheduler
from .delays import execute_with_delays, phase_size_log
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
            outputs, report = execute_with_delays(
                self, workload, delays, phase_size
            )
            if report.max_phase_load <= capacity:
                break
            # Validation failed: the schedule would have overflowed.
            wasted_rounds += report.num_phases * phase_size
            guess *= 2

        # The rejected guesses ran first: charge their planned rounds.
        report.length_rounds += wasted_rounds
        if report.completion_rounds is not None:
            report.completion_rounds = [
                wasted_rounds + rounds for rounds in report.completion_rounds
            ]
        report.notes.update(
            final_guess=guess,
            attempts=attempts,
            wasted_rounds=wasted_rounds,
            true_congestion=report.params.congestion,
        )
        return self._finish(workload, outputs, report)
