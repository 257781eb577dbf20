"""The sparse-phase scheduler (remark after Theorem 3.1).

    "To get this schedule, we use phases of Θ(log n / log log n) rounds
    and delay each algorithm by a random number of phases uniformly
    distributed in [Θ(congestion)]. Thus, the expected number of messages
    to be sent across an edge per phase is O(1) which means w.h.p., this
    number will not exceed O(log n / log log n)."

Compared to Theorem 1.1 this trades a *longer* phase span (Θ(congestion)
phases instead of Θ(congestion/log n)) for *thinner* phases; on instances
with ``congestion = Θ(dilation)`` — precisely the lower-bound regime — the
total length drops to ``O((congestion + dilation)·log n/log log n)``,
matching the paper's lower bound up to constants.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from .._util import derive_seed
from .base import ScheduleResult, Scheduler
from .delays import execute_with_delays, phase_size_log_over_loglog
from .workload import Workload

__all__ = ["SparsePhaseScheduler"]


class SparsePhaseScheduler(Scheduler):
    """Thin ``Θ(log n/log log n)``-round phases, delays over ``Θ(congestion)``."""

    name = "sparse-phase[R3.1]"

    def __init__(
        self,
        phase_constant: float = 1.0,
        delay_stretch: float = 1.0,
        phase_size: Optional[int] = None,
    ):
        if delay_stretch <= 0:
            raise ValueError("delay_stretch must be positive")
        self.phase_constant = phase_constant
        self.delay_stretch = delay_stretch
        self.phase_size_override = phase_size

    def run(self, workload: Workload, seed: int = 0) -> ScheduleResult:
        params = workload.params()
        n = workload.network.num_nodes
        phase_size = self.phase_size_override or phase_size_log_over_loglog(
            n, self.phase_constant
        )
        delay_range = max(1, math.ceil(self.delay_stretch * params.congestion))
        rng = random.Random(derive_seed(seed, "sparse-delays"))
        delays = [rng.randrange(delay_range) for _ in workload.aids]
        outputs, report = execute_with_delays(
            self, workload, delays, phase_size, notes={"delay_range": delay_range}
        )
        return self._finish(workload, outputs, report)
