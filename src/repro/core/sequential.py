"""Baseline: run the algorithms one after another.

Length is the sum of solo running times, ``Σ_i dilation_i`` — up to
``k · dilation``. Trivially correct, never congested; the yardstick every
concurrent scheduler must beat on workloads with many algorithms.
"""

from __future__ import annotations

from itertools import accumulate

from ..congest.simulator import Simulator
from ..metrics.schedule import ScheduleReport
from .base import ScheduleResult, Scheduler
from .workload import Workload

__all__ = ["SequentialScheduler"]


class SequentialScheduler(Scheduler):
    """Execute each algorithm alone, back to back."""

    name = "sequential"

    def run(self, workload: Workload, seed: int = 0) -> ScheduleResult:
        if self.injector.enabled or self.round_budget is not None:
            # The cached solo runs are the pristine reference and must
            # not see faults: re-execute each algorithm through an
            # injected simulator (same tapes via the same (seed, aid)).
            sim = Simulator(
                workload.network,
                message_bits=workload.message_bits,
                recorder=self.recorder,
                injector=self.injector,
                transport=self.transport,
            )
            runs = [
                sim.run(
                    algorithm,
                    seed=workload.master_seed,
                    algorithm_id=workload.tape_id(aid),
                    max_rounds=self.round_budget,
                    on_limit="truncate" if self.round_budget is not None else "raise",
                )
                for aid, algorithm in enumerate(workload.algorithms)
            ]
        else:
            runs = workload.solo_runs()
        outputs = {}
        for aid, run in enumerate(runs):
            for node, value in run.outputs.items():
                outputs[(aid, node)] = value
        length = sum(run.rounds for run in runs)
        report = ScheduleReport(
            scheduler=self.name,
            params=workload.params(),
            length_rounds=length,
            messages_sent=sum(run.trace.num_messages for run in runs),
            completion_rounds=list(accumulate(run.rounds for run in runs)),
            notes={"per_algorithm_rounds": [run.rounds for run in runs]},
        )
        if any(run.truncated for run in runs):
            report.notes["truncated"] = True
        return self._finish(workload, outputs, report)
