"""``ScheduleReport.completion_rounds``: when each algorithm finished.

A phase schedule runs algorithm ``i``'s round ``t`` in phase
``δ_i + t - 1``, so the algorithm is done after ``δ_i + D_i`` phases of
``max(phase_size, max_phase_load)`` rounds each. These tests recompute
that from the report's own ``notes["delays"]`` and the solo rounds and
demand the scheduler's number, for every phase-engine scheduler;
sequential finishes algorithm ``i`` after the first ``i + 1`` solo
runs; the rest, and a truncated phase run, leave it undefined.
"""

import copy
from itertools import accumulate

import pytest

from repro.algorithms import BFS, HopBroadcast
from repro.core import (
    DoublingScheduler,
    EagerScheduler,
    GreedyPatternScheduler,
    PrivateScheduler,
    RandomDelayScheduler,
    RoundRobinScheduler,
    SequentialScheduler,
    SparsePhaseScheduler,
    Workload,
)


@pytest.fixture(scope="module")
def workload(grid6):
    # Dilations 1..8, so completion rounds differ across algorithms.
    return Workload(
        grid6,
        [
            BFS(0, hops=2),
            HopBroadcast(35, 71, 8),
            BFS(14, hops=5),
            HopBroadcast(3, 72, 1),
            BFS(20, hops=8),
            HopBroadcast(9, 73, 4),
        ],
    )


PHASE_SCHEDULERS = [
    RoundRobinScheduler(),
    RandomDelayScheduler(),
    # a wide delay range, so some delays are non-zero
    RandomDelayScheduler(delay_stretch=8.0),
    SparsePhaseScheduler(),
    DoublingScheduler(),
]


@pytest.mark.parametrize(
    "scheduler",
    PHASE_SCHEDULERS,
    ids=["round-robin", "random-delay", "random-delay-wide", "sparse", "doubling"],
)
def test_phase_schedulers_match_the_formula(workload, scheduler):
    result = scheduler.run(workload, seed=5)
    assert result.correct
    report = result.report
    delays = report.notes["delays"]
    solo = [run.rounds for run in workload.solo_runs()]
    width = max(report.phase_size, report.max_phase_load)
    offset = report.notes.get("wasted_rounds", 0)
    assert report.completion_rounds == [
        offset + (delay + rounds) * width for delay, rounds in zip(delays, solo)
    ]
    # The last algorithm to finish ends the schedule.
    assert max(report.completion_rounds) == report.length_rounds


@pytest.mark.parametrize(
    "scheduler",
    PHASE_SCHEDULERS,
    ids=["round-robin", "random-delay", "random-delay-wide", "sparse", "doubling"],
)
def test_truncated_run_leaves_completion_undefined(workload, scheduler):
    # Three phases cannot finish the 8-round algorithms: no completion
    # round of this run is one at which its algorithm had finished.
    budgeted = copy.copy(scheduler).with_round_budget(3)
    report = budgeted.run(workload, seed=5).report
    assert report.notes["truncated"]
    assert report.completion_rounds is None


def test_delays_spread_completion(workload):
    report = RandomDelayScheduler(delay_stretch=8.0).run(workload, seed=5).report
    assert any(report.notes["delays"])


def test_doubling_charges_its_failed_attempts(path10):
    # Twelve floods down one path overload every guess but the last.
    workload = Workload(path10, [HopBroadcast(0, 100 + i, 9) for i in range(12)])
    result = DoublingScheduler().run(workload, seed=5)
    assert result.correct
    report = result.report
    wasted = report.notes["wasted_rounds"]
    assert wasted > 0
    width = max(report.phase_size, report.max_phase_load)
    solo = [run.rounds for run in workload.solo_runs()]
    assert report.completion_rounds == [
        wasted + (delay + rounds) * width
        for delay, rounds in zip(report.notes["delays"], solo)
    ]
    assert max(report.completion_rounds) == report.length_rounds


def test_sequential_completes_in_prefix_sums(workload):
    report = SequentialScheduler().run(workload).report
    solo = [run.rounds for run in workload.solo_runs()]
    assert report.completion_rounds == list(accumulate(solo))
    assert report.completion_rounds[-1] == report.length_rounds


@pytest.mark.parametrize(
    "scheduler",
    [PrivateScheduler(), EagerScheduler(), GreedyPatternScheduler()],
    ids=lambda s: s.name,
)
def test_undefined_elsewhere(workload, scheduler):
    assert scheduler.run(workload, seed=5).report.completion_rounds is None
