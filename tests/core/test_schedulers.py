"""Tests for the baseline and random-delay schedulers (Theorem 1.1 etc)."""

import math

import pytest

from repro.algorithms import BFS, PathToken
from repro.core import (
    DoublingScheduler,
    GreedyPatternScheduler,
    RandomDelayScheduler,
    RoundRobinScheduler,
    SequentialScheduler,
    SparsePhaseScheduler,
    Workload,
)
from repro.core.delays import phase_size_log, phase_size_log_over_loglog
from repro.experiments import mixed_workload

ALL_SCHEDULERS = [
    SequentialScheduler(),
    RoundRobinScheduler(),
    RandomDelayScheduler(),
    SparsePhaseScheduler(),
    DoublingScheduler(),
    GreedyPatternScheduler(),
]


@pytest.fixture(scope="module")
def workload(grid6):
    return mixed_workload(grid6, 8, seed=13)


@pytest.mark.parametrize("scheduler", ALL_SCHEDULERS, ids=lambda s: s.name)
def test_every_scheduler_is_correct(workload, scheduler):
    result = scheduler.run(workload, seed=3)
    assert result.correct, result.mismatches[:3]
    assert result.report.correct is True


@pytest.mark.parametrize("scheduler", ALL_SCHEDULERS, ids=lambda s: s.name)
def test_length_at_least_trivial_bound(workload, scheduler):
    result = scheduler.run(workload, seed=3)
    assert result.report.length_rounds >= workload.params().dilation


class TestSequential:
    def test_length_is_sum_of_solo(self, workload):
        result = SequentialScheduler().run(workload)
        assert result.report.length_rounds == sum(
            run.rounds for run in workload.solo_runs()
        )


class TestRoundRobin:
    def test_length_is_k_times_dilation(self, grid6):
        work = Workload(grid6, [BFS(0), BFS(35), BFS(5)])
        result = RoundRobinScheduler().run(work)
        params = work.params()
        assert result.report.length_rounds == 3 * params.dilation

    def test_load_never_exceeds_k(self, workload):
        result = RoundRobinScheduler().run(workload)
        assert result.report.max_phase_load <= workload.num_algorithms


class TestRandomDelay:
    def test_phase_size_theta_log_n(self, grid6):
        assert phase_size_log(grid6.num_nodes) == math.ceil(math.log2(36))

    def test_deterministic_given_seed(self, workload):
        a = RandomDelayScheduler().run(workload, seed=9)
        b = RandomDelayScheduler().run(workload, seed=9)
        assert a.report.length_rounds == b.report.length_rounds
        assert a.report.notes["delays"] == b.report.notes["delays"]

    def test_seed_changes_delays(self, workload):
        a = RandomDelayScheduler().run(workload, seed=1)
        b = RandomDelayScheduler().run(workload, seed=2)
        assert a.report.notes["delays"] != b.report.notes["delays"]

    def test_delay_range_scales_with_congestion(self):
        sched = RandomDelayScheduler()
        assert sched.delay_range(100, 5) == 20
        assert sched.delay_range(3, 5) == 1

    def test_stretch_lowers_load(self, path10):
        """More delay room spreads heavy edge loads out."""
        tokens = [PathToken(list(range(10)), token=i) for i in range(12)]
        work = Workload(path10, tokens)
        tight = RandomDelayScheduler(delay_stretch=0.25).run(work, seed=4)
        loose = RandomDelayScheduler(delay_stretch=4.0).run(work, seed=4)
        assert loose.report.max_phase_load <= tight.report.max_phase_load

    def test_invalid_stretch(self):
        with pytest.raises(ValueError):
            RandomDelayScheduler(delay_stretch=0)


class TestSparsePhase:
    def test_phase_size_smaller_than_log(self):
        n = 1 << 16
        assert phase_size_log_over_loglog(n) < phase_size_log(n)

    def test_phase_size_formula(self):
        n = 1 << 16
        assert phase_size_log_over_loglog(n) == math.ceil(16 / math.log2(16))


class TestDoubling:
    def test_converges_and_reports_guess(self, workload):
        result = DoublingScheduler().run(workload, seed=5)
        assert result.correct
        notes = result.report.notes
        assert notes["final_guess"] >= 1
        assert notes["attempts"] >= 1

    def test_wasted_rounds_charged(self, path10):
        """With heavy congestion, early small guesses must fail and be
        charged."""
        tokens = [PathToken(list(range(10)), token=i) for i in range(40)]
        work = Workload(path10, tokens)
        result = DoublingScheduler(capacity_slack=1.0).run(work, seed=2)
        assert result.correct
        assert result.report.notes["attempts"] > 1
        assert result.report.notes["wasted_rounds"] > 0


class TestGreedy:
    def test_validated_mapping(self, grid6):
        from repro.congest.pattern import validate_simulation_mapping
        from repro.core import greedy_schedule

        work = mixed_workload(grid6, 5, seed=3)
        patterns = work.patterns()
        schedule = greedy_schedule(patterns)
        for aid, pattern in enumerate(patterns):
            validate_simulation_mapping(pattern, schedule.mapping_for(aid))
        schedule.validate_capacity()
        result = GreedyPatternScheduler().run(work)
        assert result.correct
        assert result.report.length_rounds == schedule.makespan

    def test_greedy_beats_sequential(self, workload):
        greedy = GreedyPatternScheduler().run(workload)
        sequential = SequentialScheduler().run(workload)
        assert greedy.report.length_rounds <= sequential.report.length_rounds

    def test_greedy_respects_capacity(self, path10):
        """k tokens over one shared path need at least k + len - 2 slots."""
        from repro.core import greedy_schedule

        tokens = [PathToken(list(range(10)), token=i) for i in range(6)]
        work = Workload(path10, tokens)
        schedule = greedy_schedule(work.patterns())
        assert schedule.makespan >= 6 + 9 - 1 - 1
        # and every (edge, slot) carries at most one message
        from collections import Counter

        usage = Counter()
        for (aid, event), slot in schedule.assignment.items():
            usage[(event[1], event[2], slot)] += 1
        assert max(usage.values()) == 1
