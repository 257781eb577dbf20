"""Tests for congestion/dilation measurement and schedule reports."""

import pytest

from repro.algorithms import BFS, HopBroadcast, PathToken
from repro.congest import CommunicationPattern, solo_run
from repro.core import Workload
from repro.metrics import (
    PhaseTimeline,
    ScheduleReport,
    WorkloadParams,
    edge_congestion_profile,
    measure_params,
    measure_params_from_patterns,
    phase_schedule_length,
)


class TestWorkloadParams:
    def test_trivial_lower_bound(self):
        p = WorkloadParams(congestion=10, dilation=4, num_algorithms=3)
        assert p.trivial_lower_bound == 10
        assert p.cost_sum == 14

    def test_str(self):
        p = WorkloadParams(3, 5, 2)
        assert "congestion=3" in str(p)


class TestMeasurement:
    def test_empty(self):
        assert measure_params([]).congestion == 0
        assert measure_params_from_patterns([]).dilation == 0

    def test_single_path_token(self, path10):
        run = solo_run(path10, PathToken(list(range(10)), token=1))
        params = measure_params([run])
        assert params.dilation == 9
        assert params.congestion == 1

    def test_overlapping_paths_sum(self, path10):
        runs = [
            solo_run(path10, PathToken(list(range(10)), token=i), algorithm_id=i)
            for i in range(5)
        ]
        params = measure_params(runs)
        assert params.congestion == 5
        assert params.dilation == 9
        assert params.num_algorithms == 5

    def test_patterns_and_runs_agree(self, grid6):
        runs = [
            solo_run(grid6, BFS(0), algorithm_id=0),
            solo_run(grid6, HopBroadcast(35, "x", 6), algorithm_id=1),
        ]
        a = measure_params(runs)
        b = measure_params_from_patterns([r.pattern for r in runs])
        assert a == b

    def test_profile_per_edge(self):
        p1 = CommunicationPattern([(1, 0, 1), (2, 0, 1)])
        p2 = CommunicationPattern([(1, 0, 1)])
        profile = edge_congestion_profile([p1, p2])
        assert profile[(0, 1)] == 3

    def test_workload_params_cached_solo_runs(self, grid4):
        work = Workload(grid4, [BFS(0), BFS(15)])
        first = work.solo_runs()
        assert work.solo_runs() is first


class TestScheduleReport:
    def _report(self, **kwargs):
        defaults = dict(
            scheduler="x",
            params=WorkloadParams(8, 4, 2),
            length_rounds=24,
        )
        defaults.update(kwargs)
        return ScheduleReport(**defaults)

    def test_ratios(self):
        r = self._report()
        assert r.competitive_ratio == 3.0
        assert r.lmr_ratio == 2.0

    def test_total_rounds(self):
        r = self._report(precomputation_rounds=10)
        assert r.total_rounds == 34

    def test_zero_bound_ratio(self):
        r = self._report(params=WorkloadParams(0, 0, 1))
        assert r.competitive_ratio == float("inf")

    def test_summary_mentions_verdict(self):
        assert "OK" in self._report(correct=True).summary()
        assert "WRONG" in self._report(correct=False).summary()

    def test_phase_schedule_length(self):
        assert phase_schedule_length(5, 4, 2) == 20
        assert phase_schedule_length(5, 4, 9) == 45  # stretched phases

    def test_phase_schedule_length_invalid(self):
        with pytest.raises(ValueError):
            phase_schedule_length(-1, 4, 0)
        with pytest.raises(ValueError):
            phase_schedule_length(3, 0, 0)
        with pytest.raises(ValueError):
            PhaseTimeline.stretched(-1, 4, 0)
        with pytest.raises(ValueError):
            PhaseTimeline.stretched(3, 0, 0)

    def test_phase_timeline(self):
        timeline = PhaseTimeline.stretched(5, 4, 2)
        assert timeline == PhaseTimeline(num_phases=5, width=4)
        assert timeline.length == 20
        # done after delay + solo rounds phases
        assert timeline.completion(2, 3) == 20
        assert timeline.completion(0, 1) == 4
        # phase p holds rounds p·w + 1 … (p+1)·w
        assert timeline.round_of(0, 0) == 1
        assert timeline.round_of(0, 3) == 4
        assert timeline.round_of(2, 1) == 10
        # an overloaded edge stretches every phase
        timeline = PhaseTimeline.stretched(5, 4, 9)
        assert timeline.width == 9
        assert timeline.length == 45
        assert timeline.completion(1, 2) == 27
        assert timeline.round_of(1, 8) == 18
        assert PhaseTimeline.stretched(0, 3, 0).length == 0
