"""Tests for phase-schedule materialization."""

import pytest

from repro.algorithms import BFS, HopBroadcast, PathToken
from repro.congest.pattern import validate_simulation_mapping
from repro.core import Workload
from repro.core.pattern_schedule import evaluate_delay_schedule
from repro.core.physical import materialize_phase_schedule
from repro.errors import ScheduleError
from repro.experiments import mixed_workload


@pytest.fixture(scope="module")
def setup(grid6):
    work = mixed_workload(grid6, 6, seed=23)
    delays = [0, 2, 1, 0, 3, 1]
    return work, delays


class TestMaterialization:
    def test_capacity_holds(self, setup):
        work, delays = setup
        schedule = materialize_phase_schedule(work.patterns(), delays, 4)
        schedule.validate_capacity()

    def test_every_event_assigned(self, setup):
        work, delays = setup
        patterns = work.patterns()
        schedule = materialize_phase_schedule(patterns, delays, 4)
        assert len(schedule.assignment) == sum(len(p) for p in patterns)
        assert all(1 <= s <= schedule.makespan for s in schedule.assignment.values())

    def test_makespan_matches_accounting_formula(self, setup):
        """The constructive schedule realizes exactly the reported
        ``num_phases × max(phase_size, max_load)`` length."""
        work, delays = setup
        patterns = work.patterns()
        phase_size = 4
        report = evaluate_delay_schedule(patterns, delays)
        schedule = materialize_phase_schedule(patterns, delays, phase_size)
        assert schedule.makespan == report.num_phases * max(
            phase_size, report.max_phase_load
        )
        assert schedule.timeline.num_phases == report.num_phases

    def test_is_valid_simulation_of_each_algorithm(self, grid4):
        work = Workload(grid4, [BFS(0, hops=3), HopBroadcast(15, "x", 3)])
        patterns = work.patterns()
        schedule = materialize_phase_schedule(patterns, [1, 0], 3)
        for aid, pattern in enumerate(patterns):
            validate_simulation_mapping(pattern, schedule.mapping_for(aid))

    def test_phase_stretching(self, path10):
        """Six tokens on one path with zero delays: loads of 6 stretch
        every phase to 6 rounds."""
        tokens = [PathToken(list(range(10)), token=i) for i in range(6)]
        work = Workload(path10, tokens)
        schedule = materialize_phase_schedule(work.patterns(), [0] * 6, 2)
        assert schedule.timeline.width == 6
        schedule.validate_capacity()

    def test_bad_inputs(self, setup):
        work, delays = setup
        with pytest.raises(ValueError):
            materialize_phase_schedule(work.patterns(), delays[:-1], 4)
        with pytest.raises(ValueError):
            materialize_phase_schedule(work.patterns(), delays, 0)
        with pytest.raises(ValueError):
            materialize_phase_schedule(work.patterns(), [-1] + delays[1:], 4)

    def test_capacity_validator_detects_corruption(self, setup):
        work, delays = setup
        schedule = materialize_phase_schedule(work.patterns(), delays, 4)
        # force two messages onto one (edge, round)
        items = list(schedule.assignment.items())
        (k1, s1) = items[0]
        target = next(
            (k, s) for (k, s) in items[1:] if (k[1][1], k[1][2]) == (k1[1][1], k1[1][2])
        )
        schedule.assignment[target[0]] = s1
        with pytest.raises(ScheduleError):
            schedule.validate_capacity()
