"""Tests for the big-round phase execution engine."""

import pytest

from repro.algorithms import BFS, HopBroadcast, PathToken
from repro.core import Workload, run_delayed_phases, verify_outputs
from repro.core.pattern_schedule import evaluate_delay_schedule


class TestCorrectness:
    def test_zero_delays_reproduce_solo(self, grid6):
        work = Workload(grid6, [BFS(0), BFS(35), HopBroadcast(6, "x", 5)])
        execution = run_delayed_phases(work, [0, 0, 0])
        assert verify_outputs(work, execution.outputs) == []

    def test_arbitrary_delays_reproduce_solo(self, grid6):
        work = Workload(grid6, [BFS(0), BFS(35), HopBroadcast(6, "x", 5)])
        execution = run_delayed_phases(work, [7, 0, 3])
        assert verify_outputs(work, execution.outputs) == []

    def test_wrong_delay_count_rejected(self, grid4):
        work = Workload(grid4, [BFS(0)])
        with pytest.raises(ValueError):
            run_delayed_phases(work, [0, 0])

    def test_negative_delay_rejected(self, grid4):
        work = Workload(grid4, [BFS(0)])
        with pytest.raises(ValueError):
            run_delayed_phases(work, [-1])

    def test_max_phases_enforced(self, grid4):
        work = Workload(grid4, [BFS(0)])
        # A passed cap is a budget: the run stops there, partial.
        execution = run_delayed_phases(work, [50], max_phases=10)
        assert execution.truncated and execution.messages == 0


class TestAccounting:
    def test_num_phases_is_delay_plus_rounds(self, path10):
        work = Workload(path10, [PathToken(list(range(10)), token=1)])
        execution = run_delayed_phases(work, [4])
        assert execution.num_phases == 4 + 9

    def test_loads_stack_on_shared_edge(self, path10):
        tokens = [PathToken(list(range(10)), token=i) for i in range(5)]
        work = Workload(path10, tokens)
        all_zero = run_delayed_phases(work, [0] * 5)
        assert all_zero.max_phase_load == 5
        staggered = run_delayed_phases(work, list(range(5)))
        assert staggered.max_phase_load == 1

    def test_staggered_tokens_messages_constant(self, path10):
        tokens = [PathToken(list(range(10)), token=i) for i in range(3)]
        work = Workload(path10, tokens)
        ex = run_delayed_phases(work, [0, 1, 2])
        assert ex.messages == 3 * 9

    def test_required_phase_size(self, path10):
        tokens = [PathToken(list(range(10)), token=i) for i in range(4)]
        work = Workload(path10, tokens)
        ex = run_delayed_phases(work, [0] * 4)
        assert ex.max_phase_load == 4

    def test_histogram_sums_to_pairs(self, grid4):
        work = Workload(grid4, [BFS(0), BFS(15)])
        ex = run_delayed_phases(work, [0, 0])
        assert sum(k * v for k, v in ex.load_histogram.items()) == ex.messages


class TestPatternLevelConsistency:
    def test_engine_and_pattern_loads_agree(self, grid6):
        """The execution engine and the analytic pattern evaluator must
        account identical loads for the same delays."""
        work = Workload(
            grid6, [BFS(0), BFS(35), HopBroadcast(6, "x", 5), BFS(14)]
        )
        delays = [2, 0, 5, 1]
        execution = run_delayed_phases(work, delays)
        analytic = evaluate_delay_schedule(work.patterns(), delays)
        assert execution.max_phase_load == analytic.max_phase_load
        assert execution.num_phases == analytic.num_phases
        assert execution.messages == analytic.total_messages
        assert execution.load_histogram == analytic.load_histogram
