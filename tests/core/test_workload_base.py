"""Tests for Workload and the Scheduler base machinery."""

import pickle
from unittest import mock

import pytest

from repro.algorithms import BFS, HopBroadcast
from repro.core import Mismatch, ScheduleResult, Workload, verify_outputs
from repro.errors import VerificationError
from repro.metrics import ScheduleReport, WorkloadParams


class TestWorkload:
    def test_requires_algorithms(self, grid4):
        with pytest.raises(ValueError):
            Workload(grid4, [])

    def test_aids_are_indices(self, grid4):
        work = Workload(grid4, [BFS(0), BFS(1)])
        assert list(work.aids) == [0, 1]
        assert work.num_algorithms == 2

    def test_reference_outputs_complete(self, grid4):
        work = Workload(grid4, [BFS(0), HopBroadcast(5, "x", 2)])
        refs = work.reference_outputs()
        assert len(refs) == 2 * grid4.num_nodes

    def test_message_bits_default_resolved(self, grid4):
        work = Workload(grid4, [BFS(0)])
        assert work.message_bits is not None and work.message_bits > 0

    def test_message_bits_none_allowed(self, grid4):
        work = Workload(grid4, [BFS(0)], message_bits=None)
        assert work.message_bits is None

    def test_master_seed_changes_nothing_for_deterministic_algs(self, grid4):
        a = Workload(grid4, [BFS(0)], master_seed=1).reference_outputs()
        b = Workload(grid4, [BFS(0)], master_seed=2).reference_outputs()
        assert a == b

    def test_params_measured_once_for_six_schedulers(self, grid4):
        from repro.core import workload as workload_module
        from repro.service.specs import parse_scheduler

        work = Workload(grid4, [BFS(0, hops=3), HopBroadcast(5, "x", 2)])
        expected = workload_module.measure_params(work.solo_runs())
        with mock.patch.object(
            workload_module,
            "measure_params",
            wraps=workload_module.measure_params,
        ) as measure:
            for name in (
                "sequential",
                "round-robin",
                "random-delay",
                "sparse-phase",
                "doubling",
                "private",
            ):
                result = parse_scheduler(name).run(work, seed=3)
                assert result.report.params == expected
            assert measure.call_count == 1
            # The memo travels with the solo runs it was measured from.
            clone = pickle.loads(pickle.dumps(work))
            assert clone.params() == expected
            assert measure.call_count == 1


class TestVerification:
    def test_verify_passes_on_reference(self, grid4):
        work = Workload(grid4, [BFS(0)])
        assert verify_outputs(work, work.reference_outputs()) == []

    def test_verify_detects_wrong_value(self, grid4):
        work = Workload(grid4, [BFS(0)])
        outputs = work.reference_outputs()
        outputs[(0, 3)] = "corrupted"
        mismatches = verify_outputs(work, outputs)
        assert len(mismatches) == 1
        assert mismatches[0].node == 3

    def test_verify_detects_missing(self, grid4):
        work = Workload(grid4, [BFS(0)])
        outputs = work.reference_outputs()
        del outputs[(0, 7)]
        mismatches = verify_outputs(work, outputs)
        assert mismatches[0].actual == "<missing>"

    def test_result_raises_on_mismatch(self):
        report = ScheduleReport("x", WorkloadParams(1, 1, 1), 1)
        result = ScheduleResult(
            outputs={}, report=report, mismatches=[Mismatch(0, 0, 1, 2)]
        )
        assert not result.correct
        with pytest.raises(VerificationError):
            result.raise_on_mismatch()
