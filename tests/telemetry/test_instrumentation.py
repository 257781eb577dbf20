"""Integration tests: the recorder threaded through simulator and schedulers.

The key invariant (the PR's acceptance bar): recording is purely
observational. Attaching an :class:`InMemoryRecorder` must not change a
single output, delay, round count, or report field — schedulers with the
default :data:`NULL_RECORDER` behave exactly as instrumented ones minus
the ``report.telemetry`` snapshot.
"""

import dataclasses

import pytest

from repro.algorithms import BFS, HopBroadcast
from repro.congest import Simulator
from repro.core import (
    PrivateScheduler,
    RandomDelayScheduler,
    Workload,
    run_delayed_phases,
)
from repro.telemetry import NULL_RECORDER, InMemoryRecorder


@pytest.fixture(scope="module")
def workload(grid6):
    return Workload(
        grid6,
        [BFS(0, hops=4), BFS(35, hops=4), HopBroadcast(14, "tok", 4)],
    )


def _reports_equal(a, b) -> bool:
    """Compare reports field-by-field, ignoring observability output."""
    fields = [
        f.name
        for f in dataclasses.fields(a)
        if f.name not in ("telemetry", "profile")
    ]
    return all(getattr(a, f) == getattr(b, f) for f in fields)


class TestObservationalPurity:
    @pytest.mark.parametrize("dedup", [True, False])
    def test_private_scheduler_identical_with_and_without_recorder(
        self, workload, dedup
    ):
        plain = PrivateScheduler(dedup=dedup).run(workload, seed=3)
        recorded = (
            PrivateScheduler(dedup=dedup)
            .with_recorder(InMemoryRecorder())
            .run(workload, seed=3)
        )
        assert plain.outputs == recorded.outputs
        assert plain.mismatches == recorded.mismatches
        assert _reports_equal(plain.report, recorded.report)
        assert plain.report.telemetry is None
        assert recorded.report.telemetry is not None

    def test_random_delay_scheduler_identical(self, workload):
        plain = RandomDelayScheduler().run(workload, seed=9)
        recorded = (
            RandomDelayScheduler()
            .with_recorder(InMemoryRecorder())
            .run(workload, seed=9)
        )
        assert plain.outputs == recorded.outputs
        assert _reports_equal(plain.report, recorded.report)

    def test_null_recorder_is_the_default(self):
        assert PrivateScheduler().recorder is NULL_RECORDER
        assert RandomDelayScheduler().recorder is NULL_RECORDER


class TestSchedulerSpans:
    def test_private_scheduler_phase_spans(self, workload):
        recorder = InMemoryRecorder()
        result = (
            PrivateScheduler().with_recorder(recorder).run(workload, seed=1)
        )
        assert result.correct
        names = {s.name for s in recorder.spans}
        assert {
            "measure-params",
            "clustering",
            "carve-layer",
            "select-output-layers",
            "delay-sampling",
            "cluster-copies",
            "verify-outputs",
        } <= names
        counters = recorder.snapshot()["counters"]
        assert counters["cluster.messages_sent"] > 0
        assert counters["cluster.copies"] > 0
        assert counters["scheduler.mismatches"] == 0
        sample_names = {name for name, _, _ in recorder.samples}
        assert "cluster.round_messages" in sample_names
        assert "cluster.active_copies" in sample_names

    def test_distributed_clustering_spans(self, grid4):
        work = Workload(grid4, [BFS(0, hops=3), HopBroadcast(15, "x", 3)])
        recorder = InMemoryRecorder()
        scheduler = PrivateScheduler(
            distributed_precomputation=True
        ).with_recorder(recorder)
        result = scheduler.run(work, seed=2)
        assert result.correct
        names = {s.name for s in recorder.spans}
        assert "carve-layer-distributed" in names
        assert "verify-sharing" in names
        # the carving protocols run on an instrumented simulator
        assert any(s.name.startswith("solo:CarvingProtocol") for s in recorder.spans)
        assert recorder.snapshot()["counters"]["clustering.protocol_rounds"] > 0

    def test_report_telemetry_snapshot_merged(self, workload):
        recorder = InMemoryRecorder()
        result = (
            PrivateScheduler().with_recorder(recorder).run(workload, seed=1)
        )
        telemetry = result.report.telemetry
        assert telemetry["gauges"]["scheduler.length_rounds"] == (
            result.report.length_rounds
        )
        assert telemetry["counters"]["cluster.messages_sent"] == (
            result.report.messages_sent
        )


class TestSimulatorInstrumentation:
    def test_solo_run_span_and_samples(self, grid4):
        recorder = InMemoryRecorder()
        sim = Simulator(grid4, recorder=recorder)
        algorithm = BFS(0, hops=3)
        run = sim.run(algorithm)
        (span,) = recorder.spans_named(f"solo:{algorithm.name}")
        assert span.category == "simulator"
        counters = recorder.snapshot()["counters"]
        assert counters["sim.runs"] == 1
        assert counters["sim.messages"] == run.trace.num_messages
        per_round = [
            value
            for name, _, value in recorder.samples
            if name == "sim.round_messages"
        ]
        assert sum(per_round) == run.trace.num_messages

    def test_simulator_outputs_unchanged_by_recorder(self, grid4):
        plain = Simulator(grid4).run(BFS(0, hops=3))
        recorded = Simulator(grid4, recorder=InMemoryRecorder()).run(
            BFS(0, hops=3)
        )
        assert plain.outputs == recorded.outputs
        assert plain.rounds == recorded.rounds
        assert plain.completion_round == recorded.completion_round

    def test_limit_exceeded_event(self, path10):
        recorder = InMemoryRecorder()
        sim = Simulator(path10, recorder=recorder)
        assert sim.run(BFS(0), max_rounds=1).truncated
        assert recorder.snapshot()["counters"]["sim.limit_exceeded"] == 1
        assert any(e.name == "limit-exceeded" for e in recorder.events)


class TestPhaseEngineInstrumentation:
    def test_per_phase_samples(self, workload):
        recorder = InMemoryRecorder()
        execution = run_delayed_phases(workload, [0, 1, 2], recorder=recorder)
        per_phase = [
            value
            for name, _, value in recorder.samples
            if name == "phase.messages"
        ]
        assert sum(per_phase) == execution.messages
        counters = recorder.snapshot()["counters"]
        assert counters["phase.phases"] == execution.num_phases
        assert counters["phase.messages"] == execution.messages
