"""The differential oracle: clean scenarios pass, injected bugs don't."""

import pytest

from repro.core import SequentialScheduler, Workload
from repro.core.transport_numpy import NumpyPhaseChannel
from repro.congest import topology
from repro.fuzz import (
    DifferentialOracle,
    Scenario,
    ScenarioGenerator,
    injector,
)
from repro.service import SchedulerService
from repro.service.specs import parse_algorithm


def _fault_free(count=6, seed=0):
    gen = ScenarioGenerator(seed)
    picked = []
    index = 0
    while len(picked) < count:
        scenario = gen.generate(index)
        if scenario.faults is None:
            picked.append(scenario)
        index += 1
    return picked


class TestCleanScenarios:
    def test_generated_prefix_is_divergence_free(self):
        oracle = DifferentialOracle(fuzz_seed=0)
        for index, scenario in enumerate(ScenarioGenerator(0).stream(12)):
            report = oracle.check(scenario)
            assert report.ok, (index, [str(d) for d in report.divergences])
            assert report.checks > 0

    def test_faulted_scenarios_checked_for_determinism(self):
        oracle = DifferentialOracle(fuzz_seed=0)
        faulted = next(
            s for s in ScenarioGenerator(0).stream(9) if s.faults is not None
        )
        report = oracle.check(faulted)
        assert report.ok
        # faulted path: per-scheduler determinism + the null-plan check
        assert report.checks == len(faulted.schedulers) + 1

    def test_invalid_scenario_reports_build_divergence(self):
        report = DifferentialOracle().check(
            Scenario(network="path:4", algorithms=("bfs:source=0,hopz=1",))
        )
        assert [d.check for d in report.divergences] == ["build"]


class TestInjectedBugs:
    @pytest.mark.parametrize(
        "mode,check",
        [
            ("drop-output", "outputs"),
            ("wrong-output", "outputs"),
            ("short-report", "bounds"),
        ],
    )
    def test_each_mode_is_caught_by_its_check(self, mode, check):
        oracle = DifferentialOracle(inject=injector(mode))
        scenario = _fault_free(1)[0]
        report = oracle.check(scenario)
        assert not report.ok
        assert check in {d.check for d in report.divergences}

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="no-such-mode"):
            injector("no-such-mode")

    def test_unarmed_env_returns_none(self, monkeypatch):
        from repro.fuzz.inject import from_env

        monkeypatch.delenv("REPRO_FUZZ_INJECT", raising=False)
        assert from_env() is None
        monkeypatch.setenv("REPRO_FUZZ_INJECT", "drop-output")
        assert from_env() is not None


class TestTransportIdentity:
    def test_broken_numpy_phase_channel_is_caught(self, monkeypatch):
        # Each leg must run the phase engine on its own transport: a
        # numpy channel that overstates the phase load stretches only
        # the numpy leg's schedule.
        end_phase = NumpyPhaseChannel.end_phase

        def inflated(self):
            phase = end_phase(self)
            self.max_load = max(self.max_load, 1000)
            return phase

        monkeypatch.setattr(NumpyPhaseChannel, "end_phase", inflated)
        scenario = Scenario(
            network="grid:4x4",
            algorithms=(
                "bfs:source=0,hops=4",
                "broadcast:source=15,token=7,hops=4",
            ),
            schedulers=("random-delay",),
            transports=("reference", "numpy"),
        )
        report = DifferentialOracle(service=False).check(scenario)
        assert [d.check for d in report.divergences] == ["transport-identity"]


class TestProvenanceStamping:
    def test_reports_and_failures_carry_the_fingerprint(self):
        oracle = DifferentialOracle(fuzz_seed=41)
        scenario = Scenario(
            network="path:5", algorithms=("bfs:source=0,hops=4",)
        )
        workload = Workload(
            topology.path_graph(5),
            [parse_algorithm("bfs:source=0,hops=4")],
        )
        # A failed run's stamp must land in both the report notes and
        # the structured failure context.
        from repro.core.base import ScheduleFailure, ScheduleResult
        from repro.metrics.schedule import ScheduleReport

        failure = ScheduleFailure(
            stage="schedule", error="Boom", message="boom", context={}
        )
        result = ScheduleResult(
            outputs={},
            report=ScheduleReport(
                scheduler="sequential",
                params=workload.params(),
                length_rounds=0,
                correct=False,
            ),
            mismatches=[],
            failure=failure,
        )
        oracle._stamp(result, scenario.fingerprint())
        assert result.report.notes["scenario"] == scenario.fingerprint()
        assert result.report.notes["fuzz_seed"] == 41
        assert result.failure.context["scenario"] == scenario.fingerprint()
        assert result.failure.context["fuzz_seed"] == 41

    def test_service_failed_events_carry_the_scenario(self, tmp_path):
        class CorruptingScheduler(SequentialScheduler):
            def run(self, workload, seed=0):
                result = super().run(workload, seed=seed)
                result.outputs = {
                    key: "<corrupt>" for key in result.outputs
                }
                from repro.core.base import verify_outputs

                result.mismatches = verify_outputs(
                    workload, result.outputs
                )
                return result

        from repro.service import read_events, shard_key

        service = SchedulerService(
            directory=tmp_path,
            scheduler=CorruptingScheduler(),
            max_retries=1,
        )
        network = topology.path_graph(4)
        service.submit(
            network,
            parse_algorithm("bfs:source=0,hops=3"),
            spec={"scenario": "cafe01234567", "fuzz_seed": 7},
        )
        service.drain()
        service.shutdown(drain=False)
        events = tmp_path / "shards" / shard_key(network) / "events.jsonl"
        failed = [e for e in read_events(events) if e.kind == "failed"]
        assert failed
        assert failed[0].attrs["scenario"] == "cafe01234567"
        assert failed[0].attrs["fuzz_seed"] == 7
