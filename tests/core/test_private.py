"""Tests for the private-randomness scheduler (Theorem 4.1 / 1.3)."""

import random

import pytest

from repro.algorithms import BFS, HopBroadcast
from repro.congest import topology
from repro.core import PrivateScheduler, Workload
from repro.experiments import mixed_workload, packet_workload
from repro.faults import FaultPlan, NodeCrash
from repro.fuzz import ScenarioGenerator
from repro.telemetry import InMemoryRecorder

#: 12 topology kinds × 12 algorithm families of the fuzz generator.
SCENARIOS = 144
#: Loss, delay, re-delivery and a crash-stop: every fault kind the cluster
#: engine routes (node 1 exists in every generated network).
FAULTS = FaultPlan(
    seed=5,
    drop=0.1,
    duplicate=0.05,
    delay=0.1,
    max_extra_delay=2,
    crashes=(NodeCrash(1, 2),),
)


@pytest.fixture(scope="module")
def workload(grid6):
    return mixed_workload(grid6, 6, hops=4, seed=31)


class TestCorrectness:
    @pytest.mark.parametrize("dedup", [True, False], ids=["dedup", "uniform"])
    def test_outputs_match_solo(self, workload, dedup):
        result = PrivateScheduler(dedup=dedup).run(workload, seed=2)
        assert result.correct, result.mismatches[:3]

    def test_packet_workload(self, grid6):
        work = packet_workload(grid6, 8, seed=5)
        result = PrivateScheduler().run(work, seed=1)
        assert result.correct

    def test_distributed_precomputation_correct(self, grid4):
        work = Workload(grid4, [BFS(0, hops=3), BFS(15, hops=3)])
        result = PrivateScheduler(
            distributed_precomputation=True, layer_constant=2.0
        ).run(work, seed=3)
        assert result.correct
        assert result.report.notes["built_distributed"]

    @pytest.mark.slow
    def test_distributed_precomputation_on_the_ledger_grid(self):
        # The perf ledger's private_grid instance at seed 7: a 12x12 grid,
        # 16 alternating BFS / HopBroadcast with hops 4, schedule seed 11.
        # Distributed precomputation once failed here with "sharing
        # failed at node 2 layer 3: 0/12 chunks".
        pattern = random.Random("private_grid:pattern")
        tokens = random.Random("private_grid:7")
        algorithms = [
            BFS(source, 4)
            if index % 2 == 0
            else HopBroadcast(source, tokens.randrange(1 << 16), 4)
            for index, source in enumerate(pattern.randrange(144) for _ in range(16))
        ]
        work = Workload(
            topology.grid_graph(12, 12), algorithms, master_seed=7, solo_cache=None
        )
        result = PrivateScheduler(distributed_precomputation=True).run(work, seed=11)
        assert result.correct, result.mismatches[:3]
        assert result.report.notes["built_distributed"]
        assert result.report.length_rounds == 64


class TestReports:
    def test_precomputation_charged(self, workload):
        result = PrivateScheduler().run(workload, seed=2)
        assert result.report.precomputation_rounds > 0
        assert result.report.total_rounds > result.report.length_rounds

    def test_notes_capture_structure(self, workload):
        result = PrivateScheduler().run(workload, seed=2)
        notes = result.report.notes
        assert notes["num_layers"] >= 2
        assert notes["num_copies"] > 0
        assert notes["kwise_independence"] >= 2
        assert notes["prime"] > notes["delay_support"]

    def test_dedup_shorter_or_equal_uniform(self, workload):
        """The non-uniform + dedup variant is the upgrade of Lemma 4.4:
        it should not be longer than the uniform variant."""
        uniform = PrivateScheduler(dedup=False).run(workload, seed=2)
        dedup = PrivateScheduler(dedup=True).run(workload, seed=2)
        assert dedup.report.length_rounds <= uniform.report.length_rounds

    def test_dedup_suppresses_messages(self, workload):
        result = PrivateScheduler(dedup=True).run(workload, seed=2)
        assert result.report.messages_deduplicated > 0

    def test_deterministic_given_seed(self, workload):
        a = PrivateScheduler().run(workload, seed=8)
        b = PrivateScheduler().run(workload, seed=8)
        assert a.report.length_rounds == b.report.length_rounds


def _run_generated(index, faults=None, **options):
    scenario = ScenarioGenerator(0).generate(index)
    built = scenario.build()
    workload = Workload(
        built.network,
        list(built.algorithms),
        master_seed=scenario.master_seed,
        solo_cache=None,
    )
    scheduler = PrivateScheduler(**options).with_recorder(InMemoryRecorder())
    if faults is not None:
        budget = 8 * workload.params().cost_sum + 50
        scheduler = scheduler.with_faults(faults).with_round_budget(budget)
    return scheduler.run_resilient(workload, seed=scenario.schedule_seed)


class TestGeneratedScenarios:
    @pytest.mark.parametrize("index", range(SCENARIOS))
    def test_distributed_precomputation_matches_the_oracle(self, index):
        # The CONGEST clustering protocol runs on the simulator and must
        # hand the cluster engine the clustering the oracle builds: the
        # schedule, its outputs and its failures (faults included, so the
        # precomputation must not draw from the injector) are the same;
        # only the simulator's own counters and the charge differ.
        for dedup, faults in ((True, None), (False, FAULTS)):
            oracle = _run_generated(index, faults, dedup=dedup)
            protocol = _run_generated(
                index, faults, dedup=dedup, distributed_precomputation=True
            )
            observed = []
            for result in (oracle, protocol):
                report = result.report
                notes = dict(report.notes)
                counters = report.engine_counters()
                observed.append(
                    {
                        "outputs": result.outputs,
                        "correct": result.correct,
                        "failure": None
                        if result.failure is None
                        else (result.failure.stage, result.failure.message),
                        "length_rounds": report.length_rounds,
                        "num_phases": report.num_phases,
                        "max_phase_load": report.max_phase_load,
                        "messages_sent": report.messages_sent,
                        "messages_deduplicated": report.messages_deduplicated,
                        "load_histogram": report.load_histogram,
                        "built_distributed": notes.pop("built_distributed"),
                        "notes": notes,
                        "engine_counters": {
                            name: value
                            for name, value in counters.items()
                            if not name.startswith("sim.")
                        },
                        "sim_host_steps": counters["sim.host_steps"],
                    }
                )
            for field, value in observed[0].items():
                if field not in ("built_distributed", "sim_host_steps"):
                    assert observed[1][field] == value, (dedup, field)
            assert [run["built_distributed"] for run in observed] == [False, True]
            assert observed[0]["sim_host_steps"] == 0 < observed[1]["sim_host_steps"]

    @pytest.mark.parametrize("index", range(SCENARIOS))
    def test_uniform_delays_are_correct(self, index):
        # Lemma 4.4 with uniform cluster delays and no dedup: every copy
        # still finishes, so every output matches its solo run.
        result = _run_generated(index, dedup=False)
        assert result.failure is None
        assert result.correct, result.mismatches[:3]
        assert not result.report.notes["built_distributed"]


class TestCoverageHandling:
    def test_auto_extends_on_thin_layers(self, grid6):
        work = mixed_workload(grid6, 3, hops=3, seed=7)
        # start with far too few layers; the scheduler must extend
        scheduler = PrivateScheduler(layer_constant=0.3, max_coverage_retries=4)
        result = scheduler.run(work, seed=11)
        assert result.correct

    def test_reuses_prebuilt_clustering(self, workload):
        from repro.clustering import build_clustering

        clustering = build_clustering(
            workload.network,
            radius_scale=2 * workload.params().dilation,
            num_layers=16,
            seed=9,
        )
        result = PrivateScheduler(clustering=clustering).run(workload, seed=9)
        assert result.correct
        assert result.report.precomputation_rounds == pytest.approx(
            clustering.precomputation_rounds, rel=1.0
        )


class TestDeepDilationWorkloads:
    def test_mst_workload_schedules_correctly(self):
        """Algorithms whose dilation far exceeds the diameter (MST) force
        whole-graph clusters (infinite contained radius); the scheduler
        must handle them."""
        from repro.algorithms.mst import TradeoffMST, random_weights
        from repro.congest import topology

        net = topology.cycle_graph(9)
        algs = [
            TradeoffMST(net, random_weights(net, seed=s), size_target=3, salt=s)
            for s in range(2)
        ]
        work = Workload(net, algs)
        assert work.params().dilation > net.diameter()
        result = PrivateScheduler(layer_constant=1.5).run(work, seed=1)
        assert result.correct
