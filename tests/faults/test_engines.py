"""Engines under fault injection: solo simulator, phase and cluster engines."""

import pytest

from repro.algorithms import BFS, HopBroadcast
from repro.congest.program import Algorithm, NodeProgram
from repro.congest.simulator import Simulator, solo_run
from repro.core import Workload, run_delayed_phases
from repro.core.base import verify_outputs
from repro.errors import SimulationLimitExceeded
from repro.faults import FaultPlan
from repro.faults.injector import SeededInjector


class _Idle(NodeProgram):
    def on_round(self, ctx, inbox):
        pass


class _NeverHalts(Algorithm):
    def make_program(self, node, ctx):
        return _Idle()

    def max_rounds(self, network):
        return 6


def _workload(net, k=2):
    algorithms = [BFS(0, hops=6), HopBroadcast(net.num_nodes - 1, "tok", 6)][:k]
    return Workload(net, algorithms)


class TestSoloSimulator:
    def test_null_injector_bit_identical(self, grid4):
        """The chaos machinery must not perturb the fault-free path.

        Run the same algorithm with (a) the default NULL_INJECTOR and
        (b) an *enabled* SeededInjector built from an empty-probability
        plan, which exercises the fault branches of the engine while
        injecting nothing. Outputs, rounds, and the full trace must be
        identical.
        """
        reference = solo_run(grid4, BFS(0), seed=3, algorithm_id=0)
        hollow = SeededInjector.__new__(SeededInjector)
        SeededInjector.__init__(hollow, FaultPlan())
        sim = Simulator(grid4, injector=hollow)
        run = sim.run(BFS(0), seed=3, algorithm_id=0)
        assert run.outputs == reference.outputs
        assert run.rounds == reference.rounds
        assert run.completion_round == reference.completion_round
        assert list(run.trace.events()) == list(reference.trace.events())
        assert hollow.snapshot() == {}

    def test_total_edge_drop_breaks_bfs(self, path10):
        # Severing (0, 1) on a path makes every BFS distance unreachable.
        # hops is bounded so unreached nodes still halt (output None).
        plan = FaultPlan(seed=0, edge_drop=(((0, 1), 1.0),))
        sim = Simulator(path10, injector=plan.injector())
        run = sim.run(BFS(0, hops=9), seed=0, algorithm_id=0)
        reference = solo_run(path10, BFS(0, hops=9), seed=0, algorithm_id=0)
        assert run.outputs != reference.outputs
        assert run.outputs[9] is None

    def test_transient_outage_delays_bfs_layers(self, path10):
        # An outage covering the whole execution behaves like a cut...
        cut = FaultPlan.edge_outage((4, 5), start=1, end=100)
        run = Simulator(path10, injector=cut.injector()).run(
            BFS(0, hops=9), seed=0, algorithm_id=0
        )
        reference = solo_run(path10, BFS(0, hops=9), seed=0, algorithm_id=0)
        assert run.outputs != reference.outputs
        # ... while one outside the active rounds changes nothing.
        idle = FaultPlan.edge_outage((4, 5), start=500, end=600)
        run2 = Simulator(path10, injector=idle.injector()).run(
            BFS(0, hops=9), seed=0, algorithm_id=0
        )
        assert run2.outputs == reference.outputs

    def test_crash_stop_freezes_node(self, path10):
        # Node 5 crashes before it can ever act: the BFS wave dies there.
        plan = FaultPlan.node_crash(5, round=1)
        run = Simulator(path10, injector=plan.injector()).run(
            BFS(0, hops=9), seed=0, algorithm_id=0
        )
        reference = solo_run(path10, BFS(0, hops=9), seed=0, algorithm_id=0)
        assert run.outputs[4] == reference.outputs[4]
        assert run.outputs[6] != reference.outputs[6]

    def test_duplicates_are_idempotent_for_bfs(self, grid4):
        plan = FaultPlan(seed=2, duplicate=1.0, max_extra_delay=2)
        inj = plan.injector()
        run = Simulator(grid4, injector=inj).run(BFS(0), seed=0, algorithm_id=0)
        reference = solo_run(grid4, BFS(0), seed=0, algorithm_id=0)
        # BFS ignores stale re-deliveries: outputs survive duplication.
        assert run.outputs == reference.outputs
        assert inj.snapshot()["faults.duplicates"] > 0

    def test_round_budget_returns_partial(self, grid4):
        run = Simulator(grid4).run(BFS(0), seed=0, max_rounds=1)
        assert run.truncated
        assert run.completion_round == 1

    def test_default_bound_raise_carries_context(self, grid4):
        never = _NeverHalts()
        with pytest.raises(SimulationLimitExceeded) as exc:
            Simulator(grid4).run(never, seed=0)
        assert exc.value.context["round"] == never.max_rounds(grid4)
        assert exc.value.context["algorithm"] == never.name


class TestPhaseEngine:
    def test_faulted_run_diverges_and_counts(self, grid4):
        work = _workload(grid4)
        plan = FaultPlan.message_drop(0.25, seed=13)
        inj = plan.injector()
        execution = run_delayed_phases(work, [0, 2], injector=inj)
        assert verify_outputs(work, execution.outputs)  # some pair diverged
        assert inj.snapshot()["faults.drops"] > 0

    def test_null_plan_matches_uninjected(self, grid4):
        work = _workload(grid4)
        hollow = SeededInjector(FaultPlan())
        a = run_delayed_phases(work, [0, 2])
        b = run_delayed_phases(work, [0, 2], injector=hollow)
        assert a.outputs == b.outputs
        assert a.num_phases == b.num_phases
        assert a.max_phase_load == b.max_phase_load
        assert a.load_histogram == b.load_histogram

    def test_crash_does_not_hang(self, grid4):
        work = _workload(grid4)
        plan = FaultPlan.node_crash(5, round=1)
        execution = run_delayed_phases(work, [0, 1], injector=plan.injector())
        assert not execution.truncated  # crashed nodes count as halted

    def test_truncate_at_phase_budget(self, grid4):
        work = _workload(grid4)
        execution = run_delayed_phases(work, [0, 2], max_phases=1)
        assert execution.truncated
        assert verify_outputs(work, execution.outputs)

    def test_raise_at_default_phase_cap(self, grid4):
        work = Workload(grid4, [_NeverHalts()])
        with pytest.raises(SimulationLimitExceeded):
            run_delayed_phases(work, [0])

    def test_delayed_messages_arrive_late_but_arrive(self, grid4):
        work = _workload(grid4, k=1)
        plan = FaultPlan(seed=4, delay=1.0, max_extra_delay=1)
        inj = plan.injector()
        execution = run_delayed_phases(work, [0], injector=inj)
        assert inj.snapshot()["faults.delays"] > 0
        # Delayed messages are re-injected later instead of being lost:
        # the run terminates cleanly (delayed queues drain) even though
        # the slowed wavefront no longer matches the solo reference.
        assert not execution.truncated
        assert verify_outputs(work, execution.outputs)


class TestClusterEngine:
    def test_private_scheduler_under_faults(self, grid4):
        from repro.core import PrivateScheduler

        work = _workload(grid4)
        plan = FaultPlan.message_drop(0.1, seed=21)
        scheduler = PrivateScheduler().with_faults(plan)
        # Must complete without tripping the copy-consistency invariant.
        result = scheduler.run(work, seed=2)
        faults = result.report.telemetry["faults"]
        assert any(v > 0 for v in faults.values())
        assert result.report.notes["fault_plan"]["drop"] == 0.1

    def test_private_scheduler_null_faults_identical(self, grid4):
        from repro.core import PrivateScheduler

        work = _workload(grid4)
        plain = PrivateScheduler().run(work, seed=2)
        nulled = PrivateScheduler().with_faults(FaultPlan()).run(work, seed=2)
        assert plain.outputs == nulled.outputs
        assert plain.report.length_rounds == nulled.report.length_rounds
        assert plain.correct and nulled.correct
