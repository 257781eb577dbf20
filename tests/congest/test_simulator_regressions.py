"""Regression tests for two historically-buggy simulator semantics.

1. :func:`repro.congest.solo_run` used to silently drop its truncation
   mode and ``injector`` arguments, so callers asking for truncation or
   fault injection through the convenience wrapper got default
   behaviour. Truncation is now the round budget itself: a passed
   ``max_rounds``.
2. The engine's halt check used to declare completion while
   fault-*delayed* deliveries were still in flight, leaving
   ``completion_round`` earlier than the last delivery the execution
   owed.
"""

import pytest

from repro.algorithms import BFS, HopBroadcast, PathToken
from repro.congest import Simulator, solo_run, topology
from repro.congest.program import Algorithm, NodeProgram
from repro.errors import SimulationLimitExceeded
from repro.faults import FaultPlan


class _NeverHalts(NodeProgram):
    def on_round(self, ctx, inbox):
        pass


class _NeverHaltsAlgorithm(Algorithm):
    def make_program(self, node, ctx):
        return _NeverHalts()

    def max_rounds(self, network):
        return 8


class TestSoloRunForwardsEverything:
    """The wrapper must behave exactly like Simulator(...).run(...)."""

    def test_round_budget_is_forwarded(self):
        net = topology.path_graph(4)
        # pre-fix this raised: the wrapper ignored the truncation request
        run = solo_run(net, _NeverHaltsAlgorithm(), max_rounds=5)
        assert run.truncated
        assert run.completion_round == 5

    def test_default_bound_still_raises(self):
        net = topology.path_graph(4)
        with pytest.raises(SimulationLimitExceeded):
            solo_run(net, _NeverHaltsAlgorithm())

    def test_injector_is_forwarded(self):
        net = topology.grid_graph(4, 4)
        plan = FaultPlan.message_drop(1.0, seed=3)  # drop everything
        injector = plan.injector()
        clean = solo_run(net, HopBroadcast(0, "tok", 4))
        faulted = solo_run(
            net, HopBroadcast(0, "tok", 4), injector=injector
        )
        # with every message dropped, only the source hears the token
        assert faulted.outputs != clean.outputs
        assert injector.snapshot()["faults.drops"] > 0

    def test_wrapper_matches_long_form(self):
        net = topology.grid_graph(4, 4)
        plan = FaultPlan(drop=0.3, seed=11)
        via_wrapper = solo_run(
            net, BFS(0, hops=3), seed=5, injector=plan.injector()
        )
        sim = Simulator(net, injector=plan.injector())
        via_simulator = sim.run(BFS(0, hops=3), seed=5)
        assert via_wrapper.outputs == via_simulator.outputs
        assert via_wrapper.rounds == via_simulator.rounds
        assert via_wrapper.completion_round == via_simulator.completion_round


class TestDelayedDeliveryAccounting:
    """Completion must wait for in-flight fault-delayed messages."""

    def _delayed_run(self, max_extra_delay):
        # PathToken on a 2-path: node 0 sends in round 1 and both nodes
        # halt at round 1 regardless of delivery — so a delay fault
        # pushes the only message past the last active round.
        net = topology.path_graph(2)
        plan = FaultPlan(delay=1.0, max_extra_delay=max_extra_delay, seed=2)
        return solo_run(
            net, PathToken([0, 1], token="tok"), injector=plan.injector()
        )

    def test_completion_covers_delayed_delivery(self):
        run = self._delayed_run(max_extra_delay=1)
        # message sent in round 1, delayed by exactly 1 -> due round 2;
        # pre-fix completion_round was 1 with the delivery still in flight
        assert run.completion_round == 2
        assert run.completion_round >= run.rounds

    def test_longer_delays_extend_completion(self):
        plan_rounds = [
            self._delayed_run(max_extra_delay=d).completion_round
            for d in (1, 4)
        ]
        assert plan_rounds[1] >= plan_rounds[0]

    def test_no_faults_unchanged(self):
        net = topology.path_graph(2)
        run = solo_run(net, PathToken([0, 1], token="tok"))
        assert run.completion_round == 1
        assert run.rounds == 1
        assert run.outputs[1] == "tok"

    def test_delayed_delivery_to_live_host_still_arrives(self):
        # BFS keeps listening past round 1, so a short delay must not
        # change the outputs — deliveries land, just later.
        net = topology.path_graph(3)
        plan = FaultPlan(delay=1.0, max_extra_delay=1, seed=6)
        clean = solo_run(net, BFS(0, hops=4))
        delayed = solo_run(net, BFS(0, hops=4), injector=plan.injector())
        assert delayed.outputs == clean.outputs
        assert delayed.completion_round >= clean.completion_round
