"""A budget is the only run control.

A cap the caller passes is a budget: past it the run stops with
``truncated`` set, and the engine's ``<engine>.limit_exceeded`` counter
and ``limit-exceeded`` event fire. Without one the engine's own bound
applies, and passing it raises
:class:`~repro.errors.SimulationLimitExceeded` at exactly that bound.
"""

import pytest

from repro.algorithms import BFS, HopBroadcast
from repro.clustering import build_clustering
from repro.congest.program import Algorithm, NodeProgram
from repro.congest.simulator import Simulator
from repro.core import (
    RoundRobinScheduler,
    Workload,
    execute_with_delays,
    run_cluster_copies,
    run_delayed_phases,
)
from repro.errors import SimulationLimitExceeded
from repro.telemetry import InMemoryRecorder


class _Idle(NodeProgram):
    def on_round(self, ctx, inbox):
        pass


class _NeverHalts(Algorithm):
    def make_program(self, node, ctx):
        return _Idle()

    def max_rounds(self, network):
        return 7


def _simulator(net, algorithms, recorder, cap):
    run = Simulator(net, recorder=recorder).run(algorithms[0], max_rounds=cap)
    return run.truncated


def _phase_engine(net, algorithms, recorder, cap):
    work = Workload(net, algorithms)
    execution = run_delayed_phases(
        work, [0] * len(algorithms), max_phases=cap, recorder=recorder
    )
    return execution.truncated


def _cluster_engine(net, algorithms, recorder, cap):
    work = Workload(net, algorithms)
    clustering = build_clustering(net, 12, 2, seed=1)
    execution = run_cluster_copies(
        work, clustering, lambda layer, center, aid: aid,
        max_big_rounds=cap, recorder=recorder,
    )
    return execution.truncated


def _scheduler(net, algorithms, recorder, cap):
    scheduler = RoundRobinScheduler().with_recorder(recorder)
    k = len(algorithms)
    _, report = execute_with_delays(
        scheduler.with_round_budget(cap), Workload(net, algorithms), [0] * k, k
    )
    return report.notes.get("truncated", False)


ENTRY_POINTS = {
    "simulator": (_simulator, "sim"),
    "phase-engine": (_phase_engine, "phase"),
    "cluster-engine": (_cluster_engine, "cluster"),
    "execute-with-delays": (_scheduler, "phase"),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_a_passed_cap_truncates_and_is_recorded(grid6, entry):
    run, engine = entry
    recorder = InMemoryRecorder()
    assert run(grid6, [BFS(0), HopBroadcast(35, "x", 6)], recorder, 2)
    assert recorder.snapshot()["counters"][f"{engine}.limit_exceeded"] == 1
    assert [e.name for e in recorder.events].count("limit-exceeded") == 1


# The cluster engine has no raise leg: each copy stops stepping at its
# algorithm's own bound (the copy's ``limit``), so the engine's default
# cap, which lies past every copy's delay plus that bound, is never
# passed; and a never-halting algorithm fails its solo reference run
# before the copies start.
@pytest.mark.parametrize(
    "entry, cap",
    [
        (ENTRY_POINTS["simulator"], 7),
        # delay 0 + max_rounds 7 + 4 phases of slack
        (ENTRY_POINTS["phase-engine"], 11),
        (ENTRY_POINTS["execute-with-delays"], 11),
    ],
    ids=["simulator", "phase-engine", "execute-with-delays"],
)
def test_the_default_cap_raises_at_the_cap(grid6, entry, cap):
    run, engine = entry
    recorder = InMemoryRecorder()
    with pytest.raises(SimulationLimitExceeded) as exc:
        run(grid6, [_NeverHalts()], recorder, None)
    assert exc.value.context["round"] == cap
    assert recorder.snapshot()["counters"][f"{engine}.limit_exceeded"] == 1
