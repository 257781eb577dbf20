"""No engine materialises a random tape a program never reads.

The cluster engine runs ``k·n·Θ(log n)`` host slots (one copy of every
algorithm in every cluster of every layer, Lemma 4.4) and the other
engines ``k·n``; a deterministic workload must not pay a seed derivation
and a Mersenne-Twister state for each.
"""

import pytest

from repro.algorithms import BFS, SUM, Aggregation, HopBroadcast, LubyMIS
from repro.congest import Simulator, topology
from repro.congest.program import HostGroup
from repro.core import (
    EagerScheduler,
    PrivateScheduler,
    RandomDelayScheduler,
    Workload,
)
from repro.derandomize import run_with_private_randomness


@pytest.fixture()
def groups(monkeypatch, object_path):
    """Every :class:`HostGroup` the code under test builds (BFS and
    broadcast included: a wave group has no tapes to check)."""
    built = []
    init = HostGroup.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(HostGroup, "__init__", recording_init)
    return built


def _materialised(groups):
    return [
        (group.algorithm.name, host.node)
        for group in groups
        for host in group._hosts or ()
        if host.ctx is not None and host.ctx._rng is not None
    ]


def _deterministic(net):
    values = {v: v for v in net.nodes}
    return [
        BFS(0, hops=4),
        HopBroadcast(net.num_nodes - 1, 42, 4),
        Aggregation(0, values, net.diameter(), SUM),
    ]


ENGINES = {
    "simulator": lambda w: [Simulator(w.network).run(a) for a in w.algorithms],
    "phase": lambda w: RandomDelayScheduler().run(w, seed=3),
    "cluster": lambda w: PrivateScheduler().run(w, seed=3),
    "eager": lambda w: EagerScheduler().run(w, seed=3),
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_deterministic_workload_builds_no_tape(grid4, groups, engine):
    workload = Workload(grid4, _deterministic(grid4), solo_cache=None)
    ENGINES[engine](workload)
    assert sum(len(group._hosts or ()) for group in groups) >= grid4.num_nodes
    assert _materialised(groups) == []


def test_derandomize_harness_builds_no_tape(grid4, groups):
    run_with_private_randomness(grid4, lambda seed: BFS(0, hops=2), locality=2)
    assert groups and _materialised(groups) == []


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_randomized_workload_does_build_tapes(grid4, groups, engine):
    # positive control: the probe sees a tape when one is read
    workload = Workload(grid4, [LubyMIS(grid4.num_nodes)], solo_cache=None)
    ENGINES[engine](workload)
    assert _materialised(groups)
