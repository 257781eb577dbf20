"""Tests for broadcast and BFS algorithms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import BFS, Flooding, HopBroadcast
from repro.congest import solo_run, topology
from repro.core import PrivateScheduler, RandomDelayScheduler, Workload
from repro.telemetry import InMemoryRecorder


class TestHopBroadcast:
    def test_outputs_match_expected(self, grid6):
        alg = HopBroadcast(source=7, token="tok", hops=4)
        run = solo_run(grid6, alg)
        assert run.outputs == alg.expected_outputs(grid6)

    def test_zero_hops(self, grid4):
        alg = HopBroadcast(source=0, token="x", hops=0)
        run = solo_run(grid4, alg)
        assert run.outputs[0] == "x"
        assert all(run.outputs[v] is None for v in grid4.nodes if v != 0)
        assert run.rounds == 0

    def test_negative_hops_rejected(self):
        with pytest.raises(ValueError):
            HopBroadcast(0, "x", -1)

    def test_congestion_at_most_two(self, grid6):
        run = solo_run(grid6, HopBroadcast(0, "x", hops=10))
        assert run.trace.max_edge_rounds() <= 2

    def test_rounds_equal_min_hops_ecc(self, path10):
        assert solo_run(path10, HopBroadcast(0, "x", hops=3)).rounds == 3
        assert solo_run(path10, HopBroadcast(0, "x", hops=99)).rounds == 9

    def test_flooding_reaches_all(self, expander):
        run = solo_run(expander, Flooding(5, "f"))
        assert all(v == "f" for v in run.outputs.values())


class TestBFS:
    def test_distances_full(self, grid6):
        alg = BFS(source=0)
        run = solo_run(grid6, alg)
        expected = grid6.bfs_distances(0)
        for v in grid6.nodes:
            dist, parent = run.outputs[v]
            assert dist == expected[v]

    def test_parents_valid(self, grid6):
        run = solo_run(grid6, BFS(source=14))
        dist = grid6.bfs_distances(14)
        for v in grid6.nodes:
            d, parent = run.outputs[v]
            if v == 14:
                assert parent == 14
            else:
                assert grid6.has_edge(v, parent)
                assert dist[parent] == d - 1

    def test_hop_limited(self, path10):
        run = solo_run(path10, BFS(source=0, hops=3))
        for v in path10.nodes:
            if v <= 3:
                assert run.outputs[v][0] == v
            else:
                assert run.outputs[v] is None

    def test_congestion_at_most_two(self, expander):
        run = solo_run(expander, BFS(source=0))
        assert run.trace.max_edge_rounds() <= 2

    def test_pattern_unknowable_in_advance(self, grid4):
        """Different sources give different patterns (the paper's point
        that patterns carry information)."""
        a = solo_run(grid4, BFS(source=0)).pattern
        b = solo_run(grid4, BFS(source=15)).pattern
        assert a != b


@settings(max_examples=20, deadline=None)
@given(
    source=st.integers(0, 35),
    hops=st.integers(0, 12),
)
def test_broadcast_matches_ball(source, hops):
    net = topology.grid_graph(6, 6)
    run = solo_run(net, HopBroadcast(source, "t", hops))
    reached = {v for v, out in run.outputs.items() if out == "t"}
    assert reached == net.ball(source, hops)


@settings(max_examples=20, deadline=None)
@given(source=st.integers(0, 23), seed=st.integers(0, 5))
def test_bfs_distance_property(source, seed):
    net = topology.random_regular(24, 3, seed=seed)
    run = solo_run(net, BFS(source))
    truth = net.bfs_distances(source)
    assert {v: out[0] for v, out in run.outputs.items()} == truth


@pytest.mark.parametrize(
    "network",
    [
        topology.torus_graph(6, 7),
        topology.grid_graph(5, 6),
        topology.path_graph(11),
        topology.binary_tree(4),
    ],
    ids=("torus", "grid", "path", "tree"),
)
@pytest.mark.parametrize("hops", [0, 1, 3, 64])
def test_waves_meet_the_ground_truth(network, hops):
    # As shipped, these run on wave groups (sim.wave_groups); solo and
    # scheduled, every output is the graph's own answer.
    source = network.num_nodes // 3
    algorithms = [BFS(source, hops), HopBroadcast(source, "t", hops), Flooding(source, "f")]
    for algorithm in algorithms:
        recorder = InMemoryRecorder()
        run = solo_run(network, algorithm, recorder=recorder)
        assert recorder.snapshot()["counters"]["sim.wave_groups"] == 1
        expected = algorithm.expected_outputs(network)
        if isinstance(algorithm, BFS):
            assert {v: out and out[0] for v, out in run.outputs.items()} == expected
            for v, out in run.outputs.items():
                if out is not None and v != source:
                    assert network.has_edge(v, out[1]) and expected[out[1]] == out[0] - 1
        else:
            assert run.outputs == expected
    workload = Workload(network, algorithms, solo_cache=None)
    for scheduler in (RandomDelayScheduler(), PrivateScheduler()):
        assert scheduler.run(workload, seed=5).correct
