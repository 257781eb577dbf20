"""Tests for the topology generators."""

import pytest

from repro.congest import topology
from repro.errors import NetworkError


class TestDeterministicTopologies:
    def test_path(self):
        net = topology.path_graph(5)
        assert net.num_edges == 4
        assert net.diameter() == 4

    def test_cycle(self):
        net = topology.cycle_graph(8)
        assert net.num_edges == 8
        assert net.diameter() == 4

    def test_cycle_too_small(self):
        with pytest.raises(NetworkError):
            topology.cycle_graph(2)

    def test_grid_dimensions(self):
        net = topology.grid_graph(3, 5)
        assert net.num_nodes == 15
        assert net.num_edges == 3 * 4 + 2 * 5
        assert net.diameter() == (3 - 1) + (5 - 1)

    def test_complete(self):
        net = topology.complete_graph(6)
        assert net.num_edges == 15
        assert net.diameter() == 1

    def test_star(self):
        net = topology.star_graph(9)
        assert net.degree(0) == 8
        assert net.diameter() == 2

    def test_binary_tree(self):
        net = topology.binary_tree(3)
        assert net.num_nodes == 15
        assert net.num_edges == 14
        assert net.degree(0) == 2

    def test_binary_tree_depth_zero(self):
        net = topology.binary_tree(0)
        assert net.num_nodes == 1

    def test_hypercube(self):
        net = topology.hypercube(4)
        assert net.num_nodes == 16
        assert all(net.degree(v) == 4 for v in net.nodes)
        assert net.diameter() == 4


class TestRandomTopologies:
    def test_random_regular_degree(self):
        net = topology.random_regular(20, 3, seed=1)
        assert all(net.degree(v) == 3 for v in net.nodes)

    def test_random_regular_deterministic(self):
        a = topology.random_regular(20, 3, seed=1)
        b = topology.random_regular(20, 3, seed=1)
        assert a == b

    def test_random_regular_degree_too_small(self):
        with pytest.raises(NetworkError):
            topology.random_regular(20, 2, seed=1)

    def test_random_regular_odd_stub_count(self):
        with pytest.raises(NetworkError, match="even"):
            topology.random_regular(7, 3, seed=1)

    def test_gnp_connected(self):
        net = topology.gnp_connected(30, 0.15, seed=3)
        assert net.num_nodes == 30

    def test_gnp_invalid_probability(self):
        with pytest.raises(NetworkError):
            topology.gnp_connected(10, 0.0)

    def test_gnp_node_count(self):
        with pytest.raises(NetworkError):
            topology.gnp_connected(0, 0.5)
        assert topology.gnp_connected(1, 0.5).num_nodes == 1


class TestLayeredGraph:
    def test_structure(self):
        L, width = 4, 5
        net = topology.layered_graph(L, width)
        assert net.num_nodes == (L + 1) + L * width
        assert net.num_edges == 2 * L * width
        # spine nodes connect only through layer sets
        assert net.distance(0, L) == 2 * L

    def test_layer_nodes(self):
        nodes = topology.layered_layer_nodes(4, 5, 2)
        assert len(nodes) == 5
        assert nodes[0] == 5 + 5

    def test_layer_nodes_out_of_range(self):
        with pytest.raises(ValueError):
            topology.layered_layer_nodes(4, 5, 5)

    def test_layer_adjacency(self):
        net = topology.layered_graph(3, 4)
        for u in topology.layered_layer_nodes(3, 4, 2):
            assert net.has_edge(1, u)
            assert net.has_edge(u, 2)


class TestTorusAndLollipop:
    def test_torus_regular(self):
        net = topology.torus_graph(4, 5)
        assert net.num_nodes == 20
        assert all(net.degree(v) == 4 for v in net.nodes)
        assert net.diameter() == 2 + 2

    def test_torus_too_small(self):
        with pytest.raises(NetworkError):
            topology.torus_graph(2, 5)

    def test_lollipop_shape(self):
        net = topology.lollipop_graph(5, 4)
        assert net.num_nodes == 9
        assert net.degree(0) == 4          # clique interior
        assert net.degree(4) == 5          # bridge node
        assert net.degree(8) == 1          # path tail

    def test_lollipop_hotspot(self):
        """Packets from the clique to the tail all funnel through the
        bridge: a maximally skewed congestion profile."""
        from repro.algorithms import PathToken, shortest_path
        from repro.congest import solo_run
        from repro.metrics import profile_patterns

        net = topology.lollipop_graph(6, 6)
        tail = net.num_nodes - 1
        packets = [
            PathToken(shortest_path(net, src, tail), token=src)
            for src in (0, 1, 2, 3)
        ]
        runs = [solo_run(net, p, algorithm_id=i) for i, p in enumerate(packets)]
        profile = profile_patterns(net, [r.pattern for r in runs])
        assert profile.gini > 0.4
        hottest_edge, load = profile.hottest_edges(1)[0]
        assert load == 4
        assert 5 in hottest_edge  # the bridge node

    def test_lollipop_invalid(self):
        with pytest.raises(NetworkError):
            topology.lollipop_graph(2, 3)
        with pytest.raises(NetworkError):
            topology.lollipop_graph(4, 0)
