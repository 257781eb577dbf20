"""Tests for repro.congest.network."""

import sys

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest import Network, topology
from repro.errors import NetworkError


class TestConstruction:
    def test_basic_edges(self):
        net = Network([(0, 1), (1, 2)])
        assert net.num_nodes == 3
        assert net.num_edges == 2

    def test_duplicate_edge_rejected(self):
        with pytest.raises(NetworkError, match=r"duplicate edge \(0, 1\)") as exc:
            Network([(0, 1), (1, 2), (0, 1)])
        assert exc.value.context["edge"] == (0, 1)

    def test_reversed_duplicate_rejected(self):
        # The reversed orientation is the same undirected edge.
        with pytest.raises(NetworkError, match=r"duplicate edge \(0, 1\)"):
            Network([(0, 1), (1, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(NetworkError) as exc:
            Network([(0, 0)])
        assert exc.value.context["node"] == 0

    def test_negative_node_rejected(self):
        with pytest.raises(NetworkError):
            Network([(-1, 0)])

    def test_disconnected_rejected(self):
        with pytest.raises(NetworkError):
            Network([(0, 1), (2, 3)])

    def test_isolated_node_rejected(self):
        with pytest.raises(NetworkError):
            Network([(0, 1)], num_nodes=3)

    def test_node_exceeds_count(self):
        with pytest.raises(NetworkError):
            Network([(0, 5)], num_nodes=3)

    def test_single_node(self):
        net = Network([], num_nodes=1)
        assert net.num_nodes == 1
        assert net.diameter() == 0


class TestQueries:
    def test_neighbors_sorted(self):
        net = Network([(2, 0), (0, 1)])
        assert net.neighbors(0) == (1, 2)

    def test_degree(self, grid4):
        corners = [0, 3, 12, 15]
        for c in corners:
            assert grid4.degree(c) == 2
        assert grid4.degree(5) == 4

    def test_max_degree(self, star8):
        assert star8.max_degree() == 7

    def test_has_edge_symmetric(self):
        net = Network([(0, 1)])
        assert net.has_edge(0, 1) and net.has_edge(1, 0)
        assert not net.has_edge(0, 0) if True else None

    def test_canonical_edge(self):
        assert Network.canonical_edge(5, 2) == (2, 5)
        assert Network.canonical_edge(2, 5) == (2, 5)

    def test_edge_id_dense(self, grid4):
        ids = {grid4.edge_id(u, v) for u, v in grid4.edges}
        assert ids == set(range(grid4.num_edges))


class TestDistances:
    def test_bfs_distances_path(self, path10):
        dist = path10.bfs_distances(0)
        assert dist == {i: i for i in range(10)}

    def test_bfs_cutoff(self, path10):
        dist = path10.bfs_distances(0, cutoff=3)
        assert set(dist) == {0, 1, 2, 3}

    def test_ball(self, grid4):
        assert grid4.ball(0, 0) == {0}
        assert grid4.ball(0, 1) == {0, 1, 4}

    def test_ball_negative_radius(self, grid4):
        assert grid4.ball(0, -1) == set()

    def test_distance(self, grid4):
        assert grid4.distance(0, 15) == 6

    def test_diameter_matches_networkx(self, grid6, cycle12, expander):
        for net in (grid6, cycle12, expander):
            assert net.diameter() == nx.diameter(net.to_networkx())

    def test_eccentricity(self, path10):
        assert path10.eccentricity(0) == 9
        assert path10.eccentricity(5) == 5

    def test_weak_diameter_subset(self, cycle12):
        # Two antipodal nodes: weak diameter measured through the graph.
        assert cycle12.weak_diameter([0, 6]) == 6
        assert cycle12.weak_diameter([0]) == 0
        assert cycle12.weak_diameter([]) == 0


class TestInterop:
    def test_roundtrip_networkx(self, grid4):
        again = Network.from_networkx(grid4.to_networkx())
        assert again == grid4
        assert hash(again) == hash(grid4)

    def test_equality_differs(self, grid4, path10):
        assert grid4 != path10

    def test_without_networkx_the_exports_name_the_extra(self, grid4, monkeypatch):
        from repro.congest.pattern import time_expanded_graph

        monkeypatch.setitem(sys.modules, "networkx", None)
        with pytest.raises(ImportError, match=r"repro\[interop\]"):
            grid4.to_networkx()
        with pytest.raises(ImportError, match=r"repro\[interop\]"):
            time_expanded_graph(grid4, 2)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=2, max_value=40), seed=st.integers(0, 100))
def test_gnp_samples_are_valid_networks(n, seed):
    net = topology.gnp_connected(n, 0.5, seed=seed)
    assert net.num_nodes == n
    # connectivity is enforced by construction
    assert len(net.bfs_distances(0)) == n


class TestValidationProperties:
    """Property tests: malformed edge lists always raise NetworkError."""

    @settings(max_examples=40, deadline=None)
    @given(left=st.integers(2, 12), right=st.integers(2, 12))
    def test_disconnected_components_rejected(self, left, right):
        edges = [(i, i + 1) for i in range(left - 1)]
        edges += [(left + i, left + i + 1) for i in range(right - 1)]
        with pytest.raises(NetworkError, match="disconnected"):
            Network(edges)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(3, 25),
        seed=st.integers(0, 100),
        pick=st.integers(0, 10_000),
        flip=st.booleans(),
        data=st.data(),
    )
    def test_duplicate_edge_rejected_and_named(self, n, seed, pick, flip, data):
        net = topology.gnp_connected(n, 0.4, seed=seed)
        edges = list(net.edges)
        u, v = edges[pick % len(edges)]
        duplicate = (v, u) if flip else (u, v)
        where = data.draw(st.integers(0, len(edges)))
        edges.insert(where, duplicate)
        with pytest.raises(NetworkError) as exc:
            Network(edges, num_nodes=n)
        assert "duplicate edge" in str(exc.value)
        assert exc.value.context["edge"] == (u, v)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 25), seed=st.integers(0, 100), loop=st.integers(0, 24))
    def test_self_loop_rejected_and_named(self, n, seed, loop):
        net = topology.gnp_connected(n, 0.4, seed=seed)
        node = loop % n
        edges = list(net.edges) + [(node, node)]
        with pytest.raises(NetworkError) as exc:
            Network(edges, num_nodes=n)
        assert exc.value.context["node"] == node


class TestJsonSerialization:
    def test_roundtrip(self, grid4):
        from repro.congest import Network

        again = Network.from_json(grid4.to_json())
        assert again == grid4

    def test_roundtrip_preserves_queries(self, expander):
        from repro.congest import Network

        again = Network.from_json(expander.to_json())
        assert again.diameter() == expander.diameter()
        assert again.neighbors(5) == expander.neighbors(5)
