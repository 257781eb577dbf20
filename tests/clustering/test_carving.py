"""Tests for centralized ball carving (Lemma 4.2 reference)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import carve_layer, draw_radii_and_labels
from repro.congest import topology


class TestCarveLayer:
    def _layer(self, net, radii=None, labels=None):
        if radii is None:
            radii, labels = draw_radii_and_labels(net, 3, seed=0, layer=0)
        return carve_layer(net, radii, labels)

    def test_partition(self, grid6):
        layer = self._layer(grid6)
        assert len(layer.center) == grid6.num_nodes
        members = [v for cluster in layer.clusters().values() for v in cluster]
        assert sorted(members) == list(grid6.nodes)

    def test_smallest_covering_label_wins(self, grid4):
        """Node assignment follows the paper's rule exactly."""
        radii, labels = draw_radii_and_labels(grid4, 2, seed=3, layer=1)
        layer = carve_layer(grid4, radii, labels)
        for v in grid4.nodes:
            covering = [
                u for u in grid4.nodes if grid4.distance(u, v) <= radii[u]
            ]
            winner = min(covering, key=lambda u: labels[u])
            assert layer.center[v] == winner

    def test_everyone_covered_by_self(self, grid4):
        # zero radii: every node is its own cluster
        labels = list(range(grid4.num_nodes))
        layer = carve_layer(grid4, [0] * grid4.num_nodes, labels)
        assert layer.center == list(grid4.nodes)
        assert all(h == 0 for h in layer.h_prime)

    def test_single_giant_cluster(self, grid4):
        from repro.clustering.carving import INFINITE_RADIUS

        radii = [grid4.diameter()] + [0] * (grid4.num_nodes - 1)
        labels = list(range(grid4.num_nodes))
        layer = carve_layer(grid4, radii, labels)
        assert set(layer.center) == {0}
        # no boundary: contained radius is unbounded
        assert all(h == INFINITE_RADIUS for h in layer.h_prime)
        assert layer.covers(5, 10**6)

    def test_h_prime_is_distance_to_other_cluster_minus_one(self, grid6):
        layer = self._layer(grid6)
        for v in grid6.nodes:
            dist = grid6.bfs_distances(v)
            other = [
                dist[u]
                for u in grid6.nodes
                if layer.center[u] != layer.center[v]
            ]
            if other:
                assert layer.h_prime[v] == min(other) - 1

    def test_h_prime_ball_containment(self, grid6):
        layer = self._layer(grid6)
        for v in grid6.nodes:
            h = layer.h_prime[v]
            ball = grid6.ball(v, h)
            assert all(layer.center[u] == layer.center[v] for u in ball)
            assert layer.covers(v, h) and not layer.covers(v, h + 1)

    def test_duplicate_labels_rejected(self, grid4):
        with pytest.raises(ValueError):
            carve_layer(grid4, [1] * 16, [5] * 16)

    def test_wrong_lengths_rejected(self, grid4):
        with pytest.raises(ValueError):
            carve_layer(grid4, [1], [1])

    def test_weak_diameter_bounded_by_twice_max_radius(self, grid6):
        radii, labels = draw_radii_and_labels(grid6, 2, seed=5, layer=0)
        layer = carve_layer(grid6, radii, labels)
        assert layer.max_weak_diameter(grid6) <= 2 * max(radii)

    def test_same_cluster(self, grid4):
        layer = self._layer(grid4)
        for u, v in grid4.edges:
            assert layer.same_cluster(u, v) == (layer.center[u] == layer.center[v])


class TestDraws:
    def test_deterministic(self, grid4):
        a = draw_radii_and_labels(grid4, 3, seed=1, layer=2)
        b = draw_radii_and_labels(grid4, 3, seed=1, layer=2)
        assert a == b

    def test_layers_differ(self, grid4):
        a = draw_radii_and_labels(grid4, 3, seed=1, layer=0)
        b = draw_radii_and_labels(grid4, 3, seed=1, layer=1)
        assert a != b

    def test_labels_unique(self, grid6):
        _, labels = draw_radii_and_labels(grid6, 3, seed=7, layer=0)
        assert len(set(labels)) == grid6.num_nodes

    def test_radii_within_horizon(self, grid6):
        from repro.clustering import carving_horizon

        radii, _ = draw_radii_and_labels(grid6, 4, seed=2, layer=0)
        assert all(0 <= r <= carving_horizon(4, grid6.num_nodes) for r in radii)

    def test_one_generator_per_clustering_and_no_entropy_seeding(
        self, grid6, monkeypatch
    ):
        """``build_clustering`` builds one generator, seeded, and reseeds it
        per node; each layer still draws what every node's own
        ``random.Random(derive_seed(seed, "carve", layer, node))`` draws."""
        from repro._util import stable_hasher
        from repro.clustering import build_clustering, extend_clustering
        from repro.clustering.carving import carve_draw
        from repro.randomness.distributions import TruncatedExponential

        seeds = []

        class Counted(random.Random):
            def __init__(self, *args):
                seeds.append(args)
                super().__init__(*args)

        monkeypatch.setattr(random, "Random", Counted)
        clustering = build_clustering(grid6, 2, num_layers=3, seed=5)
        clustering = extend_clustering(clustering, 2)
        monkeypatch.undo()
        assert seeds == [(0,), (0,)]
        distribution = TruncatedExponential.for_ball_carving(2, grid6.num_nodes)
        for index, layer in enumerate(clustering.layers):
            prefix = stable_hasher(5, "carve", index)
            own = [carve_draw(prefix, u, distribution, 64) for u in grid6.nodes]
            assert list(zip(layer.radii, layer.labels)) == own


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 100), layer=st.integers(0, 5))
def test_carving_is_partition_property(seed, layer):
    net = topology.random_regular(20, 3, seed=1)
    radii, labels = draw_radii_and_labels(net, 2, seed=seed, layer=layer)
    result = carve_layer(net, radii, labels)
    clusters = result.clusters()
    seen = set()
    for members in clusters.values():
        assert not (set(members) & seen)
        seen.update(members)
    assert seen == set(net.nodes)
