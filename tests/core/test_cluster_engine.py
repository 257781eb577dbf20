"""Tests for the per-cluster copy engine (Lemma 4.4)."""

import pytest

from repro.algorithms import BFS, HopBroadcast
from repro.clustering import build_clustering
from repro.core import (
    Workload,
    run_cluster_copies,
    select_output_layers,
    verify_outputs,
)
from repro.core.cluster_delays import ClusterDelaySampler
from repro.errors import CoverageError
from repro.experiments import mixed_workload
from repro.randomness import BlockDelay, UniformDelay


@pytest.fixture(scope="module")
def setup(grid6):
    work = mixed_workload(grid6, 6, hops=4, seed=21)
    clustering = build_clustering(
        grid6, radius_scale=2 * work.params().dilation, num_layers=16, seed=5
    )
    return work, clustering


class TestOutputSelection:
    def test_selects_covering_layers(self, setup):
        work, clustering = setup
        chosen = select_output_layers(work, clustering)
        dilations = [run.rounds for run in work.solo_runs()]
        for (aid, v), layer_index in chosen.items():
            assert clustering.layers[layer_index].h_prime[v] >= dilations[aid]

    def test_coverage_error_on_thin_clustering(self, grid6):
        work = mixed_workload(grid6, 3, hops=5, seed=2)
        thin = build_clustering(grid6, radius_scale=1, num_layers=1, seed=0)
        with pytest.raises(CoverageError):
            select_output_layers(work, thin)


class TestZeroDelayCorrectness:
    def test_all_copies_zero_delay(self, setup):
        work, clustering = setup
        execution = run_cluster_copies(
            work, clustering, lambda l, c, a: 0, dedup=True
        )
        assert verify_outputs(work, execution.outputs) == []

    def test_without_dedup(self, setup):
        work, clustering = setup
        execution = run_cluster_copies(
            work, clustering, lambda l, c, a: 0, dedup=False
        )
        assert verify_outputs(work, execution.outputs) == []

    def test_dedup_reduces_transmissions(self, setup):
        work, clustering = setup
        with_dedup = run_cluster_copies(work, clustering, lambda l, c, a: 0, dedup=True)
        without = run_cluster_copies(work, clustering, lambda l, c, a: 0, dedup=False)
        assert with_dedup.messages_sent < without.messages_sent
        assert with_dedup.messages_deduplicated > 0
        assert verify_outputs(work, without.outputs) == []


class TestDelayedCopies:
    def _delay_fn(self, clustering, work, distribution):
        sampler = ClusterDelaySampler(
            clustering, work.num_algorithms, distribution
        )
        return sampler.delay

    def test_uniform_cluster_delays_correct(self, setup):
        work, clustering = setup
        delay = self._delay_fn(clustering, work, UniformDelay(6))
        execution = run_cluster_copies(work, clustering, delay, dedup=False)
        assert verify_outputs(work, execution.outputs) == []

    def test_block_delays_with_dedup_correct(self, setup):
        work, clustering = setup
        dist = BlockDelay.for_schedule(
            congestion=work.params().congestion,
            num_nodes=work.network.num_nodes,
            copies=clustering.num_layers,
        )
        delay = self._delay_fn(clustering, work, dist)
        execution = run_cluster_copies(work, clustering, delay, dedup=True)
        assert verify_outputs(work, execution.outputs) == []

    def test_per_cluster_consistency(self, setup):
        """The same (layer, cluster, aid) always maps to the same delay —
        members never disagree."""
        work, clustering = setup
        sampler = ClusterDelaySampler(
            clustering, work.num_algorithms, UniformDelay(10)
        )
        for layer in range(clustering.num_layers):
            for center in clustering.layers[layer].centers:
                a = sampler.delay(layer, center, 0)
                b = sampler.delay(layer, center, 0)
                assert a == b

    def test_delays_vary_across_clusters(self, setup):
        work, clustering = setup
        sampler = ClusterDelaySampler(
            clustering, work.num_algorithms, UniformDelay(50)
        )
        values = set()
        for layer in range(clustering.num_layers):
            for center in clustering.layers[layer].centers:
                values.add(sampler.delay(layer, center, 0))
        assert len(values) > 1


class TestEngineAccounting:
    def test_truncation_counted(self, setup):
        work, clustering = setup
        execution = run_cluster_copies(work, clustering, lambda l, c, a: 0)
        assert execution.messages_truncated >= 0
        assert execution.num_copies == sum(
            len(layer.clusters()) for layer in clustering.layers
        ) * work.num_algorithms

    def test_histogram_consistent(self, setup):
        work, clustering = setup
        execution = run_cluster_copies(work, clustering, lambda l, c, a: 0)
        assert (
            sum(k * v for k, v in execution.load_histogram.items())
            == execution.messages_sent
        )

    def test_big_rounds_cover_delays(self, setup):
        work, clustering = setup
        execution = run_cluster_copies(work, clustering, lambda l, c, a: 5)
        assert execution.num_big_rounds >= 5

    def test_truncated_run_reports_the_big_rounds_it_walked(self, grid6):
        # Cut at cap C, the run walked big-rounds 0..C: C + 1 of them, as
        # the phase engine reports. Sends emitted in round C never
        # traverse, so they occupy no further big-round.
        work = Workload(grid6, [BFS(0), BFS(35), HopBroadcast(5, "x", 4)])
        clustering = build_clustering(grid6, 12, 3, seed=1)
        for cap in (0, 2, 5):
            execution = run_cluster_copies(
                work, clustering, lambda l, c, a: a,
                max_big_rounds=cap,
            )
            assert execution.truncated
            assert execution.num_big_rounds == cap + 1
