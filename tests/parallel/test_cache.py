"""Tests for the content-addressed solo-run cache."""

import pickle

import pytest

from repro.algorithms import BFS, HopBroadcast
from repro.congest import solo_run, topology
from repro.core import Workload
from repro.experiments import mixed_workload
from repro.parallel import (
    SoloRunCache,
    algorithm_fingerprint,
    default_cache,
    network_fingerprint,
    reset_default_cache,
    set_default_cache,
)
from repro.telemetry import InMemoryRecorder


@pytest.fixture
def net():
    return topology.grid_graph(5, 5)


def _runs_equal(a, b):
    return (
        a.outputs == b.outputs
        and a.rounds == b.rounds
        and a.completion_round == b.completion_round
        and a.max_message_bits == b.max_message_bits
        and list(a.trace.events()) == list(b.trace.events())
    )


class TestFingerprints:
    def test_network_fingerprint_stable_across_instances(self):
        a = topology.grid_graph(4, 4)
        b = topology.grid_graph(4, 4)
        assert network_fingerprint(a) == network_fingerprint(b)
        assert network_fingerprint(a) != network_fingerprint(topology.grid_graph(4, 5))

    def test_algorithm_fingerprint_tracks_state(self):
        assert algorithm_fingerprint(BFS(0, hops=3)) == algorithm_fingerprint(
            BFS(0, hops=3)
        )
        assert algorithm_fingerprint(BFS(0, hops=3)) != algorithm_fingerprint(
            BFS(1, hops=3)
        )
        assert algorithm_fingerprint(BFS(0, hops=3)) != algorithm_fingerprint(
            HopBroadcast(0, "t", 3)
        )

    def test_unfingerprintable_algorithm_returns_none(self):
        algo = BFS(0, hops=2)
        algo.weird = lambda: None  # lambdas have no stable identity
        assert algorithm_fingerprint(algo) is None

    def test_fixed_pattern_fingerprint_is_address_free(self, net):
        from repro.algorithms import FixedPattern, random_pattern

        pattern = random_pattern(net, 4, 6, seed=3)
        a = FixedPattern(pattern, label=("t", 1))
        b = FixedPattern(random_pattern(net, 4, 6, seed=3), label=("t", 1))
        assert algorithm_fingerprint(a) == algorithm_fingerprint(b)


class TestSoloRunCache:
    def test_cold_then_warm_bit_identical(self, net):
        cache = SoloRunCache()
        algo = BFS(3, hops=4)
        cold = cache.get_or_run(net, algo, algorithm_id=0, seed=7)
        warm = cache.get_or_run(net, BFS(3, hops=4), algorithm_id=0, seed=7)
        fresh = solo_run(net, BFS(3, hops=4), seed=7, algorithm_id=0)
        assert warm is cold
        assert _runs_equal(cold, fresh)
        assert cache.hits == 1 and cache.misses == 1

    def test_key_covers_seed_and_aid(self, net):
        cache = SoloRunCache()
        cache.get_or_run(net, BFS(0, hops=3), algorithm_id=0, seed=0)
        cache.get_or_run(net, BFS(0, hops=3), algorithm_id=1, seed=0)
        cache.get_or_run(net, BFS(0, hops=3), algorithm_id=0, seed=1)
        assert cache.misses == 3 and cache.hits == 0

    def test_uncacheable_algorithm_still_runs(self, net):
        cache = SoloRunCache()
        algo = BFS(0, hops=3)
        algo.weird = lambda: None
        run = cache.get_or_run(net, algo, algorithm_id=0, seed=0)
        assert run.outputs
        assert len(cache) == 0 and cache.misses == 1

    def test_memory_tier_eviction(self, net):
        cache = SoloRunCache(max_memory_entries=2)
        for aid in range(4):
            cache.get_or_run(net, BFS(0, hops=2), algorithm_id=aid, seed=0)
        assert len(cache) == 2

    def test_telemetry_counters(self, net):
        recorder = InMemoryRecorder()
        cache = SoloRunCache(recorder=recorder)
        cache.get_or_run(net, BFS(0, hops=2), seed=0)
        cache.get_or_run(net, BFS(0, hops=2), seed=0)
        snap = recorder.snapshot()
        assert snap["counters"]["cache.miss"] == 1
        assert snap["counters"]["cache.hit"] == 1

    def test_clear(self, net):
        cache = SoloRunCache()
        cache.get_or_run(net, BFS(0, hops=2), seed=0)
        cache.clear()
        assert len(cache) == 0 and cache.misses == 0


class TestWorkloadIntegration:
    def test_workloads_share_solo_runs_through_cache(self, net):
        cache = SoloRunCache()
        w1 = mixed_workload(net, 4, seed=2)
        w1.solo_cache = cache
        w2 = mixed_workload(net, 4, seed=2)
        w2.solo_cache = cache
        assert w1.params() == w2.params()
        assert w1.reference_outputs() == w2.reference_outputs()
        assert cache.hits == 4 and cache.misses == 4

    def test_cache_off_matches_cache_on(self, net):
        cached = mixed_workload(net, 3, seed=5)
        cached.solo_cache = SoloRunCache()
        raw = mixed_workload(net, 3, seed=5)
        raw.solo_cache = None
        assert cached.reference_outputs() == raw.reference_outputs()
        assert cached.params() == raw.params()
        assert all(
            _runs_equal(a, b) for a, b in zip(cached.solo_runs(), raw.solo_runs())
        )

    def test_pickled_workload_drops_cache_but_keeps_runs(self, net):
        work = Workload(net, [BFS(0, hops=3)], solo_cache=SoloRunCache())
        work.solo_runs()
        clone = pickle.loads(pickle.dumps(work))
        assert clone.solo_cache == "default"
        assert clone._solo_runs is not None
        assert clone.reference_outputs() == work.reference_outputs()


class TestDefaultCache:
    def test_env_disable(self, monkeypatch):
        reset_default_cache()
        monkeypatch.setenv("REPRO_SOLO_CACHE", "0")
        assert default_cache() is None
        monkeypatch.setenv("REPRO_SOLO_CACHE", "1")
        assert default_cache() is not None
        reset_default_cache()

    def test_set_default_cache_override(self, net):
        mine = SoloRunCache()
        previous = set_default_cache(mine)
        try:
            work = Workload(net, [BFS(0, hops=2)])
            work.solo_runs()
            assert mine.misses == 1
        finally:
            set_default_cache(previous)
            reset_default_cache()
