"""Shards: routing, bit-identity, backpressure, stats, recovery.

A service holding N networks is N one-network services side by side:
same submissions in, byte-identical terminal states, outputs, and
registry contents out. These tests pin that contract:

* routing — jobs land in per-network shards keyed by the network
  fingerprint (``==``-equal rebuilt networks share a shard);
* bit-identity — one wave drain of a multi-network workload settles
  every job exactly like one service per network draining its share,
  with zero duplicate executions (registry stores are counted);
* backpressure — ``max_shard_depth`` parks/sheds on the hot shard
  only, and ``release_parked(cause="depth")`` frees exactly the
  backpressure-parked jobs;
* cross-shard stats — the merged stats, recorder metrics and latency
  sketches equal those of the one-network services, under the
  documented merge rules (counters add, gauges element-wise max,
  histogram buckets add);
* crash recovery — recovering twice converges, and a top-level journal
  is refused (the crash matrix over one and two networks lives in
  ``test_recovery.py``).
"""

import re

import pytest

from repro.algorithms import BFS, HopBroadcast
from repro.congest import solo_run, topology
from repro.faults import InjectedCrash, armed, disarm
from repro.parallel import SoloRunCache
from repro.service import (
    AdmissionPolicy,
    JobJournal,
    JobState,
    LatencyAccumulator,
    SchedulerService,
    latency_stats,
    shard_key,
)
from repro.telemetry import InMemoryRecorder
from repro.telemetry.metrics import MetricsRegistry


@pytest.fixture(autouse=True)
def _disarmed():
    disarm()
    yield
    disarm()


def _networks(count=4):
    return [topology.cycle_graph(5 + n) for n in range(count)]


def _algorithms(network, count=3):
    nodes = list(network.nodes)
    out = []
    for i in range(count):
        if i % 2:
            out.append(HopBroadcast(nodes[(3 * i) % len(nodes)], 900 + i, 3))
        else:
            out.append(BFS(nodes[i % len(nodes)], hops=3))
    return out


def _submit_all(service, networks):
    jobs = []
    for network in networks:
        for algorithm in _algorithms(network):
            jobs.append(service.submit(network, algorithm))
    return jobs


def _per_network(networks, recorded=False, **kwargs):
    """One drained one-network service per network, in network order
    (each with a recorder of its own when ``recorded``)."""
    services = []
    for network in networks:
        if recorded:
            kwargs["recorder"] = InMemoryRecorder()
        service = SchedulerService(solo_cache=SoloRunCache(), **kwargs)
        _submit_all(service, [network])
        service.drain()
        services.append(service)
    return services


def _terminal_snapshot(service):
    snap = {}
    for job in service.jobs():
        snap[job.fingerprint] = (
            job.state.value,
            dict(job.result.outputs) if job.result is not None else None,
            job.result.solo_rounds if job.result is not None else None,
        )
    return snap


class TestRouting:
    def test_jobs_route_by_network_fingerprint(self):
        nets = _networks(3)
        service = SchedulerService(solo_cache=SoloRunCache())
        jobs = _submit_all(service, nets)
        assert len(service.shards) == 3
        keys = {shard_key(net) for net in nets}
        assert set(service.shards) == keys
        for job in jobs:
            assert job.meta["shard"] == shard_key(job.network)
        service.shutdown()

    def test_equal_networks_share_a_shard(self):
        a = topology.cycle_graph(6)
        b = topology.cycle_graph(6)  # == a, is not a
        assert a is not b and a == b
        assert shard_key(a) == shard_key(b)
        service = SchedulerService(solo_cache=SoloRunCache())
        service.submit(a, BFS(0, hops=2))
        service.submit(b, BFS(1, hops=2))
        assert len(service.shards) == 1
        # …and the two jobs batch together inside that shard.
        done = service.drain()
        assert len(done) == 2
        shard = next(iter(service.shards.values()))
        assert shard._batch_counter == 1
        service.shutdown()

    def test_submit_many_and_status_lookup(self):
        nets = _networks(2)
        service = SchedulerService(solo_cache=SoloRunCache())
        jobs = service.submit_many(nets[0], _algorithms(nets[0]))
        service.submit_many(nets[1], _algorithms(nets[1]))
        assert service.backlog() == 6
        status = service.status(jobs[0].job_id)
        assert status["state"] == "queued"
        with pytest.raises(KeyError):
            service.status("j9999")
        service.shutdown()


class TestBitIdentity:
    def test_sharded_drain_matches_single_queue_serial_drain(self, tmp_path):
        nets = _networks(4)

        singles = _per_network(nets, batch_size=4)
        expected = {}
        for single in singles:
            single.shutdown(drain=False)
            expected.update(_terminal_snapshot(single))
        assert all(s == "done" for s, _, _ in expected.values())

        sharded = SchedulerService(
            directory=tmp_path, batch_size=4, solo_cache=SoloRunCache()
        )
        jobs = _submit_all(sharded, nets)
        processed = sharded.drain()
        assert len(processed) == len(jobs)
        sharded.shutdown(drain=False)

        assert _terminal_snapshot(sharded) == expected
        # Zero duplicate executions: every unique job stored exactly once.
        assert sharded.registry.stores == len(jobs)
        assert sum(single.registry.stores for single in singles) == len(jobs)

    def test_outputs_match_solo_references(self):
        nets = _networks(2)
        service = SchedulerService(solo_cache=SoloRunCache())
        jobs = _submit_all(service, nets)
        service.drain()
        for job in jobs:
            reference = solo_run(
                job.network,
                job.algorithm,
                seed=job.master_seed,
                message_bits=job.message_bits,
            )
            assert job.state is JobState.DONE
            assert job.result.outputs == reference.outputs
        service.shutdown()

    def test_resubmission_served_from_shared_registry(self):
        net = _networks(1)[0]
        service = SchedulerService(solo_cache=SoloRunCache())
        algo = BFS(0, hops=3)
        first = service.submit(net, algo)
        service.drain()
        again = service.submit(net, BFS(0, hops=3))
        assert again.state is JobState.DONE
        assert again.result.from_registry
        assert again.result.outputs == first.result.outputs
        service.shutdown()

    def test_wave_records_cover_all_batches(self):
        nets = _networks(4)
        service = SchedulerService(
            batch_size=8, solo_cache=SoloRunCache()
        )
        _submit_all(service, nets)
        service.drain()
        # 4 shards, all compatible within a shard -> one wave, 4 batches.
        assert len(service.drain_waves) == 1
        assert len(service.drain_waves[0]) == 4
        assert all(elapsed > 0 for elapsed in service.drain_waves[0])
        service.shutdown()


class TestBackpressure:
    def test_hot_shard_parks_others_unaffected(self):
        hot, cold = _networks(2)
        policy = AdmissionPolicy(max_shard_depth=2, park_over_depth=True)
        service = SchedulerService(
            policy=policy, solo_cache=SoloRunCache()
        )
        hot_jobs = [
            service.submit(hot, BFS(i % hot.num_nodes, hops=2))
            for i in range(4)
        ]
        states = [j.state for j in hot_jobs]
        assert states == [
            JobState.QUEUED,
            JobState.QUEUED,
            JobState.PARKED,
            JobState.PARKED,
        ]
        assert all(
            j.meta.get("park_cause") == "depth"
            for j in hot_jobs
            if j.state is JobState.PARKED
        )
        cold_job = service.submit(cold, BFS(0, hops=2))
        assert cold_job.state is JobState.QUEUED
        service.shutdown()

    def test_sheds_without_park_flag(self):
        net = _networks(1)[0]
        policy = AdmissionPolicy(max_shard_depth=1)
        service = SchedulerService(
            policy=policy, solo_cache=SoloRunCache()
        )
        first = service.submit(net, BFS(0, hops=2))
        second = service.submit(net, BFS(1, hops=2))
        assert first.state is JobState.QUEUED
        assert second.state is JobState.REJECTED
        assert "shard depth" in second.reason
        service.shutdown()

    def test_release_by_cause_frees_only_depth_parked(self):
        net = _networks(1)[0]
        policy = AdmissionPolicy(
            max_shard_depth=1,
            park_over_depth=True,
            round_budget=1,
            park_over_budget=True,
        )
        service = SchedulerService(
            policy=policy, solo_cache=SoloRunCache()
        )
        # Over-budget on an empty shard: parked with cause="budget".
        budget_parked = service.submit(net, BFS(0, hops=3))
        assert budget_parked.state is JobState.PARKED
        assert budget_parked.meta["park_cause"] == "budget"
        # The budget-parked job does not occupy the queue, so fill it…
        queued = service.submit(net, HopBroadcast(0, 1, 2))
        # …whose admission sees backlog 1 (the parked job) at capacity.
        assert queued.state is JobState.PARKED
        assert queued.meta["park_cause"] == "depth"
        released = service.release_parked(cause="depth")
        assert [j.job_id for j in released] == [queued.job_id]
        assert budget_parked.state is JobState.PARKED
        service.shutdown(drain=False)

    def test_global_depth_gate_sees_summed_backlog(self):
        nets = _networks(2)
        policy = AdmissionPolicy(max_queue_depth=3)
        service = SchedulerService(
            policy=policy, solo_cache=SoloRunCache()
        )
        accepted = [
            service.submit(nets[0], BFS(0, hops=2)),
            service.submit(nets[0], BFS(1, hops=2)),
            service.submit(nets[1], BFS(0, hops=2)),
        ]
        assert all(j.state is JobState.QUEUED for j in accepted)
        # The fourth submission goes to the *second* shard (depth 1),
        # but the global gate judges the summed backlog of 3.
        shed = service.submit(nets[1], BFS(1, hops=2))
        assert shed.state is JobState.REJECTED
        assert "queue depth" in shed.reason
        service.shutdown(drain=False)


class TestCrossShardStats:
    def test_merged_stats_equal_single_queue_run(self):
        nets = _networks(3)

        singles = _per_network(nets, recorded=True, batch_size=4)
        single_stats = [single.stats() for single in singles]

        sharded = SchedulerService(
            batch_size=4, solo_cache=SoloRunCache(), recorder=InMemoryRecorder()
        )
        _submit_all(sharded, nets)
        sharded.drain()
        stats = sharded.stats()

        def total(read):
            return sum(read(single) for single in single_stats)

        assert stats["jobs"] == {
            state: total(lambda single: single["jobs"][state])
            for state in stats["jobs"]
        }
        assert stats["batches"] == total(lambda single: single["batches"])
        # One recorder holds every shard's engine work; each
        # one-network service's recorder holds its own.
        assert stats["engine_counters"] == {
            name: total(lambda single: single["engine_counters"][name])
            for name in stats["engine_counters"]
        }
        latency = stats["latency"]
        # Histogram buckets add: merged counts equal the summed runs'.
        for key in ("queue_latency_s", "e2e_latency_s"):
            assert latency[key]["count"] == total(
                lambda single: single["latency"][key]["count"]
            )
        assert latency["completed"] == total(
            lambda single: single["latency"]["completed"]
        )
        assert latency["events"] == total(
            lambda single: single["latency"]["events"]
        )
        for single in singles:
            single.shutdown(drain=False)
        sharded.shutdown(drain=False)

    def test_merged_recorder_counters_add(self):
        nets = _networks(3)
        singles = _per_network(nets, recorded=True, batch_size=4)
        merged = MetricsRegistry()
        for single in singles:
            merged.merge(single.recorder.metrics)
        snapshot = merged.snapshot()

        recorder = InMemoryRecorder()
        sharded = SchedulerService(
            batch_size=4, solo_cache=SoloRunCache(), recorder=recorder
        )
        jobs = _submit_all(sharded, nets)
        sharded.drain()
        counters = recorder.snapshot()["counters"]
        assert snapshot["counters"]["service.submitted"] == len(jobs)
        assert snapshot["counters"]["service.jobs_done"] == len(jobs)
        assert counters["service.submitted"] == len(jobs)
        assert counters["service.jobs_done"] == len(jobs)
        # Gauges merge element-wise max: depth peaked at the hottest
        # network's peak, not the sum of the networks.
        peak = max(
            single.recorder.metrics.snapshot()["gauges"]["service.queue_depth"]
            for single in singles
        )
        assert snapshot["gauges"]["service.queue_depth"] == peak
        # Histograms merge bucket-wise: batch sizes from all networks,
        # as many as the one service's shards ran.
        hist = snapshot["histograms"]["service.batch_size"]
        assert hist["count"] == sum(
            single.recorder.metrics.snapshot()["histograms"]["service.batch_size"]["count"]
            for single in singles
        )
        assert hist["count"] == (
            recorder.snapshot()["histograms"]["service.batch_size"]["count"]
        )
        sharded.shutdown(drain=False)

    def test_latency_accumulator_merge_equals_concatenated_stream(self):
        nets = _networks(3)
        sharded = SchedulerService(
            batch_size=4, solo_cache=SoloRunCache()
        )
        _submit_all(sharded, nets)
        sharded.drain()
        merged = LatencyAccumulator()
        combined = []
        for shard in sharded.shards.values():
            merged.merge(
                LatencyAccumulator.from_events(shard.events.events)
            )
            combined.extend(shard.events.events)
        assert merged.stats() == latency_stats(combined)
        sharded.shutdown(drain=False)


class TestShardedRecovery:
    def test_recover_twice_converges(self, tmp_path):
        nets = _networks(2)
        directory = tmp_path / "svc"
        service = SchedulerService(
            directory=directory, batch_size=2, solo_cache=SoloRunCache()
        )
        try:
            with armed("batch.post_journal", hit=2):
                _submit_all(service, nets)
                service.drain()
        except InjectedCrash:
            pass
        disarm()
        first = SchedulerService.recover(
            directory, batch_size=2, solo_cache=SoloRunCache()
        )
        first_states = {
            j.job_id: j.state.value for j in first.jobs()
        }
        first.shutdown(drain=False)
        second = SchedulerService.recover(
            directory, batch_size=2, solo_cache=SoloRunCache()
        )
        assert {
            j.job_id: j.state.value for j in second.jobs()
        } == first_states
        second.drain()
        assert all(
            j.state is JobState.DONE for j in second.jobs()
        )
        second.shutdown(drain=False)

    def test_single_queue_journal_is_refused(self, tmp_path):
        # A top-level journal holding a pending job: serving must not
        # strand it silently.
        with JobJournal(tmp_path / "journal.jsonl") as journal:
            journal.append("submit", job="j0001")

        named = re.escape(str(tmp_path / "journal.jsonl"))
        with pytest.raises(ValueError, match=named):
            SchedulerService.pending_jobs(tmp_path)
        with pytest.raises(ValueError, match=named):
            SchedulerService.recover(
                tmp_path, batch_size=2, solo_cache=SoloRunCache()
            )
