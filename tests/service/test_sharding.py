"""ShardedSchedulerService: routing, bit-identity, backpressure, stats.

The sharded service is a *transparent* restructuring of the single
queue: same submissions in, byte-identical terminal states, outputs,
and registry contents out. These tests pin that contract:

* routing — jobs land in per-network shards keyed by the network
  fingerprint (``==``-equal rebuilt networks share a shard);
* bit-identity — a sharded concurrent drain of a multi-network
  workload settles every job exactly like one single-queue service
  draining the same submissions serially, with zero duplicate
  executions (registry stores are counted);
* backpressure — ``max_shard_depth`` parks/sheds on the hot shard
  only, and ``release_parked(cause="depth")`` frees exactly the
  backpressure-parked jobs;
* cross-shard stats — merged per-shard recorders and latency sketches
  equal the single-queue run's, under the documented merge rules
  (counters add, gauges element-wise max, histogram buckets add);
* crash recovery — the full :data:`CRASH_POINTS` matrix against the
  sharded service recovers byte-identically per shard.
"""

import re

import pytest

from repro.algorithms import BFS, HopBroadcast
from repro.congest import solo_run, topology
from repro.faults import InjectedCrash, armed, disarm
from repro.parallel import SoloRunCache
from repro.service import (
    CRASH_POINTS,
    AdmissionPolicy,
    JobState,
    LatencyAccumulator,
    SchedulerService,
    ShardedSchedulerService,
    latency_stats,
    shard_key,
)
from repro.telemetry import InMemoryRecorder


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
        service = ShardedSchedulerService(solo_cache=SoloRunCache())
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
        service = ShardedSchedulerService(solo_cache=SoloRunCache())
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
        service = ShardedSchedulerService(solo_cache=SoloRunCache())
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

        single = SchedulerService(batch_size=4, solo_cache=SoloRunCache())
        _submit_all(single, nets)
        single.shutdown(drain=True)
        expected = _terminal_snapshot(single)
        assert all(s == "done" for s, _, _ in expected.values())

        sharded = ShardedSchedulerService(
            directory=tmp_path, batch_size=4, solo_cache=SoloRunCache()
        )
        jobs = _submit_all(sharded, nets)
        processed = sharded.drain()
        assert len(processed) == len(jobs)
        sharded.shutdown(drain=False)

        assert _terminal_snapshot(sharded) == expected
        # Zero duplicate executions: every unique job stored exactly once.
        assert sharded.registry.stores == len(jobs)
        assert single.registry.stores == len(jobs)

    def test_outputs_match_solo_references(self):
        nets = _networks(2)
        service = ShardedSchedulerService(solo_cache=SoloRunCache())
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
        service = ShardedSchedulerService(solo_cache=SoloRunCache())
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
        service = ShardedSchedulerService(
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
        service = ShardedSchedulerService(
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
        service = ShardedSchedulerService(
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
        service = ShardedSchedulerService(
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
        service = ShardedSchedulerService(
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

        single_rec = InMemoryRecorder()
        single = SchedulerService(
            batch_size=4, solo_cache=SoloRunCache(), recorder=single_rec
        )
        _submit_all(single, nets)
        single.drain()
        single_stats = single.stats()

        sharded = ShardedSchedulerService(
            batch_size=4, solo_cache=SoloRunCache(), per_shard_recorders=True
        )
        _submit_all(sharded, nets)
        sharded.drain()
        stats = sharded.stats()

        assert stats["jobs"] == single_stats["jobs"]
        assert stats["batches"] == single_stats["batches"]
        assert stats["engine_counters"] == single_stats["engine_counters"]
        latency = stats["latency"]
        # Histogram buckets add: merged counts equal the single run's.
        for key in ("queue_latency_s", "e2e_latency_s"):
            assert (
                latency[key]["count"] == single_stats["latency"][key]["count"]
            )
        assert latency["completed"] == single_stats["latency"]["completed"]
        assert latency["events"] == single_stats["latency"]["events"]
        single.shutdown(drain=False)
        sharded.shutdown(drain=False)

    def test_merged_recorder_counters_add(self):
        nets = _networks(3)
        sharded = ShardedSchedulerService(
            batch_size=4, solo_cache=SoloRunCache(), per_shard_recorders=True
        )
        jobs = _submit_all(sharded, nets)
        sharded.drain()
        merged = sharded.merged_metrics()
        snapshot = merged.snapshot()
        assert snapshot["counters"]["service.submitted"] == len(jobs)
        assert snapshot["counters"]["service.jobs_done"] == len(jobs)
        # Gauges merge element-wise max: depth peaked at the hottest
        # shard's peak, not the sum of the shards.
        peak = max(
            rec.metrics.snapshot()["gauges"]["service.queue_depth"]
            for rec in sharded._shard_recorders.values()
        )
        assert snapshot["gauges"]["service.queue_depth"] == peak
        # Histograms merge bucket-wise: batch sizes from all shards.
        hist = snapshot["histograms"]["service.batch_size"]
        assert hist["count"] == sum(
            rec.metrics.snapshot()["histograms"]["service.batch_size"]["count"]
            for rec in sharded._shard_recorders.values()
        )
        sharded.shutdown(drain=False)

    def test_latency_accumulator_merge_equals_concatenated_stream(self):
        nets = _networks(3)
        sharded = ShardedSchedulerService(
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
    def _baseline(self, tmp_path, nets):
        directory = tmp_path / "baseline"
        service = ShardedSchedulerService(
            directory=directory, batch_size=2, solo_cache=SoloRunCache()
        )
        _submit_all(service, nets)
        service.drain()
        service.shutdown(drain=False)
        return _terminal_snapshot(service)

    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_crash_matrix_recovers_byte_identically(self, tmp_path, point):
        from repro.congest import default_message_bits
        from repro.service import job_fingerprint

        nets = _networks(2)
        expected = self._baseline(tmp_path, nets)
        assert all(s == "done" for s, _, _ in expected.values())

        directory = tmp_path / "crashed"
        service = ShardedSchedulerService(
            directory=directory, batch_size=2, solo_cache=SoloRunCache()
        )
        crashed = False
        try:
            with armed(point, hit=2):
                _submit_all(service, nets)
                service.drain()
        except InjectedCrash:
            crashed = True
        disarm()
        if not crashed:
            # The point never reached hit 2 in this workload; the run
            # is itself the uninterrupted execution.
            service.shutdown(drain=False)
            assert _terminal_snapshot(service) == expected
            return

        recovered = ShardedSchedulerService.recover(
            directory, batch_size=2, solo_cache=SoloRunCache()
        )
        acknowledged = {
            job.fingerprint
            for job in recovered.jobs()
            if job.result is not None and job.result.from_registry
        }
        # A submission the crash caught before its journal record was
        # never acknowledged — resubmit it, exactly like the CLI's
        # spool replay does.
        have = {job.fingerprint for job in recovered.jobs()}
        for net in nets:
            for algorithm in _algorithms(net):
                fp = job_fingerprint(
                    net, algorithm, 0, default_message_bits(net.num_nodes)
                )
                if fp not in have:
                    recovered.submit(net, algorithm)
        recovered.drain()
        assert _terminal_snapshot(recovered) == expected
        # Exactly-once per shard: a completion acknowledged before the
        # crash is served from the registry, never executed again.
        for job in recovered.jobs():
            if job.fingerprint in acknowledged:
                assert job.result.from_registry
        assert recovered.registry.stats()["stores"] == len(expected) - len(
            acknowledged
        )
        recovered.shutdown(drain=False)

    def test_recover_twice_converges(self, tmp_path):
        nets = _networks(2)
        directory = tmp_path / "svc"
        service = ShardedSchedulerService(
            directory=directory, batch_size=2, solo_cache=SoloRunCache()
        )
        try:
            with armed("batch.post_journal", hit=2):
                _submit_all(service, nets)
                service.drain()
        except InjectedCrash:
            pass
        disarm()
        first = ShardedSchedulerService.recover(
            directory, batch_size=2, solo_cache=SoloRunCache()
        )
        first_states = {
            j.job_id: j.state.value for j in first.jobs()
        }
        first.shutdown(drain=False)
        second = ShardedSchedulerService.recover(
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
        net = _networks(1)[0]
        from repro.service import JobJournal, RunRegistry

        single = SchedulerService(
            journal=JobJournal(tmp_path / "journal.jsonl"),
            registry=RunRegistry(tmp_path / "registry"),
            batch_size=2,
            solo_cache=SoloRunCache(),
        )
        single.submit(net, BFS(0, hops=2))
        # Left pending: sharded serving must not strand this job silently.
        single.journal.close()

        named = re.escape(str(tmp_path / "journal.jsonl"))
        with pytest.raises(ValueError, match=named):
            ShardedSchedulerService.pending_jobs(tmp_path)
        with pytest.raises(ValueError, match=named):
            ShardedSchedulerService.recover(
                tmp_path, batch_size=2, solo_cache=SoloRunCache()
            )
