"""SchedulerService end-to-end: batching, correctness, registry, retries.

The acceptance scenario of the service subsystem lives here: a stream of
32 jobs over a shared network is batched into ``ceil(32/batch_size)``
workload executions, every job's outputs are bit-identical to its
standalone solo run, and resubmission is served from the registry
without re-execution.
"""

import pytest

from repro.algorithms import BFS, HopBroadcast, PathToken
from repro.congest import solo_run, topology
from repro.core import RandomDelayScheduler, RoundRobinScheduler, Scheduler
from repro.errors import ScheduleError
from repro.faults import FaultPlan
from repro.metrics.schedule import ENGINE_COUNTERS
from repro.parallel import ParallelRunner, SoloRunCache
from repro.service import (
    AdmissionPolicy,
    JobState,
    RunRegistry,
    SchedulerService,
    ServiceClosed,
    read_journal,
)
from repro.telemetry import InMemoryRecorder


def _job_stream(network, count):
    """A mixed stream of `count` deterministic algorithms on one network."""
    nodes = list(network.nodes)
    algorithms = []
    for i in range(count):
        kind = i % 3
        if kind == 0:
            algorithms.append(BFS(nodes[i % len(nodes)], hops=4))
        elif kind == 1:
            algorithms.append(HopBroadcast(nodes[(3 * i) % len(nodes)], 900 + i, 4))
        else:
            algorithms.append(BFS(nodes[(7 * i) % len(nodes)], hops=3))
    return algorithms


@pytest.fixture()
def grid():
    return topology.grid_graph(6, 6)


def _shard(service):
    """The one shard of a service whose jobs share a network."""
    (shard,) = service.shards.values()
    return shard


class TestAcceptance:
    def test_32_job_stream_batched_and_bit_identical(self, grid):
        batch_size = 8
        service = SchedulerService(
            scheduler=RandomDelayScheduler(),
            batch_size=batch_size,
            solo_cache=SoloRunCache(),
        )
        algorithms = _job_stream(grid, 32)
        jobs = service.submit_many(grid, algorithms)
        assert all(j.state is JobState.QUEUED for j in jobs)

        processed = service.drain()
        assert len(processed) == 32
        assert all(j.state is JobState.DONE for j in jobs)
        # <= ceil(32 / batch_size) workload executions, none retried
        assert service.stats()["batches"] <= -(-32 // batch_size)
        assert len(_shard(service).reports) == service.stats()["batches"]

        # outputs bit-identical to each job's standalone solo run
        for job, algorithm in zip(jobs, algorithms):
            reference = solo_run(
                grid,
                algorithm,
                seed=job.master_seed,
                algorithm_id=job.tape_id,
                message_bits=job.message_bits,
            )
            assert job.result.outputs == reference.outputs
            assert not job.result.from_registry

        # resubmission: served from the registry, no new executions
        executions_before = len(_shard(service).reports)
        resubmitted = service.submit_many(grid, algorithms)
        assert all(j.state is JobState.DONE for j in resubmitted)
        assert all(j.result.from_registry for j in resubmitted)
        assert service.registry.hits >= 32
        assert len(_shard(service).reports) == executions_before
        for job, again in zip(jobs, resubmitted):
            assert again.result.outputs == job.result.outputs

    def test_outputs_invariant_to_batch_shape(self, grid):
        algorithms = _job_stream(grid, 9)
        outputs = []
        for batch_size in (1, 4, 9):
            service = SchedulerService(
                batch_size=batch_size, solo_cache=SoloRunCache()
            )
            jobs = service.submit_many(grid, algorithms)
            service.drain()
            assert all(j.state is JobState.DONE for j in jobs)
            outputs.append([j.result.outputs for j in jobs])
        assert outputs[0] == outputs[1] == outputs[2]


class TestBatching:
    def test_incompatible_jobs_never_share_a_batch(self, grid):
        other = topology.path_graph(12)
        service = SchedulerService(batch_size=8, solo_cache=SoloRunCache())
        interleaved = []
        for i in range(4):
            interleaved.append(service.submit(grid, BFS(i, hops=3)))
            interleaved.append(service.submit(other, BFS(i, hops=3)))
        service.drain()
        assert all(j.state is JobState.DONE for j in interleaved)
        # one batch per network (4 compatible jobs each, batch_size 8)
        assert service.stats()["batches"] == 2

    def test_differing_master_seeds_split_batches(self, grid):
        service = SchedulerService(batch_size=8, solo_cache=SoloRunCache())
        service.submit(grid, BFS(0, hops=3), master_seed=0)
        service.submit(grid, BFS(1, hops=3), master_seed=1)
        service.drain()
        assert service.stats()["batches"] == 2

    def test_run_once_takes_one_batch(self, grid):
        service = SchedulerService(batch_size=2, solo_cache=SoloRunCache())
        jobs = service.submit_many(grid, _job_stream(grid, 5))
        first = service.run_once()
        assert [j.job_id for j in first] == [j.job_id for j in jobs[:2]]
        assert _shard(service).queue.depth == 3
        assert service.run_once() and service.run_once()
        assert service.run_once() == []


class TestAdmission:
    def test_over_budget_job_rejected(self, grid):
        service = SchedulerService(
            policy=AdmissionPolicy(round_budget=2), solo_cache=SoloRunCache()
        )
        job = service.submit(grid, BFS(0, hops=6))
        assert job.state is JobState.REJECTED
        assert "round budget" in job.reason
        assert service.drain() == []

    def test_parked_job_released_and_served(self, grid):
        service = SchedulerService(
            policy=AdmissionPolicy(round_budget=2, park_over_budget=True),
            solo_cache=SoloRunCache(),
        )
        job = service.submit(grid, BFS(0, hops=6))
        assert job.state is JobState.PARKED
        assert service.drain() == []  # parked jobs are not batched
        service.policy = AdmissionPolicy()
        released = service.release_parked()
        assert released == [job]
        service.drain()
        assert job.state is JobState.DONE

    def test_queue_depth_sheds(self, grid):
        service = SchedulerService(
            policy=AdmissionPolicy(max_queue_depth=2),
            solo_cache=SoloRunCache(),
        )
        states = [
            service.submit(grid, BFS(i, hops=3)).state for i in range(4)
        ]
        assert states == [
            JobState.QUEUED,
            JobState.QUEUED,
            JobState.REJECTED,
            JobState.REJECTED,
        ]


class _Flaky(Scheduler):
    """Fails the first ``n`` executions, then delegates to random-delay."""

    name = "flaky"

    def __init__(self, failures):
        self.remaining = [failures]  # list: shared across service's copies
        self.inner = RandomDelayScheduler()

    def run(self, workload, seed=0):
        if self.remaining[0] > 0:
            self.remaining[0] -= 1
            raise ScheduleError("injected batch failure", round=1)
        return self.inner.run(workload, seed=seed)


class _DivergeOnce(RandomDelayScheduler):
    """Random-delay, except that the first batch it verifies reports a
    wrong output for one node of its first algorithm."""

    def __init__(self):
        super().__init__()
        self.fired = []  # list: shared across the service's copies

    def _finish(self, workload, outputs, report):
        if not self.fired and workload.num_algorithms > 1:
            self.fired.append(True)
            outputs = dict(outputs)
            key = min(outputs)
            outputs[key] = ("diverged", outputs[key])
        return super()._finish(workload, outputs, report)


class TestRetries:
    def test_batch_failure_retried_solo_and_recovers(self, grid):
        service = SchedulerService(
            scheduler=_Flaky(failures=1),
            batch_size=4,
            max_retries=1,
            solo_cache=SoloRunCache(),
        )
        jobs = service.submit_many(grid, _job_stream(grid, 4))
        service.drain()
        assert all(j.state is JobState.DONE for j in jobs)
        # 1 failed batch + 4 solo retries
        assert all(j.attempts == 2 for j in jobs)
        assert all(j.result.batch_size == 1 for j in jobs)

    def test_retries_exhausted_marks_failed(self, grid):
        service = SchedulerService(
            scheduler=_Flaky(failures=100),
            batch_size=2,
            max_retries=2,
            solo_cache=SoloRunCache(),
        )
        jobs = service.submit_many(grid, _job_stream(grid, 2))
        service.drain()
        assert all(j.state is JobState.FAILED for j in jobs)
        assert all("injected batch failure" in j.reason for j in jobs)
        assert all(j.attempts == 3 for j in jobs)  # batch + 2 retries
        assert all(j.result is None for j in jobs)

    def test_retry_is_recorded_as_its_own_execution(self, grid, tmp_path):
        service = SchedulerService(
            scheduler=_DivergeOnce(),
            batch_size=4,
            max_retries=1,
            solo_cache=SoloRunCache(),
            directory=tmp_path,
        )
        jobs = service.submit_many(grid, _job_stream(grid, 8))
        service.drain()
        shard = _shard(service)
        assert all(j.state is JobState.DONE for j in jobs)
        retried = [j for j in jobs if j.attempts == 2]
        assert len(retried) == 1
        (job,) = retried
        # Executions: b0001, its retry b0001.r1, then b0002.
        assert len(shard.reports) == 3
        first, retry, _second = shard.reports
        meta = service.registry.get(job.fingerprint).meta
        assert meta["batch"] == "b0001.r1"
        assert meta["length_rounds"] == retry.length_rounds
        assert meta["completion_round"] == (
            first.length_rounds + retry.completion_rounds[0]
        )
        # The ledger's cross-check: one length per (shard, execution id)
        # from the registry sums to the reports' lengths.
        lengths = {}
        for other in jobs:
            other_meta = service.registry.get(other.fingerprint).meta
            lengths[other_meta["batch"]] = other_meta["length_rounds"]
        assert sorted(lengths) == ["b0001", "b0001.r1", "b0002"]
        assert sum(lengths.values()) == shard.rounds == sum(
            report.length_rounds for report in shard.reports
        )
        # Journal records and events stay keyed by the original batch.
        assert job.meta["batch"] == "b0001"
        done, _ = read_journal(shard.journal.path)
        done = [r for r in done if r["kind"] == "done" and r["job"] == job.job_id]
        assert [r["batch"] for r in done] == ["b0001"]
        events = [e for e in shard.events.events if e.job_id == job.job_id]
        (retried,) = [e for e in events if e.kind == "retried"]
        assert retried.attrs["execution"] == "b0001.r1"
        assert all(e.batch == "b0001" for e in events if e.batch is not None)

    def test_fault_induced_divergence_marks_failed(self, grid):
        scheduler = RandomDelayScheduler().with_faults(
            FaultPlan.message_drop(0.5, seed=3)
        )
        service = SchedulerService(
            scheduler=scheduler,
            batch_size=4,
            max_retries=1,
            solo_cache=SoloRunCache(),
        )
        jobs = service.submit_many(grid, _job_stream(grid, 4))
        service.drain()
        assert all(j.terminal for j in jobs)
        assert any(j.state is JobState.FAILED for j in jobs)
        failed = [j for j in jobs if j.state is JobState.FAILED]
        assert all(j.reason for j in failed)


class TestParallelDrain:
    def test_pool_drain_matches_serial(self, grid):
        algorithms = _job_stream(grid, 12)

        def run(runner):
            service = SchedulerService(
                batch_size=3, runner=runner, solo_cache=SoloRunCache()
            )
            jobs = service.submit_many(grid, algorithms)
            service.drain()
            return [(j.state, j.result.outputs) for j in jobs]

        serial = run(ParallelRunner(1))
        pooled = run(ParallelRunner(2))
        assert serial == pooled


class TestLifecycle:
    def test_shutdown_drains_then_closes(self, grid):
        service = SchedulerService(batch_size=4, solo_cache=SoloRunCache())
        jobs = service.submit_many(grid, _job_stream(grid, 4))
        processed = service.shutdown()
        assert [j.job_id for j in processed] == [j.job_id for j in jobs]
        assert service.closed
        with pytest.raises(ServiceClosed):
            service.submit(grid, BFS(0, hops=3))

    def test_shutdown_without_drain_keeps_queue(self, grid):
        service = SchedulerService(solo_cache=SoloRunCache())
        job = service.submit(grid, BFS(0, hops=3))
        assert service.shutdown(drain=False) == []
        assert job.state is JobState.QUEUED
        assert service.stats()["queue_depth"] == 1

    def test_status_and_unknown_job(self, grid):
        service = SchedulerService(solo_cache=SoloRunCache())
        job = service.submit(grid, BFS(0, hops=3))
        assert service.status(job.job_id)["state"] == "queued"
        with pytest.raises(KeyError):
            service.status("j9999")


class TestTelemetry:
    def test_service_counters_and_engine_aggregation(self, grid):
        recorder = InMemoryRecorder()
        service = SchedulerService(
            batch_size=4,
            recorder=recorder,
            registry=RunRegistry(),
            solo_cache=SoloRunCache(),
        )
        algorithms = _job_stream(grid, 8)
        service.submit_many(grid, algorithms)
        service.drain()
        service.submit(grid, algorithms[0])  # registry hit

        counters = recorder.snapshot()["counters"]
        assert counters["service.submitted"] == 9
        assert counters["service.admitted"] == 8
        assert counters["service.batches"] == 2
        assert counters["service.jobs_done"] == 8
        assert counters["service.registry_hit"] == 1
        assert counters["service.registry_store"] == 8
        histogram = recorder.snapshot()["histograms"]["service.batch_size"]
        assert histogram["count"] == 2 and histogram["max"] == 4

        stats = service.stats()
        engines = stats["engine_counters"]
        # uniform aggregation: every well-known engine counter present
        assert set(engines) == set(ENGINE_COUNTERS)
        assert {
            "sim.late_deliveries",
            "sim.skipped_rounds",
            "phase.skipped_phases",
            "cluster.skipped_rounds",
            "phase.host_steps",
            "phase.idle_skips",
        } <= set(engines)

    def test_round_robin_scheduler_supported(self, grid):
        service = SchedulerService(
            scheduler=RoundRobinScheduler(),
            batch_size=4,
            solo_cache=SoloRunCache(),
        )
        jobs = service.submit_many(grid, _job_stream(grid, 4))
        service.drain()
        assert all(j.state is JobState.DONE for j in jobs)


class TestPathTokenJobs:
    def test_pathtoken_stream(self, grid):
        service = SchedulerService(batch_size=3, solo_cache=SoloRunCache())
        jobs = [
            service.submit(grid, PathToken([0, 1, 2, 3], token=10 + i))
            for i in range(3)
        ]
        service.drain()
        assert all(j.state is JobState.DONE for j in jobs)
        # the token reaches the end of the path in every result
        for job in jobs:
            assert job.result.outputs
