"""Crash recovery: the service's exactly-once contract, enforced.

The matrix test kills the service (via in-process
:class:`~repro.faults.InjectedCrash`) at *every* named crash point, on
one network and on two (each its own shard and journal segment),
recovers from the journals, drains, and asserts the recovered terminal
state is identical to an uninterrupted run: same states, bit-identical
outputs, no acknowledged completion executed twice.
"""

from contextlib import nullcontext

import pytest

from repro.algorithms import BFS, HopBroadcast
from repro.congest import default_message_bits, topology
from repro.core import RandomDelayScheduler, Scheduler
from repro.errors import ScheduleError
from repro.faults import InjectedCrash, armed, disarm
from repro.parallel import SoloRunCache
from repro.service import (
    CRASH_POINTS,
    AdmissionPolicy,
    JobState,
    SchedulerService,
    job_fingerprint,
)
from repro.telemetry import InMemoryRecorder


@pytest.fixture(autouse=True)
def _disarmed():
    disarm()
    yield
    disarm()


@pytest.fixture()
def grid():
    return topology.grid_graph(4, 4)


def _networks(count):
    """The first ``count`` of two independent networks."""
    return [topology.grid_graph(4, 4), topology.cycle_graph(6)][:count]


def _algorithms(network, count=4):
    nodes = list(network.nodes)
    out = []
    for i in range(count):
        if i % 2:
            out.append(HopBroadcast(nodes[(3 * i) % len(nodes)], 900 + i, 3))
        else:
            out.append(BFS(nodes[i % len(nodes)], hops=3))
    return out


def _run(directory, networks, crash=None, hit=1, **kwargs):
    """One service run; returns the service, or None if it crashed."""
    kwargs.setdefault("batch_size", 2)
    service = SchedulerService(directory=directory, **kwargs)
    try:
        with armed(crash, hit=hit) if crash is not None else nullcontext():
            for network in networks:
                service.submit_many(network, _algorithms(network))
            service.drain()
    except InjectedCrash:
        # The process is considered dead: nothing in-memory survives,
        # only journals + registry + events on disk.
        return None
    service.shutdown(drain=False)
    return service


def _terminal_snapshot(service):
    """What must be identical across crashed+recovered vs clean runs."""
    snap = {}
    for job in service.jobs():
        snap[job.fingerprint] = (
            job.state.value,
            dict(job.result.outputs) if job.result is not None else None,
            job.result.solo_rounds if job.result is not None else None,
        )
    return snap


def _reports(service):
    """Every execution report of every shard."""
    return [report for shard in service.shards.values() for report in shard.reports]


class TestCrashMatrix:
    @pytest.mark.parametrize("networks", [1, 2])
    @pytest.mark.parametrize("point", CRASH_POINTS)
    @pytest.mark.parametrize("hit", [1, 2])
    def test_kill_recover_drain_matches_uninterrupted(
        self, tmp_path, point, hit, networks
    ):
        nets = _networks(networks)
        baseline_dir = tmp_path / "baseline"
        baseline_dir.mkdir()
        baseline = _run(baseline_dir, nets)
        expected = _terminal_snapshot(baseline)
        assert all(
            state == JobState.DONE.value for state, _, _ in expected.values()
        )

        crash_dir = tmp_path / "crash"
        crash_dir.mkdir()
        crashed = _run(crash_dir, nets, crash=point, hit=hit)
        if crashed is not None:
            # The point never reached this hit count in a full run;
            # the run is itself the uninterrupted execution.
            assert _terminal_snapshot(crashed) == expected
            return

        recovered = SchedulerService.recover(directory=crash_dir)
        acknowledged = {
            job.fingerprint
            for job in recovered.jobs()
            if job.result is not None and job.result.from_registry
        }
        # A submission the crash caught before its journal record was
        # never acknowledged — the client resubmits it, exactly as the
        # CLI's spool replay does. Every journaled job must have
        # survived recovery.
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
        # Exactly-once: a completion acknowledged before the crash was
        # served from the registry, never executed again.
        for job in recovered.jobs():
            if job.fingerprint in acknowledged:
                assert job.result.from_registry
        # And no registry artifact was overwritten for acknowledged jobs:
        # stores count only the still-pending executions.
        assert recovered.registry.stats()["stores"] == len(expected) - len(
            acknowledged
        )
        recovered.shutdown(drain=False)

    @pytest.mark.parametrize(
        "point", ["complete.pre_journal", "complete.post_journal"]
    )
    def test_acknowledged_job_not_reexecuted(self, tmp_path, grid, point):
        """Crash after registry.put: recovery finishes the paperwork only."""
        assert _run(tmp_path, [grid], crash=point, hit=1) is None
        recovered = SchedulerService.recover(directory=tmp_path)
        done = [
            job for job in recovered.jobs() if job.state is JobState.DONE
        ]
        assert done, "the acknowledged completion must already be done"
        assert all(job.result.from_registry for job in done)
        # recovery itself executed nothing
        assert _reports(recovered) == []
        assert recovered.registry.stats()["stores"] == 0

    def test_crash_before_journal_loses_unacknowledged_submit(
        self, tmp_path, grid
    ):
        assert _run(tmp_path, [grid], crash="submit.pre_journal", hit=1) is None
        recovered = SchedulerService.recover(directory=tmp_path)
        # The submission never became durable, so it legitimately
        # vanished — but nothing else leaked into the journal either.
        assert recovered.jobs() == []
        # Id counters start fresh; nothing to collide with.
        job = recovered.submit(grid, BFS(0, hops=2))
        assert job.job_id == "j0001"


def _seqs(service):
    """The last journal sequence number of every shard."""
    return {key: shard.journal.seq for key, shard in service.shards.items()}


class TestRecoverIdempotence:
    def test_recover_twice_equals_recover_once(self, tmp_path, grid):
        assert (
            _run(tmp_path, [grid], crash="complete.pre_registry", hit=2) is None
        )
        first = SchedulerService.recover(directory=tmp_path)
        snap_once = {
            job.job_id: job.state.value for job in first.jobs()
        }
        seq_once = _seqs(first)
        first.shutdown(drain=False)

        second = SchedulerService.recover(directory=tmp_path)
        snap_twice = {
            job.job_id: job.state.value for job in second.jobs()
        }
        assert snap_twice == snap_once
        # The first recovery journaled its decisions; the second found
        # nothing new to decide.
        assert _seqs(second) == seq_once
        second.shutdown(drain=False)

    def test_replay_journal_on_live_service_is_noop(self, tmp_path, grid):
        service = _run(tmp_path, [grid])
        before = {job.job_id: job.state for job in service.jobs()}
        for shard in service.shards.values():
            shard._replay()
        assert {job.job_id: job.state for job in service.jobs()} == before


class TestIdOrder:
    def test_ids_past_9999_recover_in_submission_order(self, tmp_path, grid):
        """``j10000`` sorts after ``j9999`` live, in the journal's pending
        list and after recovery, so the oldest job still anchors the
        first batch."""
        service = SchedulerService(directory=tmp_path, batch_size=1)
        service._job_counter = 9998
        ids = [service.submit(grid, BFS(i, hops=2)).job_id for i in range(3)]
        assert ids == ["j9999", "j10000", "j10001"]
        assert [job.job_id for job in service.jobs()] == ids
        service.shutdown(drain=False)

        assert list(SchedulerService.pending_jobs(tmp_path).values()) == [ids]
        recovered = SchedulerService.recover(tmp_path, batch_size=1)
        assert [job.job_id for job in recovered.jobs()] == ids
        assert [job.job_id for job in recovered.run_once()] == ["j9999"]
        recovered.shutdown(drain=False)


class TestParkedRecovery:
    """Parked jobs must survive crashes without getting stranded."""

    _PARKING = dict(round_budget=2, park_over_budget=True)

    def _park_one(self, tmp_path, grid):
        service = SchedulerService(
            directory=tmp_path,
            policy=AdmissionPolicy(**self._PARKING),
            solo_cache=SoloRunCache(),
        )
        job = service.submit(grid, BFS(0, hops=6))
        assert job.state is JobState.PARKED
        return service

    def test_release_crash_recovers_jobs_as_queued(self, tmp_path, grid):
        """A journaled release survives a crash mid-release_parked."""
        service = self._park_one(tmp_path, grid)
        with pytest.raises(InjectedCrash):
            with armed("release.post_journal", hit=1):
                service.release_parked()
        # Even recovering under the same parking policy, the durable
        # released record wins: the job comes back queued, not parked.
        recovered = SchedulerService.recover(
            directory=tmp_path,
            policy=AdmissionPolicy(**self._PARKING),
            solo_cache=SoloRunCache(),
        )
        [job] = recovered.jobs()
        assert job.state is JobState.QUEUED
        recovered.drain()
        assert job.state is JobState.DONE
        recovered.shutdown(drain=False)

    def test_recover_redecides_parked_against_current_policy(
        self, tmp_path, grid
    ):
        """Parked is not sticky across restarts: the live budget decides."""
        self._park_one(tmp_path, grid).shutdown(drain=False)

        # Same tight budget: recovery re-parks (journaled again).
        still = SchedulerService.recover(
            directory=tmp_path,
            policy=AdmissionPolicy(**self._PARKING),
            solo_cache=SoloRunCache(),
        )
        [parked] = still.jobs()
        assert parked.state is JobState.PARKED
        still.shutdown(drain=False)

        # Raised (here: unlimited) budget: recovery admits and drains —
        # the pre-fix behaviour left the job parked forever.
        freed = SchedulerService.recover(
            directory=tmp_path, solo_cache=SoloRunCache()
        )
        [job] = freed.jobs()
        assert job.state is JobState.QUEUED
        freed.drain()
        assert job.state is JobState.DONE
        freed.shutdown(drain=False)


class TestQuarantine:
    def test_poison_job_dead_lettered_after_threshold(self, tmp_path, grid):
        """A job that kills every batch stops being retried on restart."""
        attempts = 0
        while attempts < 3:
            service = SchedulerService.recover(
                directory=tmp_path, poison_threshold=3
            )
            if not service.jobs():
                service.submit_many(grid, _algorithms(grid, count=2))
            try:
                with armed("batch.post_journal", hit=1):
                    service.drain()
            except InjectedCrash:
                attempts += 1
                continue
            pytest.fail("drain must crash while the point is armed")
        recorder = InMemoryRecorder()
        recovered = SchedulerService.recover(
            directory=tmp_path, poison_threshold=3, recorder=recorder
        )
        states = {job.job_id: job.state for job in recovered.jobs()}
        assert all(
            state is JobState.QUARANTINED for state in states.values()
        )
        for job in recovered.jobs():
            assert "poison_threshold" in job.reason
        # quarantine is terminal: draining executes nothing
        recovered.drain()
        assert _reports(recovered) == []
        snapshot = recorder.snapshot()
        assert snapshot["counters"]["service.quarantined"] == len(states)

    def test_below_threshold_jobs_requeue(self, tmp_path, grid):
        service = SchedulerService.recover(
            directory=tmp_path, poison_threshold=3
        )
        service.submit_many(grid, _algorithms(grid, count=2))
        with pytest.raises(InjectedCrash):
            with armed("batch.post_journal", hit=1):
                service.drain()
        recovered = SchedulerService.recover(
            directory=tmp_path, poison_threshold=3
        )
        recovered.drain()
        assert all(
            job.state is JobState.DONE for job in recovered.jobs()
        )


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


class TestRetryBackoff:
    def test_exponential_backoff_between_solo_retries(self, grid):
        service = SchedulerService(
            scheduler=_Flaky(failures=3),
            batch_size=2,
            max_retries=3,
            retry_backoff=0.1,
            retry_backoff_max=0.25,
            solo_cache=SoloRunCache(),
        )
        delays = []
        service._sleep = delays.append
        service.submit_many(grid, _algorithms(grid, count=2))
        service.drain()
        assert all(job.state is JobState.DONE for job in service.jobs())
        # Per failing job: 0.1, then 0.2, capped at 0.25 thereafter.
        assert delays[:2] == [0.1, 0.2]
        assert all(d <= 0.25 for d in delays)

    def test_zero_backoff_never_sleeps(self, grid):
        service = SchedulerService(
            scheduler=_Flaky(failures=1),
            batch_size=2,
            max_retries=2,
            solo_cache=SoloRunCache(),
        )
        service._sleep = lambda d: pytest.fail(f"slept {d}s with backoff=0")
        service.submit_many(grid, _algorithms(grid, count=2))
        service.drain()
        assert all(job.state is JobState.DONE for job in service.jobs())

    def test_invalid_backoff_rejected(self):
        with pytest.raises(ValueError):
            SchedulerService(retry_backoff=-0.1)


class TestStuckBatch:
    def test_stuck_batch_distrusted_and_retried_solo(self, grid):
        recorder = InMemoryRecorder()
        service = SchedulerService(
            batch_size=4,
            stuck_batch_timeout=1e-12,  # every batch is "stuck"
            recorder=recorder,
            solo_cache=SoloRunCache(),
        )
        jobs = service.submit_many(grid, _algorithms(grid))
        service.drain()
        assert all(job.state is JobState.DONE for job in jobs)
        # Every job was re-run solo after its batch was distrusted.
        assert all(job.result.batch_size == 1 for job in jobs)
        snapshot = recorder.snapshot()
        assert snapshot["counters"]["service.stuck_batches"] >= 1

    def test_no_timeout_by_default(self, grid):
        service = SchedulerService(batch_size=4, solo_cache=SoloRunCache())
        jobs = service.submit_many(grid, _algorithms(grid))
        service.drain()
        assert all(job.result.batch_size == len(jobs) for job in jobs)

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError):
            SchedulerService(stuck_batch_timeout=0)
