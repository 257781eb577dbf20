"""Nearest-dilation batching against the FIFO fill it replaced.

Which jobs share a batch is the service's choice, not the paper's: the
Theorem 1.1 scheduler runs whatever batch it is given, and stable tape
identities make every job's outputs independent of its batch mates. So
the batching rule may only move *rounds*. This drains one mixed-hop
stream on three networks twice — under the shipped
:class:`~repro.service.JobQueue` and under :class:`FifoJobQueue`, the
FIFO fill kept here as the reference — and asserts that outputs,
terminal states and registry contents are identical while the schedules
are shorter.
"""

from collections import deque

import pytest

from repro.algorithms import BFS, HopBroadcast
from repro.congest import topology
from repro.parallel import SoloRunCache
from repro.service import JobQueue, JobState, SchedulerService
from repro.service import service as service_module


class FifoJobQueue(JobQueue):
    """The FIFO fill the nearest-dilation rule replaced: the anchor's
    bucket, oldest first, blind to the jobs' dilations."""

    def __init__(self):
        super().__init__()
        self._fifo = {}

    def _enqueue(self, job):
        super()._enqueue(job)
        self._fifo.setdefault(self._key_of[job.job_id], deque()).append(
            job.job_id
        )

    def next_batch(self, batch_size):
        if batch_size < 1:
            return []
        while self._pending and self._pending[0] in self._popped:
            self._popped.discard(self._pending.popleft())
        if not self._pending:
            return []
        bucket = self._fifo[self._key_of[self._pending[0]]]
        batch = []
        while bucket and len(batch) < batch_size:
            job_id = bucket.popleft()
            self._popped.add(job_id)
            self._depth -= 1
            batch.append(self.jobs[job_id])
        return batch


NETWORKS = (
    topology.grid_graph(6, 6),
    topology.cycle_graph(24),
    topology.torus_graph(5, 5),
)


def _stream():
    """24 distinct jobs per network whose hop limits (so dilations)
    cycle through 1..8."""
    for index in range(72):
        network = NETWORKS[index % 3]
        source = index // 3  # distinct per network: every n >= 24
        hops = 1 + (5 * index) % 8
        if index % 2:
            yield network, BFS(source, hops=hops)
        else:
            yield network, HopBroadcast(source, 1000 + index, hops)


def _drain(queue_class):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(service_module, "JobQueue", queue_class)
        service = SchedulerService(batch_size=4, solo_cache=SoloRunCache())
        jobs = [service.submit(network, algo) for network, algo in _stream()]
        service.drain()
    return service, jobs


@pytest.fixture(scope="module")
def drains():
    return {"nearest": _drain(JobQueue), "fifo": _drain(FifoJobQueue)}


def _rounds(service):
    return sum(shard.rounds for shard in service.shards.values())


def test_fixture_uses_both_queues(drains):
    nearest, _ = drains["nearest"]
    fifo, _ = drains["fifo"]
    assert all(type(s.queue) is JobQueue for s in nearest.shards.values())
    assert all(type(s.queue) is FifoJobQueue for s in fifo.shards.values())


def test_outputs_states_and_registry_identical(drains):
    nearest, near_jobs = drains["nearest"]
    fifo, fifo_jobs = drains["fifo"]
    assert [j.job_id for j in near_jobs] == [j.job_id for j in fifo_jobs]
    for a, b in zip(near_jobs, fifo_jobs):
        assert a.state is b.state is JobState.DONE
        assert a.result.outputs == b.result.outputs
    assert sorted(nearest.registry.fingerprints()) == sorted(
        fifo.registry.fingerprints()
    )
    for fingerprint in nearest.registry.fingerprints():
        assert (
            nearest.registry.get(fingerprint).outputs
            == fifo.registry.get(fingerprint).outputs
        )
    assert nearest.stats()["batches"] == fifo.stats()["batches"]


def test_nearest_dilation_schedules_are_shorter(drains):
    nearest, _ = drains["nearest"]
    fifo, _ = drains["fifo"]
    assert _rounds(nearest) < _rounds(fifo)
    assert (
        nearest.stats()["completion_rounds"]["mean"]
        < fifo.stats()["completion_rounds"]["mean"]
    )


@pytest.mark.parametrize("policy", ["nearest", "fifo"])
def test_completion_rounds_fit_inside_their_shard(drains, policy):
    service, jobs = drains[policy]
    for job in jobs:
        shard = service.shards[job.meta["shard"]]
        assert 0 < job.result.completion_round <= shard.rounds
        assert job.describe()["completion_round"] == job.result.completion_round
        meta = service.registry.get(job.fingerprint).meta
        assert meta["completion_round"] == job.result.completion_round
    stats = service.stats()
    assert stats["completion_rounds"]["count"] == len(jobs)
    assert {key: entry["rounds"] for key, entry in stats["shards"].items()} == {
        key: shard.rounds for key, shard in service.shards.items()
    }
