"""JobQueue's indexed batch selection vs an O(pending) rescan.

The queue's index (compatibility-key buckets, each indexed by dilation;
incremental state counts) is a pure data-structure choice — it must be
*behaviorally invisible*. These property tests drive :class:`JobQueue`
and a reference full-scan queue through identical random operation
sequences and assert they can never be told apart:

* :meth:`next_batch` pops the byte-identical batch (same job ids, same
  order) for every batch size — the reference sorts the anchor's whole
  compatibility class by (distance to the anchor's dilation, queue
  position) and takes the first ``batch_size``;
* ``depth`` / ``backlog`` / ``parked()`` / ``by_state()`` agree after
  every operation, with :meth:`JobQueue.recount` (a full O(jobs)
  recount) as the oracle for the incremental counters.

And the nearest-dilation rule keeps FIFO's guarantees: the anchor is
the oldest queued job, a batch never leaves the anchor's bucket, equal
dilations batch exactly like the FIFO rescan the queue replaced, and no
job is passed over by more of its bucket's batches than there were
older jobs in that bucket when it was enqueued.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest import topology
from repro.metrics.congestion import WorkloadParams
from repro.service import JobQueue, JobState
from repro.service.jobs import Job

# Distinct topologies, plus an equal-but-not-identical duplicate of the
# first: the interning layer must treat `==`-equal networks as one
# compatibility class exactly like Job.compatible_with does.
NETWORKS = [
    topology.path_graph(4),
    topology.path_graph(4),  # == NETWORKS[0], is not NETWORKS[0]
    topology.cycle_graph(5),
    topology.grid_graph(2, 3),
]


def _make_job(job_id, net_idx, seed, bits, state=JobState.QUEUED, dilation=None):
    return Job(
        job_id=job_id,
        network=NETWORKS[net_idx],
        algorithm=None,
        master_seed=seed,
        message_bits=bits,
        fingerprint=None,
        tape_id=f"tape:{job_id}",
        state=state,
        params=(
            None
            if dilation is None
            else WorkloadParams(congestion=1, dilation=dilation, num_algorithms=1)
        ),
    )


def _dilation(job):
    # A job without params is filed under dilation 0.
    return job.params.dilation if job.params is not None else 0


class OldScanQueue:
    """List-backed queue with full rescans: the oracle for JobQueue."""

    def __init__(self):
        self.jobs = {}
        self._pending = []

    def add(self, job):
        self.jobs[job.job_id] = job
        if job.state is JobState.QUEUED:
            self._pending.append(job.job_id)

    def requeue(self, job):
        job.state = JobState.QUEUED
        self._pending.append(job.job_id)

    @property
    def depth(self):
        return len(self._pending)

    @property
    def backlog(self):
        return self.depth + sum(
            1 for job in self.jobs.values() if job.state is JobState.PARKED
        )

    def parked(self):
        return [j for j in self.jobs.values() if j.state is JobState.PARKED]

    def next_batch(self, batch_size):
        """Nearest-dilation fill by a whole-bucket sort."""
        if not self._pending or batch_size < 1:
            return []
        anchor = self.jobs[self._pending[0]]
        bucket = [
            (abs(_dilation(self.jobs[job_id]) - _dilation(anchor)), pos, job_id)
            for pos, job_id in enumerate(self._pending)
            if self.jobs[job_id].compatible_with(anchor)
        ]
        chosen = sorted(sorted(bucket)[:batch_size], key=lambda entry: entry[1])
        taken = {job_id for _, _, job_id in chosen}
        self._pending = [j for j in self._pending if j not in taken]
        return [self.jobs[job_id] for _, _, job_id in chosen]

    def by_state(self):
        counts = {state.value: 0 for state in JobState}
        for job in self.jobs.values():
            counts[job.state.value] += 1
        return counts


class FifoScanQueue(OldScanQueue):
    """The FIFO rescan the nearest-dilation rule replaced, verbatim."""

    def next_batch(self, batch_size):
        if not self._pending or batch_size < 1:
            return []
        anchor = self.jobs[self._pending[0]]
        batch, remaining = [], []
        for job_id in self._pending:
            job = self.jobs[job_id]
            if len(batch) < batch_size and job.compatible_with(anchor):
                batch.append(job)
            else:
                remaining.append(job_id)
        self._pending = remaining
        return batch


def _op_lists(dilations):
    """Queue operations: add a job (compat class, initial state and the
    dilation admission measured), pop a batch of some size, park-release
    everything, or finish the popped batches."""
    return st.lists(
        st.one_of(
            st.tuples(
                st.just("add"),
                st.integers(0, len(NETWORKS) - 1),
                st.integers(0, 2),
                st.sampled_from([None, 8]),
                st.sampled_from([JobState.QUEUED, JobState.PARKED]),
                dilations,
            ),
            st.tuples(st.just("batch"), st.integers(1, 5)),
            st.tuples(st.just("release")),
            st.tuples(st.just("finish")),
        ),
        min_size=1,
        max_size=60,
    )


_ops = _op_lists(st.sampled_from([None, 0, 1, 2, 3, 5, 8]))


def _assert_equivalent(new, old):
    assert new.depth == old.depth
    assert new.backlog == old.backlog
    assert [j.job_id for j in new.parked()] == [
        j.job_id for j in old.parked()
    ]
    assert new.by_state() == old.by_state()
    assert new.by_state() == new.recount()


def _drive(ops, queues):
    """Apply ``ops`` to every queue in lockstep, each with its own jobs.

    Yields ``("enqueued", job)`` for every job entering the first
    queue's batching order, ``("batched", batches)`` with one batch per
    queue, and ``("step", None)`` after every operation.
    """
    counter = 0
    popped = [[] for _ in queues]
    for op in ops:
        if op[0] == "add":
            _, net_idx, seed, bits, state, dil = op
            counter += 1
            job_id = f"j{counter:04d}"
            for queue in queues:
                queue.add(_make_job(job_id, net_idx, seed, bits, state, dil))
            if state is JobState.QUEUED:
                yield "enqueued", queues[0].jobs[job_id]
        elif op[0] == "batch":
            batches = [queue.next_batch(op[1]) for queue in queues]
            yield "batched", batches
            # Mirror _next_workload: popped jobs leave QUEUED.
            for batch, mine in zip(batches, popped):
                for job in batch:
                    job.transition(JobState.BATCHED)
                mine.extend(batch)
        elif op[0] == "release":
            for index, queue in enumerate(queues):
                for job in queue.parked():
                    queue.requeue(job)
                    if index == 0:
                        yield "enqueued", job
        else:  # finish: settle every popped job
            for mine in popped:
                for job in mine:
                    job.transition(JobState.RUNNING)
                    job.transition(JobState.DONE)
                mine.clear()
        yield "step", None


def _ids(batch):
    return [job.job_id for job in batch]


class TestIndexedQueueEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(ops=_ops)
    def test_batches_and_counts_indistinguishable_from_old_scan(self, ops):
        new, old = JobQueue(), OldScanQueue()
        for kind, payload in _drive(ops, (new, old)):
            if kind == "batched":
                got, want = payload
                assert _ids(got) == _ids(want)
            elif kind == "step":
                _assert_equivalent(new, old)

    @settings(max_examples=120, deadline=None)
    @given(ops=_ops)
    def test_drain_to_empty_pops_every_queued_job_exactly_once(self, ops):
        new, old = JobQueue(), OldScanQueue()
        counter = 0
        for op in ops:
            if op[0] != "add":
                continue
            _, net_idx, seed, bits, state, dil = op
            counter += 1
            job_id = f"j{counter:04d}"
            new.add(_make_job(job_id, net_idx, seed, bits, state, dil))
            old.add(_make_job(job_id, net_idx, seed, bits, state, dil))
        seen = []
        while True:
            got = new.next_batch(3)
            want = old.next_batch(3)
            assert _ids(got) == _ids(want)
            if not got:
                break
            # every batch is mutually compatible with its anchor
            assert all(j.compatible_with(got[0]) for j in got)
            for job in got:
                job.transition(JobState.BATCHED)
            for job in want:
                job.state = JobState.BATCHED
            seen.extend(_ids(got))
        assert new.depth == 0
        assert len(seen) == len(set(seen))
        queued_ids = [
            j.job_id
            for j in old.jobs.values()
            if j.state is JobState.BATCHED
        ]
        assert sorted(seen) == sorted(queued_ids)


class TestNearestDilationRule:
    @settings(max_examples=200, deadline=None)
    @given(
        dilations=st.lists(st.integers(0, 6), min_size=1, max_size=24),
        sizes=st.lists(st.integers(1, 5), min_size=1, max_size=24),
    )
    def test_one_bucket_drain_matches_oracle(self, dilations, sizes):
        # Many dilations in one bucket, so ties at equal distance occur.
        new, old = JobQueue(), OldScanQueue()
        for index, dilation in enumerate(dilations, start=1):
            new.add(_make_job(f"j{index:04d}", 0, 0, 8, dilation=dilation))
            old.add(_make_job(f"j{index:04d}", 0, 0, 8, dilation=dilation))
        for size in sizes:
            got, want = new.next_batch(size), old.next_batch(size)
            assert _ids(got) == _ids(want)
            for job in got + want:
                job.transition(JobState.BATCHED)
            _assert_equivalent(new, old)

    def test_fill_example(self):
        queue = JobQueue()
        for index, dilation in enumerate([3, 8, 2, 4, 3, 1], start=1):
            queue.add(_make_job(f"j{index:04d}", 0, 0, None, dilation=dilation))
        # Anchor j0001 (3), then j0005 (3); j0003 (2) and j0004 (4) tie
        # at distance 1 and the older one wins. Batches list jobs oldest
        # first.
        assert _ids(queue.next_batch(3)) == ["j0001", "j0003", "j0005"]
        # The long job now anchors and takes the nearest of the rest.
        assert _ids(queue.next_batch(2)) == ["j0002", "j0004"]
        assert _ids(queue.next_batch(2)) == ["j0006"]
        assert queue.depth == 0

    @settings(max_examples=120, deadline=None)
    @given(ops=_ops)
    def test_anchor_is_oldest_and_batch_stays_in_its_bucket(self, ops):
        queue = JobQueue()
        waiting = []  # queued jobs, oldest first
        for kind, payload in _drive(ops, (queue,)):
            if kind == "enqueued":
                waiting.append(payload)
            elif kind == "batched":
                (batch,) = payload
                if not waiting:
                    assert batch == []
                    continue
                assert batch[0] is waiting[0]
                assert all(job.compatible_with(batch[0]) for job in batch)
                # Nearest first: no job left behind in the bucket is
                # closer to the anchor's dilation than one taken.
                anchor = _dilation(batch[0])
                farthest = max(abs(_dilation(j) - anchor) for j in batch)
                taken = set(_ids(batch))
                left = [
                    j
                    for j in waiting
                    if j.job_id not in taken and j.compatible_with(batch[0])
                ]
                if left:
                    assert all(
                        abs(_dilation(j) - anchor) >= farthest for j in left
                    )
                waiting = [j for j in waiting if j.job_id not in taken]
            else:
                assert queue.depth == len(waiting)
                assert queue.by_state() == queue.recount()

    @settings(max_examples=120, deadline=None)
    @given(
        ops=st.integers(0, 6).flatmap(
            lambda d: _op_lists(
                st.sampled_from([None, 0]) if d == 0 else st.just(d)
            )
        )
    )
    def test_equal_dilations_batch_exactly_like_fifo(self, ops):
        new, fifo = JobQueue(), FifoScanQueue()
        for kind, payload in _drive(ops, (new, fifo)):
            if kind == "batched":
                got, want = payload
                assert _ids(got) == _ids(want)
            elif kind == "step":
                _assert_equivalent(new, fifo)

    @settings(max_examples=120, deadline=None)
    @given(ops=_ops)
    def test_no_job_passed_over_by_more_batches_than_older_bucket_jobs(
        self, ops
    ):
        queue = JobQueue()
        waiting = []
        older = {}  # job id -> older queued jobs of its bucket at enqueue
        passed = {}  # job id -> batches of its bucket that left it queued
        for kind, payload in _drive(ops, (queue,)):
            if kind == "enqueued":
                job = payload
                older[job.job_id] = sum(
                    1 for other in waiting if other.compatible_with(job)
                )
                passed[job.job_id] = 0
                waiting.append(job)
            elif kind == "batched":
                (batch,) = payload
                taken = set(_ids(batch))
                waiting = [j for j in waiting if j.job_id not in taken]
                for job in waiting:
                    if batch and job.compatible_with(batch[0]):
                        passed[job.job_id] += 1
                        assert passed[job.job_id] <= older[job.job_id]


class TestIncrementalCounts:
    def test_transitions_keep_counts_exact(self):
        queue = JobQueue()
        jobs = [_make_job(f"j{i:04d}", i % 3, 0, None) for i in range(9)]
        for job in jobs:
            queue.add(job)
        assert queue.by_state() == queue.recount()
        batch = queue.next_batch(4)
        for job in batch:
            job.transition(JobState.BATCHED)
            job.transition(JobState.RUNNING)
            job.transition(JobState.DONE)
        assert queue.by_state() == queue.recount()
        assert queue.by_state()["done"] == len(batch)

    def test_overwriting_add_does_not_double_count(self):
        queue = JobQueue()
        job = _make_job("j0001", 0, 0, None, state=JobState.PARKED)
        queue.add(job)
        replacement = _make_job("j0001", 0, 0, None, state=JobState.DONE)
        queue.add(replacement)
        assert queue.by_state() == queue.recount()
        assert queue.parked() == []

    def test_equal_networks_share_a_bucket(self):
        queue = JobQueue()
        a = _make_job("j0001", 0, 0, None)  # path_graph(4)
        b = _make_job("j0002", 1, 0, None)  # distinct-but-== path_graph(4)
        queue.add(a)
        queue.add(b)
        batch = queue.next_batch(8)
        assert [j.job_id for j in batch] == ["j0001", "j0002"]
