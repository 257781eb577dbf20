"""The batch scheduling service: per-network shards, one process pool.

This is the serving shape the paper's result wants (Theorem 1.1:
``k`` algorithms amortize into one ``O(congestion + dilation·log n)``
schedule on *one* network): callers :meth:`~SchedulerService.submit`
independent ``(network, algorithm)`` jobs over time, the service
batches compatible jobs — same network, master seed, and message
budget — into single :class:`~repro.core.workload.Workload` executions
scheduled by any existing :class:`~repro.core.base.Scheduler`, and each
job gets back exactly the outputs of its standalone run (stable tape
identities make this hold batch-invariantly, even for randomized
algorithms).

Pipeline per submission::

    submit ──registry hit──────────────────────────▶ done (no execution)
       └────miss──▶ admission probe ──reject/park──▶ rejected / parked
                        └──admit──▶ queued ──▶ batched ──▶ running ──▶ done
                                                              └─retry─▶ failed

Jobs on different networks share nothing — not the graph, not the
congestion, not the random tapes — so every submission is routed by
:func:`shard_key` to its network's :class:`Shard`: a queue, a
write-ahead journal segment and an event log of its own, under
``<directory>/shards/<key>/``. :meth:`~SchedulerService.drain` stages
one *wave* at a time — every batch every shard can form now — and runs
it over one :class:`~repro.parallel.runner.ParallelRunner`, so batches
of independent networks are in flight together. What the shards share
is exactly what is safe to share: the content-addressed
:class:`~repro.service.registry.RunRegistry`, the solo-run cache, the
recorder, the job-id sequence, and the configuration.

Execution is resilient by construction: batches run through
:meth:`~repro.core.base.Scheduler.run_resilient`, so fault-induced
errors (:class:`~repro.core.base.ScheduleFailure` from exhausted
retransmissions, tripped round budgets, coverage collapse) become
structured results; jobs whose batch died or diverged are retried as
solo executions — with bounded exponential backoff between attempts —
up to ``max_retries`` before being marked ``failed``, and a batch that
exceeds ``stuck_batch_timeout`` is distrusted wholesale and sent down
the same retry path: one bad job cannot sink its batchmates.

Crash safety is the journal's job (:mod:`repro.service.journal`): with
a ``directory``, every state transition is appended to its shard's
write-ahead log *before* it is applied, and
:meth:`SchedulerService.recover` rebuilds every shard's queue and
parked set after a crash — replaying idempotently against the registry
so an acknowledged completion (its artifact landed) is never executed
twice, and quarantining a job whose batch died ``poison_threshold``
times into the ``quarantined`` dead-letter state instead of letting it
crash every restart. The critical sections are threaded with named
:func:`~repro.faults.crashpoints.crash_point` markers
(:data:`CRASH_POINTS`) so the recovery contract is enforced by killing
the service at every one of them in tests and CI.

Telemetry follows the Recorder pattern used everywhere else: attach an
:class:`~repro.telemetry.InMemoryRecorder` for ``service.*`` counters
(submissions, admissions, rejections, batches, registry traffic), the
``service.queue_depth`` gauge, the ``service.batch_size`` histogram,
and ``service.batch`` / ``service.drain`` spans.
"""

from __future__ import annotations

import copy
import time
from bisect import bisect_left, insort
from collections import deque
from itertools import count
from pathlib import Path
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..congest.message import default_message_bits
from ..congest.network import Network
from ..congest.program import Algorithm
from ..congest.simulator import SoloRun
from ..core.base import ScheduleResult, Scheduler
from ..core.random_delay import RandomDelayScheduler
from ..core.workload import Workload
from ..faults.crashpoints import crash_point
from ..metrics.congestion import measure_params
from ..metrics.schedule import ENGINE_COUNTERS, ScheduleReport
from ..parallel.cache import network_fingerprint
from ..parallel.runner import ParallelRunner
from ..telemetry import NULL_RECORDER, Recorder
from .admission import AdmissionPolicy
from .events import EventLog, LatencyAccumulator, check_fsync
from .jobs import TRANSITIONS, Job, JobResult, JobState, id_order, job_fingerprint
from .journal import (
    TERMINAL_RECORD_STATES,
    JobJournal,
    JournalState,
    decode_job_payload,
    encode_job_payload,
    read_journal,
)
from .registry import RunArtifact, RunRegistry

__all__ = [
    "CRASH_POINTS", "JobQueue", "SchedulerService", "ServiceClosed",
    "ShardedSchedulerService", "shard_key",
]

#: Every named crash point the service threads through its write-ahead
#: critical sections, in lifecycle order. ``pre_journal`` points kill
#: the process before the intent record lands (the transition must
#: vanish on recovery); ``post_journal`` points kill it after the
#: record but before the in-memory transition (recovery must finish the
#: transition); ``complete.pre_registry`` / ``complete.pre_journal``
#: bracket the artifact store so recovery proves exactly-once
#: completion on both sides of the acknowledgement.
CRASH_POINTS = (
    "submit.pre_journal",
    "submit.post_journal",
    "admission.post_journal",
    "release.post_journal",
    "batch.pre_journal",
    "batch.post_journal",
    "complete.pre_registry",
    "complete.pre_journal",
    "complete.post_journal",
    "failed.pre_journal",
    "failed.post_journal",
)


#: Hex digits of the network fingerprint used as the shard directory
#: name: 48 bits, short enough to read in a path. By the birthday bound
#: two of about 2×10^7 distinct networks already share a key with even
#: odds. Networks whose keys collide share a shard — one journal segment
#: and event log — but never a batch: the shard's :class:`JobQueue`
#: interns networks by ``==``, so each keeps its own compatibility
#: bucket.
SHARD_KEY_CHARS = 12


def shard_key(network: Network) -> str:
    """Stable shard id of a network (fingerprint-derived, path-safe)."""
    return f"net-{network_fingerprint(network)[:SHARD_KEY_CHARS]}"


class ServiceClosed(RuntimeError):
    """Raised when submitting to a service that has been shut down."""


class _DilationBucket:
    """One compatibility class's queued jobs, indexed by dilation.

    ``lanes[d]`` holds the ``(enqueue seq, job id)`` of every queued job
    of dilation ``d`` in enqueue order; ``dilations`` is the sorted list
    of the dilations whose lane is non-empty.
    """

    __slots__ = ("dilations", "lanes")

    def __init__(self) -> None:
        self.dilations: List[int] = []
        self.lanes: Dict[int, Deque[Tuple[int, str]]] = {}

    def push(self, dilation: int, seq: int, job_id: str) -> None:
        lane = self.lanes.get(dilation)
        if lane is None:
            lane = self.lanes[dilation] = deque()
            insort(self.dilations, dilation)
        lane.append((seq, job_id))

    def pop_nearest(self, dilation: int, limit: int) -> List[Tuple[int, str]]:
        """Pop up to ``limit`` entries nearest to ``dilation``, the
        older first among equally near ones.

        ``dilation`` must have a non-empty lane. Two cursors walk
        outward from it, each at the head of the nearest non-empty lane
        on its side, so a pop costs O(1) and the call
        O(limit + log #dilations); the lanes it empties are contiguous
        and leave ``dilations`` as one slice.
        """
        dilations, lanes = self.dilations, self.lanes
        lo = bisect_left(dilations, dilation)
        hi = lo + 1
        taken: List[Tuple[int, str]] = []
        while len(taken) < limit and (lo >= 0 or hi < len(dilations)):
            take_lo = hi == len(dilations) or (
                lo >= 0
                and (dilation - dilations[lo], lanes[dilations[lo]][0][0])
                < (dilations[hi] - dilation, lanes[dilations[hi]][0][0])
            )
            side = lo if take_lo else hi
            lane = lanes[dilations[side]]
            taken.append(lane.popleft())
            if not lane:
                del lanes[dilations[side]]
                if take_lo:
                    lo -= 1
                else:
                    hi += 1
        del dilations[lo + 1 : hi]
        return taken


def _dilation(job: Job) -> int:
    """The admission-measured dilation the queue files a job under."""
    return job.params.dilation if job.params is not None else 0


class JobQueue:
    """Job store with nearest-dilation batch selection.

    The oldest queued job anchors every batch; the rest of the batch
    comes from the anchor's *compatibility bucket* — the interned
    network identity plus ``(master_seed, message_bits)``, exactly the
    partition :meth:`~repro.service.jobs.Job.compatible_with` induces —
    taking the jobs whose admission-measured dilation is closest to the
    anchor's (see :meth:`next_batch`). Each bucket is indexed by
    dilation (:class:`_DilationBucket`), so selection is
    O(batch + log #dilations), not O(pending). Per-state counts (and
    the parked set) are maintained incrementally through the job
    transition observer, so :attr:`backlog` / :meth:`by_state` /
    :meth:`parked` stop iterating every job ever seen on each stats
    poll.
    """

    def __init__(self) -> None:
        self.jobs: Dict[str, Job] = {}
        #: Global enqueue-ordered deque of queued job ids; ids popped
        #: through a bucket are skipped lazily when they surface at the
        #: head.
        self._pending: Deque[str] = deque()
        self._popped: set = set()
        self._enqueued = 0
        self._buckets: Dict[Tuple[int, int, Optional[int]], _DilationBucket] = {}
        self._key_of: Dict[str, Tuple[int, int, Optional[int]]] = {}
        #: Interned distinct networks (by ``is`` / ``==``), giving each
        #: compatibility class a stable small-integer handle.
        self._networks: List[Any] = []
        self._net_index: Dict[int, int] = {}
        self._retained: List[Any] = []
        self._depth = 0
        self._counts: Dict[JobState, int] = {state: 0 for state in JobState}
        self._parked: Dict[str, Job] = {}

    # ------------------------------------------------------------------

    def _intern_network(self, network: Any) -> int:
        # id() is a safe cache key because every mapped object is kept
        # alive in _retained, so a live id can never be recycled.
        idx = self._net_index.get(id(network))
        if idx is not None:
            return idx
        for known_idx, known in enumerate(self._networks):
            if known is network or known == network:
                idx = known_idx
                break
        else:
            self._networks.append(network)
            idx = len(self._networks) - 1
        self._net_index[id(network)] = idx
        self._retained.append(network)
        return idx

    def _compat_key(self, job: Job) -> Tuple[int, int, Optional[int]]:
        return (
            self._intern_network(job.network),
            job.master_seed,
            job.message_bits,
        )

    def _enqueue(self, job: Job) -> None:
        key = self._compat_key(job)
        self._key_of[job.job_id] = key
        self._pending.append(job.job_id)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = _DilationBucket()
        self._enqueued += 1
        bucket.push(_dilation(job), self._enqueued, job.job_id)
        self._depth += 1

    def _on_transition(self, job: Job, old: JobState, new: JobState) -> None:
        self._counts[old] -= 1
        self._counts[new] += 1
        if old is JobState.PARKED:
            self._parked.pop(job.job_id, None)
        if new is JobState.PARKED:
            self._parked[job.job_id] = job

    def add(self, job: Job) -> None:
        """Register a job; queued jobs are also enqueued for batching."""
        previous = self.jobs.get(job.job_id)
        if previous is not None:
            self._counts[previous.state] -= 1
            self._parked.pop(previous.job_id, None)
        self.jobs[job.job_id] = job
        self._counts[job.state] += 1
        job._observer = self._on_transition
        if job.state is JobState.QUEUED:
            self._enqueue(job)
        elif job.state is JobState.PARKED:
            self._parked[job.job_id] = job

    def requeue(self, job: Job) -> None:
        """Put a parked job back into the queue (as its youngest job)."""
        job.transition(JobState.QUEUED)
        self._enqueue(job)

    @property
    def depth(self) -> int:
        """Jobs waiting to be batched (queued only)."""
        return self._depth

    @property
    def backlog(self) -> int:
        """Jobs the service still owes work: queued + parked."""
        return self._depth + len(self._parked)

    def parked(self) -> List[Job]:
        """Every job currently parked by admission control."""
        return list(self._parked.values())

    def next_batch(self, batch_size: int) -> List[Job]:
        """Pop up to ``batch_size`` mutually compatible queued jobs.

        The oldest queued job anchors the batch. The rest are the jobs
        :meth:`~repro.service.jobs.Job.compatible_with` the anchor (same
        network / master seed / message budget) whose admission-measured
        dilation (``job.params.dilation``; 0 without params) is closest
        to the anchor's, the older job first on a tie. The batch lists
        its jobs oldest first (the anchor leads). A batch runs for about
        ``phase_size × max_i D_i`` rounds, so keeping similar dilations
        together keeps one long job from stretching many short ones.
        With equal dilations this is FIFO within the bucket.

        Nothing starves: every batch of a bucket holds that bucket's
        oldest queued job, so a job is passed over by at most as many
        of its bucket's batches as there are older jobs in it.
        """
        if batch_size < 1:
            return []
        while self._pending and self._pending[0] in self._popped:
            self._popped.discard(self._pending.popleft())
        if not self._pending:
            return []
        anchor = self.jobs[self._pending[0]]
        bucket = self._buckets[self._key_of[anchor.job_id]]
        batch: List[Job] = []
        for _seq, job_id in sorted(
            bucket.pop_nearest(_dilation(anchor), batch_size)
        ):
            self._popped.add(job_id)
            batch.append(self.jobs[job_id])
        self._depth -= len(batch)
        return batch

    def by_state(self) -> Dict[str, int]:
        """Job counts per lifecycle state (all states always present)."""
        return {state.value: self._counts[state] for state in JobState}

    def recount(self) -> Dict[str, int]:
        """Full O(jobs) recount of :meth:`by_state` (test oracle)."""
        counts = {state.value: 0 for state in JobState}
        for job in self.jobs.values():
            counts[job.state.value] += 1
        return counts


def _execute_payload(
    payload: Tuple[Scheduler, Workload, int]
) -> Tuple[ScheduleResult, float]:
    # Module-level trampoline so ParallelRunner can pickle the task.
    # Returns (result, elapsed) so the parent can apply its stuck-batch
    # timeout to pool executions it never clocked itself.
    scheduler, workload, seed = payload
    start = time.perf_counter()
    result = scheduler.run_resilient(workload, seed=seed)
    return result, time.perf_counter() - start


def _provenance(job: Job) -> Dict[str, Any]:
    # Fuzz provenance stamped at submission (spec["scenario"] /
    # spec["fuzz_seed"]); empty for ordinary jobs.
    return {
        key: job.meta[key]
        for key in ("scenario", "fuzz_seed")
        if key in job.meta
    }


def _tape_id(fingerprint: Optional[str], job_id: str) -> str:
    """The tape identity salted into a job's random tapes: stable across
    resubmissions, or per job id when the job is unaddressable."""
    return f"job:{fingerprint[:24]}" if fingerprint else f"job-anon:{job_id}"


def _artifact_result(
    artifact: RunArtifact, completion_round: Optional[int] = None
) -> JobResult:
    """A job's result as its artifact holds it: served from the registry,
    or fresh from the execution that finished by ``completion_round``."""
    return JobResult(
        outputs=dict(artifact.outputs),
        solo_rounds=artifact.solo_rounds,
        scheduler=artifact.scheduler,
        batch_size=artifact.batch_size,
        from_registry=completion_round is None,
        version=artifact.version,
        completion_round=completion_round,
    )


class Shard:
    """One network's share of a :class:`SchedulerService`.

    A shard owns the per-network state — its :class:`JobQueue`, its
    journal segment and event log (files under
    ``<directory>/shards/<key>/`` when the service has a directory),
    :attr:`reports` and :attr:`rounds` of its executions, and its batch
    id counter — and the lifecycle steps that move its jobs. It has no
    options of its own: every setting is read from :attr:`service`.
    """

    def __init__(self, service: "SchedulerService", key: str):
        self.service = service
        self.key = key
        self.queue = JobQueue()
        base = (
            service.directory / "shards" / key
            if service.directory is not None
            else None
        )
        self.events: Optional[EventLog] = None
        if service.events:
            self.events = EventLog(
                base / "events.jsonl" if base is not None else None,
                fsync=service.fsync,
            )
        self.journal: Optional[JobJournal] = None
        #: Reports of every workload execution (batches and solo
        #: retries), in execution order.
        self.reports: List[ScheduleReport] = []
        #: Σ ``length_rounds`` over :attr:`reports`: the rounds this
        #: shard's executions have taken, one after another.
        self.rounds = 0
        self._batch_counter = 0
        if base is not None:
            self.journal = JobJournal(base / "journal.jsonl", fsync=service.fsync)
            # Continue the id chains of whatever history the journal
            # replayed, so post-restart ids never collide with
            # journaled ones.
            self._batch_counter = self.journal.state.last_batch
            service._job_counter = max(
                service._job_counter, self.journal.state.last_job
            )

    def _transition(
        self,
        job: Job,
        kind: str,
        reason: Optional[str] = None,
        record: Optional[Dict[str, Any]] = None,
        pre: Optional[str] = None,
        post: Optional[str] = None,
        batch: Optional[str] = None,
        counted: bool = True,
        replayed: bool = False,
        **attrs: Any,
    ) -> None:
        """Move ``job`` by the lifecycle record ``kind`` (a key of
        :data:`~repro.service.jobs.TRANSITIONS`): the only code that
        journals, applies, counts and announces a transition.

        Write-ahead: the record (``job``, ``reason`` when given, and
        ``record``) is appended between the site's crash points ``pre``
        and ``post`` before the job moves. The event carries ``batch``,
        a non-empty ``reason`` and ``attrs``. A ``replayed`` transition
        is already journaled: the job moves, and that is all. Every
        transition bumps its kind's counter but a registry hit at
        submission (``counted=False``: the registry counts it).
        """
        state, counter = TRANSITIONS[kind]
        if self.journal is not None and not replayed:
            if pre is not None:
                crash_point(pre)
            if reason is not None:
                record = {"reason": reason, **(record or {})}
            self.journal.append(kind, job=job.job_id, **(record or {}))
            if post is not None:
                crash_point(post)
        if self.queue.jobs.get(job.job_id) is not job:
            job.state = state
            job.reason = reason or job.reason
            self.queue.add(job)
        elif state is JobState.QUEUED:
            self.queue.requeue(job)
        else:
            job.transition(state, reason=reason or "")
        if replayed:
            return
        recorder = self.service.recorder
        if counted and counter is not None and recorder.enabled:
            recorder.counter(counter)
        if reason:
            attrs = {"reason": reason, **attrs}
        self._emit(kind, job, batch, **attrs)

    def _emit(
        self, kind: str, job: Job, batch: Optional[str] = None, **attrs: Any
    ) -> None:
        """Log one lifecycle event of ``job``, stamped with its
        fingerprint and the queue depth now."""
        if self.events is not None:
            self.events.emit(
                kind,
                job.job_id,
                fingerprint=job.fingerprint,
                batch=batch,
                queue_depth=self.queue.depth,
                **attrs,
            )

    def _gauge_depth(self) -> None:
        recorder = self.service.recorder
        if recorder.enabled:
            recorder.gauge("service.queue_depth", self.queue.depth)

    # ------------------------------------------------------------------
    # submission and admission
    # ------------------------------------------------------------------

    def _enter(self, job: Job, spec: Optional[Dict[str, Any]]) -> Job:
        """Journal a new ``job`` (``spec`` rides in its record, see
        :meth:`SchedulerService.submit`), then serve it from the
        registry or put it through admission; returns it in its
        post-admission state."""
        service = self.service
        if self.journal is not None:
            # Write-ahead: the job exists durably before it exists in
            # memory. A crash before this line means the submission was
            # never acknowledged and legitimately vanishes.
            payload = encode_job_payload(job.network, job.algorithm, spec)
            crash_point("submit.pre_journal")
            self.journal.append(
                "submit",
                job=job.job_id,
                fingerprint=job.fingerprint,
                master_seed=job.master_seed,
                message_bits=job.message_bits,
                algorithm=job.algorithm.name,
                payload=payload,
                spool=job.meta.get("spool"),
            )
            crash_point("submit.post_journal")
        if service.recorder.enabled:
            service.recorder.counter("service.submitted")
        self._emit("submitted", job)

        artifact = service.registry.get(job.fingerprint)
        if artifact is not None:
            job.result = _artifact_result(artifact)
            self._transition(
                job,
                "done",
                record={"from_registry": True},
                counted=False,
                from_registry=True,
            )
            return job

        job.params = measure_params([service._probe(job)])
        self._admit(job)
        self._gauge_depth()
        return job

    def _admit(self, job: Job) -> None:
        """Journal and apply the admission policy's decision on ``job``.

        The global queue-depth gate judges the backlog across every
        shard, the per-shard gate this queue's.
        """
        service = self.service
        decision = service.policy.check(
            job.params, service.backlog(), shard_depth=self.queue.backlog
        )
        if decision.admitted:
            self._transition(job, "admitted", post="admission.post_journal")
            return
        if decision.action == "park" and decision.cause:
            job.meta["park_cause"] = decision.cause
        self._transition(
            job,
            "parked" if decision.action == "park" else "rejected",
            decision.reason,
            post="admission.post_journal",
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _next_workload(self) -> Optional[Tuple[str, List[Job], Workload]]:
        service = self.service
        batch = self.queue.next_batch(service.batch_size)
        if not batch:
            return None
        self._batch_counter += 1
        batch_id = f"b{self._batch_counter:04d}"
        if self.journal is not None:
            # Journal batch membership before any job transitions: a
            # crash mid-batch must leave a durable record that these
            # jobs were attempted (that is what the poison counter and
            # quarantine decision are computed from on recovery).
            crash_point("batch.pre_journal")
            self.journal.append(
                "batch",
                batch=batch_id,
                jobs=[job.job_id for job in batch],
            )
            crash_point("batch.post_journal")
        workload = service._workload(batch)
        for job in batch:
            job.transition(JobState.BATCHED)
            job.meta["batch"] = batch_id
            self._emit("batched", job, batch_id, batch_jobs=len(batch))
        if service.recorder.enabled:
            service.recorder.counter("service.batches")
            service.recorder.observe("service.batch_size", len(batch))
        self._gauge_depth()
        return batch_id, batch, workload

    def _record(self, report: ScheduleReport) -> int:
        """Log one execution's report; returns the round of this
        shard's running total at which the execution started."""
        start = self.rounds
        self.reports.append(report)
        self.rounds += report.length_rounds
        return start

    def _settle(
        self,
        batch_id: str,
        batch: List[Job],
        result: ScheduleResult,
        elapsed: Optional[float] = None,
    ) -> None:
        """Assign a batch execution's outcome to its jobs (with retries)."""
        service = self.service
        start = self._record(result.report)
        failure = result.failure
        timeout = service.stuck_batch_timeout
        if timeout is not None and elapsed is not None and elapsed > timeout:
            failure = (
                f"stuck batch: {elapsed:.3f}s exceeded "
                f"stuck_batch_timeout={timeout}s"
            )
            if service.recorder.enabled:
                service.recorder.counter("service.stuck_batches")
        served = set(result.verified_algorithms) if failure is None else set()
        retry_ids = count(1)
        for aid, job in enumerate(batch):
            job.transition(JobState.RUNNING)
            job.attempts += 1
            if aid in served:
                self._complete(job, result, aid, batch_id, batch_id, start)
            else:
                self._retry_solo(job, batch_id, retry_ids, failure=failure)

    def _retry_solo(
        self, job: Job, batch_id: str, retry_ids: Iterator[int], failure=None
    ) -> None:
        """Re-execute a job alone until it verifies or retries run out.

        Each attempt is an execution of its own, ``<batch>.r<n>`` with
        ``n`` counting the retries of that batch, so its rounds are
        recorded under its own id; journal records and events stay
        keyed by the batch.
        """
        service = self.service
        last_reason = str(failure) if failure is not None else "outputs diverged"
        for attempt in range(service.max_retries):
            if service.retry_backoff > 0:
                delay = min(
                    service.retry_backoff * 2**attempt, service.retry_backoff_max
                )
                if delay > 0:
                    service._sleep(delay)
            execution_id = f"{batch_id}.r{next(retry_ids)}"
            if service.recorder.enabled:
                service.recorder.counter("service.retries")
            self._emit(
                "retried",
                job,
                batch_id,
                attempt=job.attempts + 1,
                execution=execution_id,
                reason=last_reason,
                **_provenance(job),
            )
            job.attempts += 1
            result = service._batch_scheduler().run_resilient(
                service._workload([job]), seed=service.schedule_seed
            )
            start = self._record(result.report)
            if result.correct:
                self._complete(job, result, 0, batch_id, execution_id, start)
                return
            last_reason = (
                str(result.failure)
                if result.failure is not None
                else f"{len(result.mismatches)} outputs diverged"
            )
        self._transition(
            job,
            "failed",
            last_reason,
            pre="failed.pre_journal",
            post="failed.post_journal",
            batch=batch_id,
            **_provenance(job),
        )

    def _complete(
        self,
        job: Job,
        result: ScheduleResult,
        aid: int,
        batch_id: str,
        execution_id: str,
        start: int,
    ) -> None:
        """Settle ``job`` as algorithm ``aid`` of the verified execution
        ``execution_id`` (the batch itself, or one of its solo retries),
        which began at round ``start`` of this shard's running total."""
        report = result.report
        outputs = {
            node: value for (a, node), value in result.outputs.items() if a == aid
        }
        # Jobs of a scheduler without per-algorithm completion rounds
        # finish when their execution does.
        completion_round = start + (
            report.completion_rounds[aid]
            if report.completion_rounds is not None
            else report.length_rounds
        )
        artifact = RunArtifact(
            fingerprint=job.fingerprint,
            outputs=outputs,
            solo_rounds=job.params.dilation if job.params is not None else 0,
            scheduler=report.scheduler,
            batch_size=report.params.num_algorithms,
            version=report.version,
            meta={
                "batch": execution_id,
                "schedule_seed": self.service.schedule_seed,
                "length_rounds": report.length_rounds,
                "completion_round": completion_round,
            },
        )
        # Completion order is the exactly-once contract: the artifact
        # lands in the registry FIRST, the journal acknowledges SECOND,
        # the in-memory transition happens LAST. A crash between
        # registry.put and the journal record leaves a pending job whose
        # artifact already exists — recovery finds the registry hit and
        # marks it done without re-executing; a crash before registry.put
        # re-executes, which is legal because nothing was acknowledged.
        crash_point("complete.pre_registry")
        if job.fingerprint is not None:
            self.service.registry.put(artifact)
        job.result = _artifact_result(artifact, completion_round)
        self._transition(
            job,
            "done",
            record={"batch": batch_id},
            pre="complete.pre_journal",
            post="complete.post_journal",
            batch=batch_id,
            batch_size=artifact.batch_size,
            completion_round=completion_round,
        )

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------

    def _replay(self) -> None:
        """Materialize the journal's jobs into the live queue.

        Terminal jobs are restored as-is; every still-pending job is
        re-decided (:meth:`_redecide_pending`). Replaying twice is a
        no-op.
        """
        journal = self.journal
        if journal is None:
            return
        for job_id in sorted(journal.state.jobs, key=id_order):
            if job_id in self.queue.jobs:
                continue
            entry = journal.state.jobs[job_id]
            recorded_state = entry["state"]
            fingerprint = entry.get("fingerprint")
            decoded = None
            if recorded_state not in TERMINAL_RECORD_STATES:
                decoded = decode_job_payload(entry.get("payload"))
            network, algorithm = decoded if decoded is not None else (None, None)
            job = Job(
                job_id=job_id,
                network=network,
                algorithm=algorithm,
                master_seed=entry.get("master_seed", 0),
                message_bits=entry.get("message_bits"),
                fingerprint=fingerprint,
                tape_id=_tape_id(fingerprint, job_id),
            )
            job.attempts = entry.get("batch_attempts", 0)
            job.meta["recovered"] = True
            job.meta["algorithm"] = entry.get("algorithm", "?")
            if entry.get("spool"):
                job.meta["spool"] = entry["spool"]
            if entry.get("batch"):
                job.meta["batch"] = entry["batch"]
            payload = entry.get("payload")
            if isinstance(payload, dict) and "net" in payload:
                job.meta["net"] = payload["net"]
                job.meta["algo"] = payload["algo"]
            if recorded_state in TERMINAL_RECORD_STATES:
                self._restore_terminal(job, entry)
            else:
                self._redecide_pending(job, entry)
        self._gauge_depth()

    def _restore_terminal(self, job: Job, entry: Dict[str, Any]) -> None:
        """Re-create a job whose journaled state is already terminal."""
        state = entry["state"]
        reason = entry.get("reason") or {
            "failed": "failed before crash", "quarantined": "quarantined"
        }.get(state, "")
        if state == "done":
            artifact = self.service.registry.get(job.fingerprint)
            if artifact is not None:
                job.result = _artifact_result(artifact)
                reason = ""
            else:
                # In-memory registry, or artifact pruned: the completion
                # stands (it was acknowledged) but outputs are gone.
                reason = "recovered: result artifact unavailable"
        self._transition(job, state, reason, replayed=True)

    def _redecide_pending(self, job: Job, entry: Dict[str, Any]) -> None:
        """Decide what a journaled-but-unfinished job becomes now.

        Every outcome is journaled before it is applied, keeping the
        WAL discipline through recovery itself — which is what makes
        recovering twice converge to the same state.
        """
        service = self.service
        artifact = service.registry.get(job.fingerprint)
        if artifact is not None:
            # The crash hit between registry.put and the journal's
            # "done" record: the result was durably acknowledged, so
            # finishing the paperwork — not re-executing — is the only
            # correct move (exactly-once completion).
            job.result = _artifact_result(artifact)
            self._transition(
                job,
                "done",
                record={"from_registry": True},
                from_registry=True,
                recovered=True,
            )
            return
        if entry.get("batch_attempts", 0) >= service.poison_threshold:
            self._transition(
                job,
                "quarantined",
                f"quarantined after {entry['batch_attempts']} journaled "
                f"batch attempts (poison_threshold={service.poison_threshold})",
            )
            return
        if job.network is None or job.algorithm is None:
            self._transition(
                job, "failed", "recovered: job payload unrecoverable"
            )
            return
        job.params = measure_params([service._probe(job)])
        if entry["state"] in ("submitted", "parked"):
            # "submitted": the crash landed before any admission
            # decision. "parked": the old decision was to wait for a
            # bigger budget. Either way the *current* policy decides,
            # through the same journaled path as a live submit — a
            # restart with a raised budget releases parked jobs instead
            # of stranding them parked forever (and re-parks them,
            # journaled again, when the budget still says no).
            self._admit(job)
            return
        self.queue.add(job)  # a rebuilt Job starts queued
        if service.recorder.enabled:
            service.recorder.counter("service.recovered")
        self._emit("recovered", job, state=entry["state"])


class SchedulerService:
    """Accepts jobs, batches them per network, executes, and persists
    results.

    Parameters
    ----------
    directory:
        Service directory: every shard journals to and logs events
        under ``<directory>/shards/<key>/``, and the default registry
        lives at ``<directory>/registry``. ``None`` keeps everything in
        memory (no journal, so nothing to :meth:`recover`).
    scheduler:
        Scheduler executing each batched workload (default
        :class:`~repro.core.random_delay.RandomDelayScheduler` — the
        Theorem 1.1 construction).
    batch_size:
        Maximum jobs per workload execution.
    policy:
        :class:`~repro.service.admission.AdmissionPolicy` applied at
        submission (default: admit everything).
    registry:
        :class:`~repro.service.registry.RunRegistry` serving
        resubmissions and persisting artifacts (default: the
        directory's, or a fresh memory-only one without a directory).
    recorder:
        Telemetry sink for ``service.*`` metrics; also threaded into
        the scheduler and registry.
    runner:
        :class:`~repro.parallel.runner.ParallelRunner` each
        :meth:`drain` wave is mapped over (default serial).
    max_retries:
        Solo re-executions granted to a job whose batch failed or
        diverged before it is marked ``failed``.
    schedule_seed:
        Seed for the scheduler's own randomness (delays, cluster
        radii), fixed per service for reproducibility.
    solo_cache:
        Passed through to every workload built by the service (default:
        the process-wide solo-run cache, which also makes admission
        probes free once the reference exists).
    events:
        Keep a job-lifecycle event log per shard (see
        :mod:`repro.service.events`), from which :meth:`stats` derives
        queue/end-to-end latency histograms and a jobs/sec gauge: a
        ``events.jsonl`` file beside the shard's journal with a
        directory, in memory without one. ``None`` disables lifecycle
        events entirely.
    fsync:
        Durability policy of every journal segment and event log (see
        :data:`~repro.service.events.FSYNC_POLICIES`).
    stuck_batch_timeout:
        Wall-clock seconds after which a batch execution is distrusted:
        its jobs go down the solo-retry path instead of being settled
        from the (suspiciously slow) result. ``None`` never times out.
    retry_backoff / retry_backoff_max:
        Base and cap of the exponential backoff slept between solo
        retries of a failed job (``min(retry_backoff * 2**attempt,
        retry_backoff_max)`` seconds). The default base of 0 disables
        sleeping, which keeps tests and in-memory services fast.
    poison_threshold:
        Journaled batch attempts after which :meth:`recover` moves a
        still-pending job to the ``quarantined`` dead-letter state
        instead of re-queueing it — a job that killed the process this
        many times stops sinking its batchmates.
    transport:
        Message-transport backend (see :mod:`repro.core.transport`) of
        the admission probes and the batch workloads, whose engines read
        it from the workload. ``None`` is the numpy default. Backends
        are bit-identical, so this only affects wall-clock time.
    """

    def __init__(
        self,
        directory: Union[str, Path, None] = None,
        scheduler: Optional[Scheduler] = None,
        batch_size: int = 8,
        policy: Optional[AdmissionPolicy] = None,
        registry: Optional[RunRegistry] = None,
        recorder: Recorder = NULL_RECORDER,
        runner: Optional[ParallelRunner] = None,
        max_retries: int = 1,
        schedule_seed: int = 1,
        solo_cache: Any = "default",
        events: Optional[bool] = True,
        fsync: str = "batch",
        stuck_batch_timeout: Optional[float] = None,
        retry_backoff: float = 0.0,
        retry_backoff_max: float = 0.5,
        poison_threshold: int = 3,
        transport: Any = None,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if stuck_batch_timeout is not None and stuck_batch_timeout <= 0:
            raise ValueError("stuck_batch_timeout must be positive (or None)")
        if retry_backoff < 0 or retry_backoff_max < 0:
            raise ValueError("retry backoff values must be non-negative")
        if poison_threshold < 1:
            raise ValueError("poison_threshold must be >= 1")
        if events not in (True, False, None):
            raise ValueError("events must be True, or None (or False) to disable them")
        self.directory = Path(directory) if directory is not None else None
        self.scheduler = scheduler if scheduler is not None else RandomDelayScheduler()
        self.batch_size = batch_size
        self.policy = policy if policy is not None else AdmissionPolicy()
        if registry is None:
            registry = RunRegistry(
                self.directory / "registry" if self.directory is not None else None
            )
        self.registry = registry
        self.recorder = recorder
        if recorder.enabled and registry.recorder is NULL_RECORDER:
            registry.recorder = recorder
        self.runner = runner if runner is not None else ParallelRunner(1)
        self.max_retries = max_retries
        self.schedule_seed = schedule_seed
        self.solo_cache = solo_cache
        self.events = bool(events)
        self.fsync = check_fsync(fsync)
        self.stuck_batch_timeout = stuck_batch_timeout
        self.retry_backoff = retry_backoff
        self.retry_backoff_max = retry_backoff_max
        self.poison_threshold = poison_threshold
        self.transport = transport
        self._sleep = time.sleep  # injectable for backoff tests
        #: Live shards in creation order, ``key -> Shard``.
        self.shards: Dict[str, Shard] = {}
        #: The last job id handed out. Job ids come from this one
        #: sequence so they stay unique across shards (the CLI maps
        #: spool records by job id); a shard opening its journal
        #: advances it past the journal's last id.
        self._job_counter = 0
        #: Per-batch elapsed seconds of every wave the drains
        #: dispatched, in wave order — the raw material for
        #: critical-path throughput accounting (``bench_e23``): a wave's
        #: cost on enough cores is its max entry; a serial drain pays
        #: the sum.
        self.drain_waves: List[List[float]] = []
        #: Set by :meth:`shutdown`; a closed service refuses submissions.
        self.closed = False

    def _shard(self, key: str) -> Shard:
        """The shard ``key`` (created, opening its journal, on first use)."""
        shard = self.shards.get(key)
        if shard is None:
            shard = self.shards[key] = Shard(self, key)
        return shard

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def submit(
        self,
        network: Network,
        algorithm: Algorithm,
        master_seed: int = 0,
        message_bits: Optional[int] = -1,
        spec: Optional[Dict[str, Any]] = None,
    ) -> Job:
        """Submit one job to its network's shard; returns it in its
        post-admission state.

        Resubmissions of content-identical jobs are served from the
        registry immediately (state ``done``, ``result.from_registry``),
        skipping admission and execution entirely.

        ``spec`` is an optional JSON-able description of the job (the
        CLI passes its spool record: ``{"id", "net", "algo", "seed"}``).
        With a directory it rides in the journal's ``submit`` record so
        :meth:`recover` can rebuild the job human-readably; without one
        the journal falls back to pickling ``(network, algorithm)``.
        """
        if self.closed:
            raise ServiceClosed("service has been shut down")
        if message_bits == -1:
            message_bits = default_message_bits(network.num_nodes)
        shard = self._shard(shard_key(network))
        fingerprint = job_fingerprint(
            network, algorithm, master_seed, message_bits
        )
        self._job_counter += 1
        job_id = f"j{self._job_counter:04d}"
        job = Job(
            job_id=job_id,
            network=network,
            algorithm=algorithm,
            master_seed=master_seed,
            message_bits=message_bits,
            fingerprint=fingerprint,
            tape_id=_tape_id(fingerprint, job_id),
        )
        job.meta["shard"] = shard.key
        if spec is not None:
            if "id" in spec:
                job.meta["spool"] = spec["id"]
            # "scenario"/"fuzz_seed" are the fuzzer's provenance stamps:
            # they ride into the failure events so a divergence in a
            # serve log names the scenario that reproduces it.
            for key in ("net", "algo", "scenario", "fuzz_seed"):
                if key in spec:
                    job.meta[key] = spec[key]
        return shard._enter(job, spec)

    def submit_many(
        self,
        network: Network,
        algorithms: Sequence[Algorithm],
        master_seed: int = 0,
        message_bits: Optional[int] = -1,
    ) -> List[Job]:
        """Submit a stream of jobs sharing one network and seed."""
        return [
            self.submit(
                network, algorithm, master_seed=master_seed,
                message_bits=message_bits,
            )
            for algorithm in algorithms
        ]

    def _probe(self, job: Job) -> SoloRun:
        """The job's standalone reference run (admission + ground truth).

        Goes through the configured solo-run cache under the job's
        stable tape identity, so the batched workload's own reference
        lookups (same key) are hits — admission costs no extra
        simulation in the steady state.
        """
        return self._workload([job]).solo_runs()[0]

    def release_parked(self, cause: Optional[str] = None) -> List[Job]:
        """Re-queue parked jobs (e.g. after raising the budget).

        With ``cause`` (an :class:`~repro.service.admission
        .AdmissionDecision` cause such as ``"depth"``), only jobs parked
        for that reason are released — the serve loop uses this to free
        backpressure-parked jobs once their shard drained without also
        releasing jobs parked to wait for a bigger round budget.
        """
        released: List[Job] = []
        for shard in self.shards.values():
            for job in shard.queue.parked():
                if cause is not None and job.meta.get("park_cause") != cause:
                    continue
                # WAL order like every other transition: the record
                # lands before parked→queued is applied, so a crash
                # here recovers the job as queued instead of silently
                # re-parking it.
                shard._transition(job, "released", post="release.post_journal")
                released.append(job)
            shard._gauge_depth()
        return released

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _workload(self, jobs: List[Job]) -> Workload:
        """One execution of mutually compatible ``jobs``, each job under
        its own tape identity."""
        return Workload(
            jobs[0].network,
            [job.algorithm for job in jobs],
            master_seed=jobs[0].master_seed,
            message_bits=jobs[0].message_bits,
            solo_cache=self.solo_cache,
            algorithm_ids=[job.tape_id for job in jobs],
            transport=self.transport,
        )

    def _batch_scheduler(self, for_pickle: bool = False) -> Scheduler:
        scheduler = copy.copy(self.scheduler)
        scheduler.recorder = NULL_RECORDER if for_pickle else self.recorder
        return scheduler

    def _run(self, staged: List[Tuple[Shard, str, List[Job], Workload]]) -> List[float]:
        """Execute ``(shard, batch id, batch, workload)`` items in one
        ordered map over :attr:`runner` and settle them in staging
        order; returns each batch's elapsed seconds."""
        # A serial runner executes in-process, so the batch can record
        # into the service's recorder; a pool needs a picklable one.
        pooled = self.runner.workers > 1
        payloads = [
            (self._batch_scheduler(for_pickle=pooled), workload, self.schedule_seed)
            for _, _, _, workload in staged
        ]
        elapsed = []
        for (shard, batch_id, batch, _), (result, seconds) in zip(
            staged, self.runner.map(_execute_payload, payloads)
        ):
            shard._settle(batch_id, batch, result, elapsed=seconds)
            elapsed.append(seconds)
        return elapsed

    def run_once(self) -> List[Job]:
        """Batch and execute the next batch of the first shard that can
        form one.

        Returns the jobs of the executed batch (empty when every queue
        was empty); every returned job is in a terminal state.
        """
        for shard in self.shards.values():
            item = shard._next_workload()
            if item is not None:
                self._run([(shard, *item)])
                return item[1]
        return []

    def drain(self, stop: Optional[Callable[[], bool]] = None) -> List[Job]:
        """Execute every queued batch, batches of independent shards in
        flight together; returns all jobs processed.

        Each iteration stages one *wave*: every batch every shard can
        form now, shard by shard, executed by :meth:`_run` — so a
        pooled drain settles exactly like a serial one. Retries always
        run in the parent so the registry and telemetry see every
        outcome.

        ``stop`` is polled before each wave; when it turns true the
        drain returns after the in-flight wave settles, leaving the
        remaining queue for a later drain (the serve loop's
        graceful-shutdown hook).
        """
        processed: List[Job] = []
        with self.recorder.span(
            "service.drain", category="service", shards=len(self.shards)
        ):
            while stop is None or not stop():
                staged = [
                    (shard, *item)
                    for shard in self.shards.values()
                    for item in iter(shard._next_workload, None)
                ]
                if not staged:
                    break
                self.drain_waves.append(self._run(staged))
                processed.extend(job for _, _, batch, _ in staged for job in batch)
        return processed

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------

    @classmethod
    def recover(
        cls, directory: Union[str, Path], **kwargs: Any
    ) -> "SchedulerService":
        """Rebuild a service from its shard journals after a crash.

        Every ``<directory>/shards/<key>/journal.jsonl`` is replayed, one
        shard at a time, so one shard's damage never blocks another's
        recovery; artifacts come from ``<directory>/registry`` unless a
        ``registry`` kwarg overrides it. Remaining kwargs go to the
        constructor unchanged. Raises ``ValueError`` if
        ``<directory>/journal.jsonl`` exists (see :meth:`pending_jobs`).

        Recovery is an idempotent replay: terminal jobs are restored
        as-is, and every still-pending job is re-decided against the
        durable evidence — a registry artifact under its fingerprint
        means the completion was acknowledged before the crash, so the
        job is marked ``done`` **without re-execution** (exactly-once);
        a job journaled into ``poison_threshold`` or more batch
        attempts is dead-lettered as ``quarantined``; a job whose
        payload cannot be rebuilt is ``failed`` with a reason; a job
        last journaled ``submitted`` or ``parked`` goes back through
        the current admission policy (so a resume with a raised budget
        frees parked jobs); anything else re-enters the queue to be
        drained again.
        Each new decision is itself journaled first, so recovering a
        recovered journal reaches the identical state.
        """
        journal_paths = cls._shard_journals(directory)
        service = cls(directory=directory, **kwargs)
        for journal_path in journal_paths:
            service._shard(journal_path.parent.name)._replay()
        return service

    @staticmethod
    def _shard_journals(directory: Union[str, Path]) -> List[Path]:
        base = Path(directory)
        if (base / "journal.jsonl").exists():
            raise ValueError(
                f"{base / 'journal.jsonl'} is a single-queue journal, which "
                "the service does not replay; resubmit its jobs and "
                "remove it"
            )
        return sorted((base / "shards").glob("*/journal.jsonl"))

    @staticmethod
    def pending_jobs(directory: Union[str, Path]) -> Dict[str, List[str]]:
        """Per-shard pending job ids left by a crashed serve.

        Reads journal segments without opening (and thus repairing)
        them — the cheap pre-flight the CLI uses to refuse a plain
        ``serve`` over unfinished work. Raises ``ValueError`` if
        ``<directory>/journal.jsonl`` exists: that journal is no
        shard's, and serving would strand its jobs.
        """
        pending: Dict[str, List[str]] = {}
        for path in SchedulerService._shard_journals(directory):
            records, _problems = read_journal(path)
            state = JournalState()
            for record in records:
                state.apply(record)
            unfinished = state.pending()
            if unfinished:
                pending[path.parent.name] = unfinished
        return pending

    def journaled_spools(self) -> set:
        """Spool ids already journaled by any shard (skip on re-serve)."""
        return {
            entry["spool"]
            for shard in self.shards.values()
            if shard.journal is not None
            for entry in shard.journal.state.jobs.values()
            if entry.get("spool")
        }

    # ------------------------------------------------------------------
    # querying and lifecycle
    # ------------------------------------------------------------------

    def backlog(self) -> int:
        """Jobs owed across every shard (queued + parked)."""
        return sum(shard.queue.backlog for shard in self.shards.values())

    def jobs(self) -> List[Job]:
        """All jobs across shards, in submission (job id) order."""
        return sorted(
            (job for shard in self.shards.values() for job in shard.queue.jobs.values()),
            key=lambda job: id_order(job.job_id),
        )

    def status(self, job_id: str) -> Dict[str, Any]:
        """JSON-friendly status of one job (raises KeyError if unknown)."""
        for shard in self.shards.values():
            job = shard.queue.jobs.get(job_id)
            if job is not None:
                return job.describe()
        raise KeyError(job_id)

    def stats(self) -> Dict[str, Any]:
        """Service-level aggregate: states, queue, latency, registry.

        Every job lives in exactly one shard, so the aggregate is a
        merge: per-state job counts, batches and queue depths add; the
        per-shard :class:`~repro.service.events.LatencyAccumulator`
        replays of the event logs merge (histogram buckets add, window
        = min first-submit .. max last-terminal) into the ``latency``
        block (p50/p90/p99 queue and end-to-end latency plus jobs/sec)
        and the ``completion_rounds`` block (mean/p50/p90 of the round
        of its shard's :attr:`Shard.rounds` by which each executed job
        finished) — both ``None`` with ``events=None``. The
        ``engine_counters`` block reads the
        :data:`~repro.metrics.schedule.ENGINE_COUNTERS` off the
        execution reports: every batch runs under the one recorder and
        stamps a *cumulative* snapshot into its report, so each total
        is the largest value seen. The ``journal`` block (``None``
        without a directory) sums the segments, and ``shards`` gives
        per-shard depth/backlog/batches/rounds for hot-shard
        visibility.
        """
        shards = self.shards.values()
        engines = {name: 0.0 for name in ENGINE_COUNTERS}
        for shard in shards:
            for report in shard.reports:
                for name, value in report.engine_counters().items():
                    engines[name] = max(engines[name], value)
        logs = [shard.events for shard in shards if shard.events is not None]
        latency = LatencyAccumulator()
        for log in logs:
            latency.merge(LatencyAccumulator.from_events(log.events))
        journals = [shard.journal for shard in shards if shard.journal is not None]
        per_shard = {
            key: {
                "queue_depth": shard.queue.depth,
                "backlog": shard.queue.backlog,
                "batches": shard._batch_counter,
                "rounds": shard.rounds,
                "jobs": shard.queue.by_state(),
            }
            for key, shard in self.shards.items()
        }
        return {
            "jobs": {
                state.value: sum(s["jobs"][state.value] for s in per_shard.values())
                for state in JobState
            },
            "queue_depth": sum(s["queue_depth"] for s in per_shard.values()),
            "backlog": sum(s["backlog"] for s in per_shard.values()),
            "batches": sum(s["batches"] for s in per_shard.values()),
            "registry": self.registry.stats(),
            "engine_counters": engines,
            "latency": latency.stats() if self.events else None,
            "completion_rounds": latency.completion_stats() if self.events else None,
            "journal": {
                "segments": len(journals),
                "records": sum(len(journal) for journal in journals),
                "pending": sum(len(journal.state.pending()) for journal in journals),
                "problems": [p for journal in journals for p in journal.problems],
            } if journals else None,
            "events": sum(len(log) for log in logs),
            "shards": per_shard,
            "closed": self.closed,
        }

    def checkpoint(self) -> None:
        """Compact every shard journal to its live state."""
        for shard in self.shards.values():
            if shard.journal is not None:
                shard.journal.checkpoint()

    def shutdown(self, drain: bool = True) -> List[Job]:
        """Stop accepting jobs; optionally drain every shard first.

        Graceful by default: every queued job is executed before the
        logs close. Parked jobs stay parked (resubmittable to a service
        with a bigger budget); with ``drain=False`` queued jobs simply
        remain queued, visible via :meth:`status`.
        """
        processed = self.drain() if drain else []
        for shard in self.shards.values():
            for log in (shard.events, shard.journal):
                if log is not None:
                    log.close()
        self.runner.close()
        self.closed = True
        return processed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SchedulerService(scheduler={self.scheduler.name!r}, "
            f"shards={len(self.shards)}, backlog={self.backlog()}, "
            f"closed={self.closed})"
        )


#: Another name for :class:`SchedulerService`, for callers that import
#: it under this one.
ShardedSchedulerService = SchedulerService
