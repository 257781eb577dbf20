"""The batch scheduling service: queue, batcher, workers, registry glue.

This is the serving shape the paper's result wants (Theorem 1.1:
``k`` algorithms amortize into one ``O(congestion + dilation·log n)``
schedule): callers :meth:`~SchedulerService.submit` independent
``(network, algorithm)`` jobs over time, the service batches compatible
jobs — same network, master seed, and message budget — into single
:class:`~repro.core.workload.Workload` executions scheduled by any
existing :class:`~repro.core.base.Scheduler`, and each job gets back
exactly the outputs of its standalone run (stable tape identities make
this hold batch-invariantly, even for randomized algorithms).

Pipeline per submission::

    submit ──registry hit──────────────────────────▶ done (no execution)
       └────miss──▶ admission probe ──reject/park──▶ rejected / parked
                        └──admit──▶ queued ──▶ batched ──▶ running ──▶ done
                                                              └─retry─▶ failed

Execution is resilient by construction: batches run through
:meth:`~repro.core.base.Scheduler.run_resilient`, so fault-induced
errors (:class:`~repro.core.base.ScheduleFailure` from exhausted
retransmissions, tripped round budgets, coverage collapse) become
structured results; jobs whose batch died or diverged are retried as
solo executions — with bounded exponential backoff between attempts —
up to ``max_retries`` before being marked ``failed``, and a batch that
exceeds ``stuck_batch_timeout`` is distrusted wholesale and sent down
the same retry path: one bad job cannot sink its batchmates.
:meth:`~SchedulerService.drain` fans independent batches out over a
:class:`~repro.parallel.runner.ParallelRunner` process pool, and
:meth:`~SchedulerService.shutdown` drains gracefully before closing the
queue.

Crash safety is the journal's job (:mod:`repro.service.journal`): with
a :class:`~repro.service.journal.JobJournal` attached, every state
transition is appended to the write-ahead log *before* it is applied,
and :meth:`SchedulerService.recover` rebuilds the queue, parked set,
and id counters from the journal after a crash — replaying
idempotently against the :class:`~repro.service.registry.RunRegistry`
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
from ..congest.simulator import Simulator, SoloRun
from ..core.base import ScheduleResult, Scheduler
from ..core.random_delay import RandomDelayScheduler
from ..core.workload import Workload
from ..faults.crashpoints import crash_point
from ..metrics.congestion import measure_params
from ..metrics.schedule import ENGINE_COUNTERS, ScheduleReport
from ..parallel.cache import SoloRunCache, default_cache
from ..parallel.runner import ParallelRunner
from ..telemetry import NULL_RECORDER, Recorder
from .admission import AdmissionPolicy
from .events import EventLog, LatencyAccumulator
from .jobs import Job, JobResult, JobState, job_fingerprint
from .journal import (
    TERMINAL_RECORD_STATES,
    JobJournal,
    decode_job_payload,
    encode_job_payload,
)
from .registry import RunArtifact, RunRegistry

__all__ = ["CRASH_POINTS", "JobQueue", "SchedulerService", "ServiceClosed"]

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
        self._counter = 0

    # ------------------------------------------------------------------

    def new_job_id(self) -> str:
        """Allocate the next sequential job id (``j0001``, ``j0002``, ...)."""
        self._counter += 1
        return f"j{self._counter:04d}"

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


class SchedulerService:
    """Accepts jobs, batches them, executes, and persists results.

    Parameters
    ----------
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
        resubmissions and persisting artifacts (default: a fresh
        memory-only registry).
    recorder:
        Telemetry sink for ``service.*`` metrics; also threaded into
        the scheduler and registry.
    runner:
        :class:`~repro.parallel.runner.ParallelRunner` fanning
        independent batches out during :meth:`drain` (default serial).
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
    transport:
        Message-transport backend (see :mod:`repro.core.transport`)
        threaded into admission probes, batch workloads, and the
        scheduler. ``None`` defers to the scheduler's own setting and
        the ``REPRO_TRANSPORT`` environment default. Backends are
        bit-identical, so this only affects wall-clock time.
    events:
        Job-lifecycle event log (see :mod:`repro.service.events`). The
        default ``"memory"`` keeps an in-memory log so :meth:`stats`
        can always derive queue/end-to-end latency histograms and a
        jobs/sec gauge; pass an :class:`~repro.service.events.EventLog`
        with a path to also spool ``events.jsonl``, or ``None`` to
        disable lifecycle events entirely.
    journal:
        Optional :class:`~repro.service.journal.JobJournal` write-ahead
        log. When present, every state transition is journaled *before*
        it is applied, the job/batch id counters continue from the
        journal's replayed state, and :meth:`recover` can rebuild the
        service after a crash. ``None`` (default) keeps the pre-journal
        in-memory behaviour.
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
    """

    def __init__(
        self,
        scheduler: Optional[Scheduler] = None,
        batch_size: int = 8,
        policy: Optional[AdmissionPolicy] = None,
        registry: Optional[RunRegistry] = None,
        recorder: Recorder = NULL_RECORDER,
        runner: Optional[ParallelRunner] = None,
        max_retries: int = 1,
        schedule_seed: int = 1,
        solo_cache: Any = "default",
        events: Union[EventLog, str, None] = "memory",
        journal: Optional[JobJournal] = None,
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
        self.scheduler = scheduler if scheduler is not None else RandomDelayScheduler()
        self.batch_size = batch_size
        self.policy = policy if policy is not None else AdmissionPolicy()
        self.registry = registry if registry is not None else RunRegistry()
        self.recorder = recorder
        if recorder.enabled and self.registry.recorder is NULL_RECORDER:
            self.registry.recorder = recorder
        self.runner = runner if runner is not None else ParallelRunner(1)
        self.max_retries = max_retries
        self.schedule_seed = schedule_seed
        self.solo_cache = solo_cache
        self.transport = transport
        if events == "memory":
            events = EventLog()
        elif isinstance(events, str):
            raise ValueError("events must be an EventLog, 'memory', or None")
        self.events: Optional[EventLog] = events
        self.journal = journal
        self.stuck_batch_timeout = stuck_batch_timeout
        self.retry_backoff = retry_backoff
        self.retry_backoff_max = retry_backoff_max
        self.poison_threshold = poison_threshold
        self._sleep = time.sleep  # injectable for backoff tests
        #: Installed by :class:`~repro.service.sharding.ShardedSchedulerService`
        #: so admission's global queue-depth gate sees the backlog across
        #: every shard while the per-shard depth gate sees this queue.
        self._total_backlog: Optional[Callable[[], int]] = None
        self.queue = JobQueue()
        #: Reports of every workload execution (batches and solo
        #: retries), in execution order — the raw material for
        #: :meth:`stats`' engine-counter aggregation.
        self.reports: List[ScheduleReport] = []
        #: Σ ``length_rounds`` over :attr:`reports`: the rounds this
        #: service's executions have taken, one after another.
        self.rounds = 0
        self._batch_counter = 0
        self._closed = False
        if journal is not None:
            # Continue the id chains of whatever history the journal
            # replayed, so post-restart ids never collide with
            # journaled ones.
            self.queue._counter = journal.state.last_job
            self._batch_counter = journal.state.last_batch

    def _journal(self, kind: str, **fields: Any) -> None:
        """Append one WAL record; no-op for journal-less services."""
        if self.journal is not None:
            self.journal.append(kind, **fields)

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
        """Submit one job; returns it in its post-admission state.

        Resubmissions of content-identical jobs are served from the
        registry immediately (state ``done``, ``result.from_registry``),
        skipping admission and execution entirely.

        ``spec`` is an optional JSON-able description of the job (the
        CLI passes its spool record: ``{"id", "net", "algo", "seed"}``).
        With a journal attached it rides in the ``submit`` record so
        :meth:`recover` can rebuild the job human-readably; without one
        the journal falls back to pickling ``(network, algorithm)``.
        """
        if self._closed:
            raise ServiceClosed("service has been shut down")
        recorder = self.recorder
        events = self.events
        if message_bits == -1:
            message_bits = default_message_bits(network.num_nodes)
        fingerprint = job_fingerprint(
            network, algorithm, master_seed, message_bits
        )
        job_id = self.queue.new_job_id()
        tape_id = (
            f"job:{fingerprint[:24]}"
            if fingerprint is not None
            else f"job-anon:{job_id}"
        )
        job = Job(
            job_id=job_id,
            network=network,
            algorithm=algorithm,
            master_seed=master_seed,
            message_bits=message_bits,
            fingerprint=fingerprint,
            tape_id=tape_id,
        )
        if spec is not None:
            if "id" in spec:
                job.meta["spool"] = spec["id"]
            # "scenario"/"fuzz_seed" are the fuzzer's provenance stamps:
            # they ride into the failure events below so a divergence in
            # a serve log names the scenario that reproduces it.
            for key in ("net", "algo", "scenario", "fuzz_seed"):
                if key in spec:
                    job.meta[key] = spec[key]
        if self.journal is not None:
            # Write-ahead: the job exists durably before it exists in
            # memory. A crash before this line means the submission was
            # never acknowledged and legitimately vanishes.
            payload = encode_job_payload(network, algorithm, spec)
            crash_point("submit.pre_journal")
            self.journal.append(
                "submit",
                job=job_id,
                fingerprint=fingerprint,
                master_seed=master_seed,
                message_bits=message_bits,
                algorithm=algorithm.name,
                payload=payload,
                spool=job.meta.get("spool"),
            )
            crash_point("submit.post_journal")
        if recorder.enabled:
            recorder.counter("service.submitted")
        if events is not None:
            events.emit(
                "submitted",
                job.job_id,
                fingerprint=fingerprint,
                queue_depth=self.queue.depth,
            )

        artifact = self.registry.get(fingerprint)
        if artifact is not None:
            self._journal("done", job=job_id, from_registry=True)
            job.state = JobState.DONE
            job.result = JobResult(
                outputs=dict(artifact.outputs),
                solo_rounds=artifact.solo_rounds,
                scheduler=artifact.scheduler,
                batch_size=artifact.batch_size,
                from_registry=True,
                version=artifact.version,
            )
            self.queue.add(job)
            if events is not None:
                events.emit(
                    "done",
                    job.job_id,
                    fingerprint=fingerprint,
                    queue_depth=self.queue.depth,
                    from_registry=True,
                )
            return job

        probe = self._probe(job)
        job.params = measure_params([probe])
        decision = self.policy.check(
            job.params, self._admission_backlog(), shard_depth=self.queue.backlog
        )
        self._admit(job, decision)
        self._gauge_depth()
        return job

    def _admission_backlog(self) -> int:
        """Queue depth the *global* admission gate judges against."""
        if self._total_backlog is not None:
            return self._total_backlog()
        return self.queue.backlog

    def _admit(self, job: Job, decision) -> None:
        """Journal and apply one admission decision (WAL order)."""
        recorder = self.recorder
        if decision.admitted:
            self._journal("admitted", job=job.job_id)
            crash_point("admission.post_journal")
            job.state = JobState.QUEUED
            if recorder.enabled:
                recorder.counter("service.admitted")
        elif decision.action == "park":
            self._journal("parked", job=job.job_id, reason=decision.reason)
            crash_point("admission.post_journal")
            job.state = JobState.PARKED
            job.reason = decision.reason
            if decision.cause:
                job.meta["park_cause"] = decision.cause
            if recorder.enabled:
                recorder.counter("service.parked")
        else:
            self._journal("rejected", job=job.job_id, reason=decision.reason)
            crash_point("admission.post_journal")
            job.state = JobState.REJECTED
            job.reason = decision.reason
            if recorder.enabled:
                recorder.counter("service.rejected")
        self.queue.add(job)
        if self.events is not None:
            kind = {
                JobState.QUEUED: "admitted",
                JobState.PARKED: "parked",
                JobState.REJECTED: "rejected",
            }[job.state]
            attrs = {"reason": job.reason} if job.reason else {}
            self.events.emit(
                kind,
                job.job_id,
                fingerprint=job.fingerprint,
                queue_depth=self.queue.depth,
                **attrs,
            )

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
        cache = self._resolve_cache()
        if cache is not None:
            return cache.get_or_run(
                job.network,
                job.algorithm,
                algorithm_id=job.tape_id,
                seed=job.master_seed,
                message_bits=job.message_bits,
                transport=self.transport,
            )
        sim = Simulator(
            job.network, message_bits=job.message_bits, transport=self.transport
        )
        return sim.run(
            job.algorithm, seed=job.master_seed, algorithm_id=job.tape_id
        )

    def _resolve_cache(self) -> Optional[SoloRunCache]:
        if self.solo_cache == "default":
            return default_cache()
        if isinstance(self.solo_cache, SoloRunCache):
            return self.solo_cache
        return None

    # ------------------------------------------------------------------
    # parked jobs
    # ------------------------------------------------------------------

    def release_parked(self, cause: Optional[str] = None) -> List[Job]:
        """Re-queue parked jobs (e.g. after raising the budget).

        With ``cause`` (an :class:`~repro.service.admission
        .AdmissionDecision` cause such as ``"depth"``), only jobs parked
        for that reason are released — the serve loop uses this to free
        backpressure-parked jobs once their shard drained without also
        releasing jobs parked to wait for a bigger round budget.
        """
        released = []
        for job in self.queue.parked():
            if cause is not None and job.meta.get("park_cause") != cause:
                continue
            # WAL order like every other transition: the record lands
            # before parked→queued is applied, so a crash here recovers
            # the job as queued instead of silently re-parking it.
            self._journal("released", job=job.job_id)
            crash_point("release.post_journal")
            self.queue.requeue(job)
            released.append(job)
            if self.events is not None:
                self.events.emit(
                    "released",
                    job.job_id,
                    fingerprint=job.fingerprint,
                    queue_depth=self.queue.depth,
                )
        self._gauge_depth()
        return released

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _next_workload(self) -> Optional[Tuple[str, List[Job], Workload]]:
        batch = self.queue.next_batch(self.batch_size)
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
        workload = Workload(
            batch[0].network,
            [job.algorithm for job in batch],
            master_seed=batch[0].master_seed,
            message_bits=batch[0].message_bits,
            solo_cache=self.solo_cache,
            algorithm_ids=[job.tape_id for job in batch],
            transport=self.transport,
        )
        for job in batch:
            job.transition(JobState.BATCHED)
            job.meta["batch"] = batch_id
            if self.events is not None:
                self.events.emit(
                    "batched",
                    job.job_id,
                    fingerprint=job.fingerprint,
                    batch=batch_id,
                    queue_depth=self.queue.depth,
                    batch_jobs=len(batch),
                )
        if self.recorder.enabled:
            self.recorder.counter("service.batches")
            self.recorder.observe("service.batch_size", len(batch))
        self._gauge_depth()
        return batch_id, batch, workload

    def _batch_scheduler(self, for_pickle: bool = False) -> Scheduler:
        scheduler = copy.copy(self.scheduler)
        scheduler.recorder = NULL_RECORDER if for_pickle else self.recorder
        if self.transport is not None:
            scheduler.transport = self.transport
        return scheduler

    def run_once(self) -> List[Job]:
        """Batch and execute the oldest compatible queued jobs.

        Returns the jobs of the executed batch (empty when the queue
        was empty); every returned job is in a terminal state.
        """
        item = self._next_workload()
        if item is None:
            return []
        batch_id, batch, workload = item
        with self.recorder.span(
            "service.batch", category="service", batch=batch_id, jobs=len(batch)
        ):
            start = time.perf_counter()
            result = self._batch_scheduler().run_resilient(
                workload, seed=self.schedule_seed
            )
            elapsed = time.perf_counter() - start
            self._settle(batch_id, batch, result, elapsed=elapsed)
        return batch

    def drain(self) -> List[Job]:
        """Execute every queued batch; returns all jobs processed.

        With a multi-worker runner, independent batches are fanned out
        over the process pool (results return in submission order, so a
        parallel drain settles jobs exactly like the serial loop);
        retries always run in the parent so the registry and telemetry
        see every outcome.
        """
        processed: List[Job] = []
        with self.recorder.span("service.drain", category="service"):
            if self.runner.workers <= 1:
                while True:
                    batch = self.run_once()
                    if not batch:
                        break
                    processed.extend(batch)
                return processed
            while True:
                staged: List[Tuple[str, List[Job], Workload]] = []
                while True:
                    item = self._next_workload()
                    if item is None:
                        break
                    staged.append(item)
                if not staged:
                    break
                payloads = [
                    (self._batch_scheduler(for_pickle=True), workload,
                     self.schedule_seed)
                    for _, _, workload in staged
                ]
                results = self.runner.map(_execute_payload, payloads)
                for (batch_id, batch, _), (result, elapsed) in zip(
                    staged, results
                ):
                    self._settle(batch_id, batch, result, elapsed=elapsed)
                    processed.extend(batch)
        return processed

    def _record(self, report: ScheduleReport) -> int:
        """Log one execution's report; returns the round of this
        service's running total at which the execution started."""
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
        start = self._record(result.report)
        stuck = (
            self.stuck_batch_timeout is not None
            and elapsed is not None
            and elapsed > self.stuck_batch_timeout
        )
        stuck_reason = ""
        if stuck:
            stuck_reason = (
                f"stuck batch: {elapsed:.3f}s exceeded "
                f"stuck_batch_timeout={self.stuck_batch_timeout}s"
            )
            if self.recorder.enabled:
                self.recorder.counter("service.stuck_batches")
        served = (
            set(result.verified_algorithms)
            if result.failure is None and not stuck
            else set()
        )
        retry_ids = count(1)
        for aid, job in enumerate(batch):
            job.transition(JobState.RUNNING)
            job.attempts += 1
            if aid in served:
                self._complete(job, result, aid, batch_id, batch_id, start)
            else:
                self._retry_solo(
                    job,
                    batch_id,
                    retry_ids,
                    failure=stuck_reason if stuck else result.failure,
                )

    def _retry_solo(
        self, job: Job, batch_id: str, retry_ids: Iterator[int], failure=None
    ) -> None:
        """Re-execute a job alone until it verifies or retries run out.

        Each attempt is an execution of its own, ``<batch>.r<n>`` with
        ``n`` counting the retries of that batch, so its rounds are
        recorded under its own id; journal records and events stay
        keyed by the batch.
        """
        last_reason = str(failure) if failure is not None else "outputs diverged"
        for attempt in range(self.max_retries):
            if self.retry_backoff > 0:
                delay = min(
                    self.retry_backoff * 2**attempt, self.retry_backoff_max
                )
                if delay > 0:
                    self._sleep(delay)
            execution_id = f"{batch_id}.r{next(retry_ids)}"
            if self.recorder.enabled:
                self.recorder.counter("service.retries")
            if self.events is not None:
                self.events.emit(
                    "retried",
                    job.job_id,
                    fingerprint=job.fingerprint,
                    batch=batch_id,
                    queue_depth=self.queue.depth,
                    attempt=job.attempts + 1,
                    execution=execution_id,
                    reason=last_reason,
                    **_provenance(job),
                )
            job.attempts += 1
            workload = Workload(
                job.network,
                [job.algorithm],
                master_seed=job.master_seed,
                message_bits=job.message_bits,
                solo_cache=self.solo_cache,
                algorithm_ids=[job.tape_id],
                transport=self.transport,
            )
            result = self._batch_scheduler().run_resilient(
                workload, seed=self.schedule_seed
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
        if self.journal is not None:
            crash_point("failed.pre_journal")
            self.journal.append(
                "failed", job=job.job_id, reason=last_reason
            )
            crash_point("failed.post_journal")
        job.transition(JobState.FAILED, reason=last_reason)
        if self.recorder.enabled:
            self.recorder.counter("service.jobs_failed")
        if self.events is not None:
            self.events.emit(
                "failed",
                job.job_id,
                fingerprint=job.fingerprint,
                batch=batch_id,
                queue_depth=self.queue.depth,
                reason=last_reason,
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
        which began at round ``start`` of this service's running total."""
        report = result.report
        outputs = {
            node: value for (a, node), value in result.outputs.items() if a == aid
        }
        batch_size = report.params.num_algorithms
        # Jobs of a scheduler without per-algorithm completion rounds
        # finish when their execution does.
        completion_round = start + (
            report.completion_rounds[aid]
            if report.completion_rounds is not None
            else report.length_rounds
        )
        solo_rounds = job.params.dilation if job.params is not None else 0
        # Completion order is the exactly-once contract: the artifact
        # lands in the registry FIRST, the journal acknowledges SECOND,
        # the in-memory transition happens LAST. A crash between
        # registry.put and the journal record leaves a pending job whose
        # artifact already exists — recovery finds the registry hit and
        # marks it done without re-executing; a crash before registry.put
        # re-executes, which is legal because nothing was acknowledged.
        crash_point("complete.pre_registry")
        if job.fingerprint is not None:
            self.registry.put(
                RunArtifact(
                    fingerprint=job.fingerprint,
                    outputs=dict(outputs),
                    solo_rounds=solo_rounds,
                    scheduler=report.scheduler,
                    batch_size=batch_size,
                    version=report.version,
                    meta={
                        "batch": execution_id,
                        "schedule_seed": self.schedule_seed,
                        "length_rounds": report.length_rounds,
                        "completion_round": completion_round,
                    },
                )
            )
        if self.journal is not None:
            crash_point("complete.pre_journal")
            self.journal.append(
                "done", job=job.job_id, batch=batch_id
            )
            crash_point("complete.post_journal")
        job.result = JobResult(
            outputs=outputs,
            solo_rounds=solo_rounds,
            scheduler=report.scheduler,
            batch_size=batch_size,
            version=report.version,
            completion_round=completion_round,
        )
        job.transition(JobState.DONE)
        if self.recorder.enabled:
            self.recorder.counter("service.jobs_done")
        if self.events is not None:
            self.events.emit(
                "done",
                job.job_id,
                fingerprint=job.fingerprint,
                batch=batch_id,
                queue_depth=self.queue.depth,
                batch_size=batch_size,
                completion_round=completion_round,
            )

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------

    @classmethod
    def recover(
        cls,
        directory: Union[str, Path, None] = None,
        journal: Optional[JobJournal] = None,
        **kwargs: Any,
    ) -> "SchedulerService":
        """Rebuild a service from its write-ahead journal after a crash.

        Pass the spool ``directory`` (the journal is read from
        ``<directory>/journal.jsonl`` and, unless a ``registry`` kwarg
        overrides it, artifacts from ``<directory>/registry``) or an
        already-opened ``journal``. Remaining kwargs go to the
        constructor unchanged.

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
        if journal is None:
            if directory is None:
                raise ValueError("recover() needs a directory or a journal")
            journal = JobJournal(Path(directory) / "journal.jsonl")
        if directory is not None and "registry" not in kwargs:
            kwargs["registry"] = RunRegistry(Path(directory) / "registry")
        service = cls(journal=journal, **kwargs)
        service._replay_journal()
        return service

    def _replay_journal(self) -> None:
        """Materialize the journal's jobs into the live queue."""
        journal = self.journal
        if journal is None:
            return
        for job_id in sorted(journal.state.jobs):
            if job_id in self.queue.jobs:
                # Replaying twice is a no-op: the job already exists.
                continue
            entry = journal.state.jobs[job_id]
            recorded_state = entry["state"]
            fingerprint = entry.get("fingerprint")
            tape_id = (
                f"job:{fingerprint[:24]}"
                if fingerprint
                else f"job-anon:{job_id}"
            )
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
                tape_id=tape_id,
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
        if state == "done":
            artifact = self.registry.get(job.fingerprint)
            if artifact is not None:
                job.result = JobResult(
                    outputs=dict(artifact.outputs),
                    solo_rounds=artifact.solo_rounds,
                    scheduler=artifact.scheduler,
                    batch_size=artifact.batch_size,
                    from_registry=True,
                    version=artifact.version,
                )
            else:
                # In-memory registry, or artifact pruned: the completion
                # stands (it was acknowledged) but outputs are gone.
                job.reason = "recovered: result artifact unavailable"
            job.state = JobState.DONE
        elif state == "failed":
            job.state = JobState.FAILED
            job.reason = entry.get("reason") or "failed before crash"
        elif state == "rejected":
            job.state = JobState.REJECTED
            job.reason = entry.get("reason", "")
        else:
            job.state = JobState.QUARANTINED
            job.reason = entry.get("reason") or "quarantined"
        self.queue.add(job)

    def _redecide_pending(self, job: Job, entry: Dict[str, Any]) -> None:
        """Decide what a journaled-but-unfinished job becomes now.

        Every outcome is journaled before it is applied, keeping the
        WAL discipline through recovery itself — which is what makes
        recovering twice converge to the same state.
        """
        artifact = self.registry.get(job.fingerprint)
        if artifact is not None:
            # The crash hit between registry.put and the journal's
            # "done" record: the result was durably acknowledged, so
            # finishing the paperwork — not re-executing — is the only
            # correct move (exactly-once completion).
            self._journal("done", job=job.job_id, from_registry=True)
            job.result = JobResult(
                outputs=dict(artifact.outputs),
                solo_rounds=artifact.solo_rounds,
                scheduler=artifact.scheduler,
                batch_size=artifact.batch_size,
                from_registry=True,
                version=artifact.version,
            )
            job.state = JobState.DONE
            self.queue.add(job)
            if self.recorder.enabled:
                self.recorder.counter("service.jobs_done")
            if self.events is not None:
                self.events.emit(
                    "done",
                    job.job_id,
                    fingerprint=job.fingerprint,
                    queue_depth=self.queue.depth,
                    from_registry=True,
                    recovered=True,
                )
            return
        if entry.get("batch_attempts", 0) >= self.poison_threshold:
            reason = (
                f"quarantined after {entry['batch_attempts']} journaled "
                f"batch attempts (poison_threshold={self.poison_threshold})"
            )
            self._journal("quarantined", job=job.job_id, reason=reason)
            job.state = JobState.QUARANTINED
            job.reason = reason
            self.queue.add(job)
            if self.recorder.enabled:
                self.recorder.counter("service.quarantined")
            if self.events is not None:
                self.events.emit(
                    "quarantined",
                    job.job_id,
                    fingerprint=job.fingerprint,
                    queue_depth=self.queue.depth,
                    reason=reason,
                )
            return
        if job.network is None or job.algorithm is None:
            reason = "recovered: job payload unrecoverable"
            self._journal("failed", job=job.job_id, reason=reason)
            job.state = JobState.FAILED
            job.reason = reason
            self.queue.add(job)
            if self.recorder.enabled:
                self.recorder.counter("service.jobs_failed")
            if self.events is not None:
                self.events.emit(
                    "failed",
                    job.job_id,
                    fingerprint=job.fingerprint,
                    queue_depth=self.queue.depth,
                    reason=reason,
                )
            return
        probe = self._probe(job)
        job.params = measure_params([probe])
        if entry["state"] in ("submitted", "parked"):
            # "submitted": the crash landed before any admission
            # decision. "parked": the old decision was to wait for a
            # bigger budget. Either way the *current* policy decides,
            # through the same journaled path as a live submit — a
            # restart with a raised budget releases parked jobs instead
            # of stranding them parked forever (and re-parks them,
            # journaled again, when the budget still says no).
            decision = self.policy.check(
                job.params,
                self._admission_backlog(),
                shard_depth=self.queue.backlog,
            )
            self._admit(job, decision)
            return
        job.state = JobState.QUEUED
        self.queue.add(job)
        if self.recorder.enabled:
            self.recorder.counter("service.recovered")
        if self.events is not None:
            self.events.emit(
                "recovered",
                job.job_id,
                fingerprint=job.fingerprint,
                queue_depth=self.queue.depth,
                state=entry["state"],
            )

    # ------------------------------------------------------------------
    # querying and lifecycle
    # ------------------------------------------------------------------

    def status(self, job_id: str) -> Dict[str, Any]:
        """JSON-friendly status of one job (raises KeyError if unknown)."""
        return self.queue.jobs[job_id].describe()

    def jobs(self) -> List[Job]:
        """All jobs ever submitted, in submission order."""
        return sorted(self.queue.jobs.values(), key=lambda j: j.job_id)

    def engine_totals(self) -> Dict[str, float]:
        """The :data:`~repro.metrics.schedule.ENGINE_COUNTERS` this
        service's executions accumulated — read off the execution reports
        (recorded reports surface them zero-filled), so no engine
        internals are touched. Every batch runs under the service's one
        recorder and stamps a *cumulative* snapshot into its report, so
        the total is the largest value seen, not the sum."""
        engines = {name: 0.0 for name in ENGINE_COUNTERS}
        for report in self.reports:
            for name, value in report.engine_counters().items():
                engines[name] = max(engines[name], value)
        return engines

    def stats(self) -> Dict[str, Any]:
        """Service-level aggregate: states, queue, latency, registry.

        The ``engine_counters`` block is :meth:`engine_totals`. The
        ``latency`` block is derived by replaying the job-lifecycle
        event log (:func:`repro.service.events.latency_stats`):
        p50/p90/p99 queue and end-to-end latency plus jobs/sec. The
        ``completion_rounds`` block (mean/p50/p90) comes from the same
        replay: the round of :attr:`rounds` by which each executed job
        finished. Both are ``None`` when the service was built with
        ``events=None``.
        """
        latency = completion = None
        if self.events is not None:
            replay = LatencyAccumulator.from_events(self.events.events)
            latency = replay.stats()
            completion = replay.completion_stats()
        journal = None
        if self.journal is not None:
            journal = {
                "seq": self.journal.seq,
                "records": len(self.journal),
                "pending": len(self.journal.state.pending()),
                "problems": list(self.journal.problems),
            }
        return {
            "jobs": self.queue.by_state(),
            "queue_depth": self.queue.depth,
            "backlog": self.queue.backlog,
            "batches": self._batch_counter,
            "registry": self.registry.stats(),
            "engine_counters": self.engine_totals(),
            "latency": latency,
            "completion_rounds": completion,
            "journal": journal,
            "events": len(self.events) if self.events is not None else 0,
            "closed": self._closed,
        }

    @property
    def closed(self) -> bool:
        return self._closed

    def shutdown(self, drain: bool = True) -> List[Job]:
        """Stop accepting jobs; optionally drain the queue first.

        Graceful by default: every queued job is executed before the
        queue closes. Parked jobs stay parked (resubmittable to a
        service with a bigger budget); with ``drain=False`` queued jobs
        simply remain queued, visible via :meth:`status`.
        """
        processed = self.drain() if drain else []
        self._closed = True
        if self.events is not None:
            self.events.close()
        if self.journal is not None:
            self.journal.close()
        return processed

    def _gauge_depth(self) -> None:
        if self.recorder.enabled:
            self.recorder.gauge("service.queue_depth", self.queue.depth)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SchedulerService(scheduler={self.scheduler.name!r}, "
            f"batch_size={self.batch_size}, depth={self.queue.depth}, "
            f"jobs={len(self.queue.jobs)})"
        )
