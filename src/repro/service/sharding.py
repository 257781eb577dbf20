"""Sharded serving: per-network shards drained concurrently.

The paper's Theorem 1.1 is about *one* network: ``k`` algorithms on one
graph amortize into a single ``O(congestion + dilation·log n)``
schedule. Jobs on *different* networks share nothing — not the graph,
not the congestion, not the random tapes — so a serving system should
never serialize them behind each other. :class:`ShardedSchedulerService`
makes that structural: submissions are routed by
:func:`~repro.parallel.cache.network_fingerprint` to per-network
shards, each shard a full :class:`~repro.service.service.SchedulerService`
owning its own :class:`~repro.service.service.JobQueue`, write-ahead
journal segment, and event log, and :meth:`ShardedSchedulerService.drain`
stages batches from *every* shard into one
:class:`~repro.parallel.runner.ParallelRunner` wave — batches of
independent networks in flight simultaneously, batching semantics
within a shard unchanged.

What stays shared is exactly what is safe to share: the
content-addressed :class:`~repro.service.registry.RunRegistry` (atomic
single-file artifact writes keyed by job fingerprint — shard-agnostic
by construction) and the solo-run cache. Because every job lives in
exactly one shard, cross-shard :meth:`ShardedSchedulerService.stats`
is a pure merge: per-state counters add, engine counters add, and the
per-shard latency sketches fold through
:class:`~repro.service.events.LatencyAccumulator` under the documented
:class:`~repro.telemetry.metrics.MetricsRegistry` rules (counters add,
gauges max, histogram buckets add).

Backpressure is per shard: :class:`~repro.service.admission
.AdmissionPolicy.max_shard_depth` parks or sheds submissions to the hot
shard only — the global ``max_queue_depth`` gate still sees the summed
backlog via the ``_total_backlog`` hook each shard is wired with.

Recovery is per shard too: every shard journal under
``<dir>/shards/<key>/journal.jsonl`` is replayed idempotently by
:meth:`ShardedSchedulerService.recover` (exactly-once against the
shared registry, same contract as a standalone service). A top-level
``<dir>/journal.jsonl`` is not a shard journal: recovery refuses the
directory rather than leave that journal's jobs unserved.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..congest.network import Network
from ..congest.program import Algorithm
from ..core.base import Scheduler
from ..core.random_delay import RandomDelayScheduler
from ..metrics.schedule import ENGINE_COUNTERS
from ..parallel.cache import network_fingerprint
from ..parallel.runner import ParallelRunner
from ..telemetry import NULL_RECORDER, InMemoryRecorder, Recorder
from ..telemetry.metrics import MetricsRegistry
from .admission import AdmissionPolicy
from .events import EventLog, LatencyAccumulator, check_fsync
from .jobs import Job, JobState
from .journal import JobJournal, JournalState, read_journal
from .registry import RunRegistry
from .service import (
    SchedulerService,
    ServiceClosed,
    _execute_payload,
)

__all__ = ["ShardedSchedulerService", "shard_key"]

#: Hex digits of the network fingerprint used as the shard directory
#: name — short enough to read in a path, long enough that collisions
#: would need ~10^14 distinct networks.
SHARD_KEY_CHARS = 12


def shard_key(network: Network) -> str:
    """Stable shard id of a network (fingerprint-derived, path-safe)."""
    return f"net-{network_fingerprint(network)[:SHARD_KEY_CHARS]}"


def _waves(
    shards: Iterable[SchedulerService],
    runner: ParallelRunner,
    stop: Optional[Callable[[], bool]] = None,
) -> Iterator[List[Tuple[List[Job], float]]]:
    """Drain ``shards`` one wave at a time; yields each wave's settled
    ``(batch, elapsed)`` pairs.

    A wave stages every batch the shards can form now, shard by shard,
    runs them in one ordered ``runner.map`` and settles them in staging
    order, so it settles exactly like the serial loop would. ``stop`` is
    polled before each wave.
    """
    while stop is None or not stop():
        staged = [
            (shard,) + item
            for shard in shards
            for item in iter(shard._next_workload, None)
        ]
        if not staged:
            return
        # A serial runner executes in-process, so (like run_once) the
        # batch can record into its shard's recorder; a pool needs a
        # picklable one.
        pooled = runner.workers > 1
        payloads = [
            (shard._batch_scheduler(for_pickle=pooled), workload, shard.schedule_seed)
            for shard, _, _, workload in staged
        ]
        wave = []
        for (shard, batch_id, batch, _), (result, elapsed) in zip(
            staged, runner.map(_execute_payload, payloads)
        ):
            shard._settle(batch_id, batch, result, elapsed=elapsed)
            wave.append((batch, elapsed))
        yield wave


class ShardedSchedulerService:
    """A :class:`SchedulerService` per network, drained concurrently.

    Mirrors the single-service API (``submit`` / ``submit_many`` /
    ``drain`` / ``release_parked`` / ``stats`` / ``jobs`` / ``status`` /
    ``shutdown`` / ``recover``) so callers and the CLI are agnostic to
    sharding; the differences are structural:

    * submissions route to per-network shards (:func:`shard_key`);
    * :meth:`drain` stages one batch wave across *all* shards per pool
      dispatch, so independent networks execute concurrently;
    * with a ``directory``, every shard owns its own journal segment
      and event log under ``<directory>/shards/<key>/``, the registry
      lives shared at ``<directory>/registry``, and :meth:`recover`
      replays each segment independently;
    * ``stats()`` merges per-shard state by the documented metric merge
      rules instead of reading one queue.

    Parameters mirror :class:`SchedulerService`; extras:

    directory:
        Service directory. ``None`` keeps everything in memory.
    per_shard_recorders:
        Give every shard its own
        :class:`~repro.telemetry.InMemoryRecorder` instead of the
        shared ``recorder``; :meth:`merged_metrics` folds them into one
        :class:`~repro.telemetry.metrics.MetricsRegistry`.
    fsync:
        Durability policy for every shard journal and event log.
    events:
        ``"auto"`` (default) spools per-shard ``events.jsonl`` when a
        directory is set and keeps in-memory logs otherwise; ``None``
        disables lifecycle events; ``"memory"`` forces in-memory logs.
    """

    def __init__(
        self,
        directory: Union[str, Path, None] = None,
        scheduler: Optional[Scheduler] = None,
        batch_size: int = 8,
        policy: Optional[AdmissionPolicy] = None,
        registry: Optional[RunRegistry] = None,
        recorder: Recorder = NULL_RECORDER,
        per_shard_recorders: bool = False,
        runner: Optional[ParallelRunner] = None,
        schedule_seed: int = 1,
        solo_cache: Any = "default",
        transport: Any = None,
        events: Optional[str] = "auto",
        fsync: str = "batch",
        **shard_kwargs: Any,
    ):
        if events not in ("auto", "memory", None):
            raise ValueError("events must be 'auto', 'memory', or None")
        self.directory = Path(directory) if directory is not None else None
        self.scheduler = (
            scheduler if scheduler is not None else RandomDelayScheduler()
        )
        self.batch_size = batch_size
        self.policy = policy if policy is not None else AdmissionPolicy()
        if registry is None:
            registry = (
                RunRegistry(self.directory / "registry")
                if self.directory is not None
                else RunRegistry()
            )
        self.registry = registry
        self.recorder = recorder
        self.per_shard_recorders = per_shard_recorders
        self.runner = runner if runner is not None else ParallelRunner(1)
        self.schedule_seed = schedule_seed
        self.solo_cache = solo_cache
        self.transport = transport
        self.events_mode = events
        self.fsync = check_fsync(fsync)
        self.shard_kwargs = dict(shard_kwargs)
        #: Live shards in creation order, ``key -> SchedulerService``.
        self.shards: Dict[str, SchedulerService] = {}
        self._job_counter = 0
        self._shard_recorders: Dict[str, InMemoryRecorder] = {}
        #: Per-batch elapsed seconds of every pool wave the last drains
        #: dispatched, in wave order — the raw material for critical-path
        #: throughput accounting (``bench_e23``): a wave's cost on enough
        #: cores is its max entry; a serial drain pays the sum.
        self.drain_waves: List[List[float]] = []
        self._closed = False

    # ------------------------------------------------------------------
    # shard plumbing
    # ------------------------------------------------------------------

    def _shard_dir(self, key: str) -> Optional[Path]:
        if self.directory is None:
            return None
        return self.directory / "shards" / key

    def _shard_recorder(self, key: str) -> Recorder:
        if not self.per_shard_recorders:
            return self.recorder
        recorder = InMemoryRecorder()
        self._shard_recorders[key] = recorder
        return recorder

    def _make_shard(self, key: str, recover: bool = False) -> SchedulerService:
        shard_dir = self._shard_dir(key)
        if self.events_mode is None:
            events: Any = None
        elif shard_dir is not None and self.events_mode == "auto":
            events = EventLog(shard_dir / "events.jsonl", fsync=self.fsync)
        else:
            events = EventLog()
        journal = None
        if shard_dir is not None:
            journal = JobJournal(shard_dir / "journal.jsonl", fsync=self.fsync)
        kwargs = dict(
            scheduler=self.scheduler,
            batch_size=self.batch_size,
            policy=self.policy,
            registry=self.registry,
            recorder=self._shard_recorder(key),
            runner=ParallelRunner(1),
            schedule_seed=self.schedule_seed,
            solo_cache=self.solo_cache,
            events=events,
            transport=self.transport,
            **self.shard_kwargs,
        )
        shard = SchedulerService(journal=journal, **kwargs)
        # The global admission gate must see the backlog across every
        # shard — install the hook before any replay re-decides jobs.
        shard._total_backlog = self.backlog
        # Job ids are allocated from one global sequence so they stay
        # unique across shards (the CLI maps spool records by job id,
        # and merged event streams key latencies by it). A recovered
        # shard advances the sequence past its journaled high-water
        # mark first.
        self._job_counter = max(self._job_counter, shard.queue._counter)
        shard.queue.new_job_id = self._new_job_id
        self.shards[key] = shard
        if recover:
            shard._replay_journal()
        return shard

    def _new_job_id(self) -> str:
        """Allocate from the cross-shard global job id sequence."""
        self._job_counter += 1
        return f"j{self._job_counter:04d}"

    def shard_of(self, network: Network) -> SchedulerService:
        """The shard serving ``network`` (created on first use)."""
        key = shard_key(network)
        shard = self.shards.get(key)
        if shard is None:
            shard = self._make_shard(key)
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
        """Route one job to its network's shard and submit it there."""
        if self._closed:
            raise ServiceClosed("service has been shut down")
        job = self.shard_of(network).submit(
            network,
            algorithm,
            master_seed=master_seed,
            message_bits=message_bits,
            spec=spec,
        )
        job.meta.setdefault("shard", shard_key(network))
        return job

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
                network,
                algorithm,
                master_seed=master_seed,
                message_bits=message_bits,
            )
            for algorithm in algorithms
        ]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def drain(
        self, stop: Optional[Callable[[], bool]] = None
    ) -> List[Job]:
        """Drain every shard, batches of independent shards in flight
        simultaneously.

        Each iteration stages one *wave*: every batch every shard can
        currently form, fanned out over the shared runner pool in one
        ordered map (so a wave settles exactly like the serial loop
        would). Within a shard, batches are staged in the order the
        shard's queue forms them and settled in that order.

        ``stop`` is polled between waves; when it turns true the drain
        returns after the in-flight wave settles, leaving the remaining
        queue for a later drain (the serve loop's graceful-shutdown
        hook).
        """
        processed: List[Job] = []
        with self.recorder.span(
            "service.drain", category="service", shards=len(self.shards)
        ):
            for wave in _waves(self.shards.values(), self.runner, stop):
                for batch, _ in wave:
                    processed.extend(batch)
                self.drain_waves.append([elapsed for _, elapsed in wave])
        return processed

    def release_parked(self, cause: Optional[str] = None) -> List[Job]:
        """Re-queue parked jobs across all shards (optionally by cause)."""
        released: List[Job] = []
        for shard in self.shards.values():
            released.extend(shard.release_parked(cause=cause))
        return released

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    @classmethod
    def recover(
        cls, directory: Union[str, Path], **kwargs: Any
    ) -> "ShardedSchedulerService":
        """Rebuild a sharded service from its per-shard journals.

        Every ``<directory>/shards/<key>/journal.jsonl`` is replayed
        independently through :meth:`SchedulerService.recover` — the
        same idempotent, exactly-once replay against the shared
        registry a standalone service performs — so one shard's damage
        never blocks another shard's recovery. Raises ``ValueError``
        if ``<directory>/journal.jsonl`` exists (see
        :meth:`pending_jobs`).
        """
        journal_paths = cls._shard_journals(directory)
        service = cls(directory=directory, **kwargs)
        for journal_path in journal_paths:
            service._make_shard(journal_path.parent.name, recover=True)
        return service

    @staticmethod
    def _shard_journals(directory: Union[str, Path]) -> List[Path]:
        base = Path(directory)
        if (base / "journal.jsonl").exists():
            raise ValueError(
                f"{base / 'journal.jsonl'} is a single-queue journal, which "
                "sharded serving does not replay; resubmit its jobs and "
                "remove it"
            )
        return sorted((base / "shards").glob("*/journal.jsonl"))

    @staticmethod
    def pending_jobs(
        directory: Union[str, Path]
    ) -> Dict[str, List[str]]:
        """Per-shard pending job ids left by a crashed serve.

        Reads journal segments without opening (and thus repairing)
        them — the cheap pre-flight the CLI uses to refuse a plain
        ``serve`` over unfinished work. Raises ``ValueError`` if
        ``<directory>/journal.jsonl`` exists: that single-queue journal
        is no shard's, and sharded serving would strand its jobs.
        """
        pending: Dict[str, List[str]] = {}
        for path in ShardedSchedulerService._shard_journals(directory):
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
        spools = set()
        for shard in self.shards.values():
            if shard.journal is None:
                continue
            for entry in shard.journal.state.jobs.values():
                if entry.get("spool"):
                    spools.add(entry["spool"])
        return spools

    # ------------------------------------------------------------------
    # querying and lifecycle
    # ------------------------------------------------------------------

    def backlog(self) -> int:
        """Jobs owed across every shard (queued + parked)."""
        return sum(shard.queue.backlog for shard in self.shards.values())

    def queue_depth(self) -> int:
        """Queued jobs across every shard."""
        return sum(shard.queue.depth for shard in self.shards.values())

    def jobs(self) -> List[Job]:
        """All jobs across shards, in global submission (job id) order."""
        collected: List[Job] = []
        for shard in self.shards.values():
            collected.extend(shard.queue.jobs.values())
        return sorted(collected, key=lambda j: j.job_id)

    def status(self, job_id: str) -> Dict[str, Any]:
        """Status of a job searched across shards (KeyError if unknown)."""
        for shard in self.shards.values():
            if job_id in shard.queue.jobs:
                return shard.status(job_id)
        raise KeyError(job_id)

    def merged_metrics(self) -> MetricsRegistry:
        """Per-shard recorder registries folded into one registry.

        Only meaningful with ``per_shard_recorders=True``; merges by
        the documented rules (counters add, gauges element-wise max,
        histogram buckets add), deterministic regardless of order.
        """
        merged = MetricsRegistry()
        for recorder in self._shard_recorders.values():
            merged.merge(recorder.metrics)
        return merged

    def stats(self) -> Dict[str, Any]:
        """Cross-shard aggregate with the single-service stats shape.

        Per-state job counts and batch counts sum, and so do the shards'
        :meth:`~repro.service.service.SchedulerService.engine_totals`
        when each shard records separately; latency merges per-shard
        :class:`~repro.service.events.LatencyAccumulator` sketches
        (histogram buckets add, window = min first-submit .. max
        last-terminal), and so do the per-shard completion-round counts
        behind ``completion_rounds``; the registry block is the shared
        registry's own stats. A ``shards`` block adds per-shard
        depth/backlog/rounds for hot-shard visibility.
        """
        jobs: Dict[str, int] = {state.value: 0 for state in JobState}
        batches = 0
        events = 0
        journal_records = 0
        journal_pending = 0
        journal_problems: List[str] = []
        journal_segments = 0
        latency_acc = LatencyAccumulator()
        have_events = False
        per_shard: Dict[str, Dict[str, Any]] = {}
        for key, shard in self.shards.items():
            for state, count in shard.queue.by_state().items():
                jobs[state] = jobs.get(state, 0) + count
            batches += shard._batch_counter
            if shard.events is not None:
                have_events = True
                events += len(shard.events)
                latency_acc.merge(
                    LatencyAccumulator.from_events(shard.events.events)
                )
            if shard.journal is not None:
                journal_segments += 1
                journal_records += len(shard.journal)
                journal_pending += len(shard.journal.state.pending())
                journal_problems.extend(shard.journal.problems)
            per_shard[key] = {
                "queue_depth": shard.queue.depth,
                "backlog": shard.queue.backlog,
                "batches": shard._batch_counter,
                "rounds": shard.rounds,
                "jobs": shard.queue.by_state(),
            }
        # Shards with their own recorders accumulate separately; shards
        # sharing the service recorder all report its running totals.
        combine = sum if self.per_shard_recorders else max
        totals = [shard.engine_totals() for shard in self.shards.values()]
        engines = {
            name: float(combine([0.0] + [total[name] for total in totals]))
            for name in ENGINE_COUNTERS
        }
        journal = None
        if journal_segments:
            journal = {
                "segments": journal_segments,
                "records": journal_records,
                "pending": journal_pending,
                "problems": journal_problems,
            }
        latency = completion = None
        if have_events or self.events_mode is not None:
            latency = latency_acc.stats()
            completion = latency_acc.completion_stats()
        return {
            "jobs": jobs,
            "queue_depth": self.queue_depth(),
            "backlog": self.backlog(),
            "batches": batches,
            "registry": self.registry.stats(),
            "engine_counters": engines,
            "latency": latency,
            "completion_rounds": completion,
            "journal": journal,
            "events": events,
            "shards": per_shard,
            "closed": self._closed,
        }

    def checkpoint(self) -> None:
        """Compact every shard journal to its live state."""
        for shard in self.shards.values():
            if shard.journal is not None:
                shard.journal.checkpoint()

    @property
    def closed(self) -> bool:
        return self._closed

    def shutdown(self, drain: bool = True) -> List[Job]:
        """Stop accepting jobs; optionally drain every shard first."""
        processed = self.drain() if drain else []
        for shard in self.shards.values():
            shard.shutdown(drain=False)
        self.runner.close()
        self._closed = True
        return processed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedSchedulerService(shards={len(self.shards)}, "
            f"backlog={self.backlog()}, closed={self._closed})"
        )
