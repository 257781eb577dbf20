"""The batch scheduling service (see ``docs/SERVICE.md``).

Turns the library's one-shot schedulers into a serving system: submit
``(network, algorithm)`` jobs over time, let the service batch
compatible jobs into single near-optimal workload executions, query job
states at any time, and have every result persisted content-addressed
so resubmissions never re-execute.

* :class:`SchedulerService` — the service: jobs routed by
  :func:`shard_key` to per-network shards, each with its own queue,
  journal segment, and event log, drained together over one process
  pool; admission with per-shard backpressure, batching, resilient
  execution with per-job retries, registry integration, ``service.*``
  telemetry, ``stats()`` merged across shards, graceful
  drain/shutdown;
* :class:`JobQueue` / :class:`Job` / :class:`JobState` — the queue and
  the job lifecycle (``queued → batched → running → done/failed``, with
  ``rejected``/``parked`` at admission);
* :class:`AdmissionPolicy` — round-budget and queue-depth gates;
* :class:`RunRegistry` / :class:`RunArtifact` — the persistent
  content-addressed run registry;
* :class:`EventLog` / :class:`JobEvent` — the structured job-lifecycle
  event log (JSONL spool), from which :func:`latency_stats` derives
  p50/p90/p99 queue and end-to-end latency plus jobs/sec;
* :class:`JobJournal` / :class:`JournalState` — the CRC-framed
  write-ahead job journal giving the service crash safety:
  transitions are journaled before they are applied, and
  :meth:`SchedulerService.recover` replays the journal (idempotently,
  against the registry) after a crash — see the ``Durability &
  recovery`` section of ``docs/SERVICE.md`` and :data:`CRASH_POINTS`
  for the injection points that keep the contract tested;
* :class:`ServeLoop` — the poll → drain → checkpoint daemon behind
  ``python -m repro serve --follow``: graceful SIGTERM/SIGINT (finish
  the in-flight wave, checkpoint, exit), periodic journal compaction;
* :mod:`repro.service.specs` — the ``kind:key=value`` spec language of
  the ``python -m repro serve|submit|status`` CLI.
"""

from .. import _lazy

__all__ = [
    "AdmissionDecision",
    "AdmissionPolicy",
    "CRASH_POINTS",
    "EventLog",
    "FSYNC_POLICIES",
    "Job",
    "JobEvent",
    "JobJournal",
    "JobQueue",
    "JobResult",
    "JobState",
    "JournalState",
    "LatencyAccumulator",
    "RunArtifact",
    "RunRegistry",
    "SchedulerService",
    "ServeLoop",
    "ServiceClosed",
    "ShardedSchedulerService",
    "format_fault_plan",
    "job_fingerprint",
    "latency_stats",
    "parse_algorithm",
    "parse_fault_plan",
    "parse_network",
    "parse_scheduler",
    "read_events",
    "read_journal",
    "shard_key",
]

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        "AdmissionDecision": "admission",
        "AdmissionPolicy": "admission",
        "ServeLoop": "daemon",
        "FSYNC_POLICIES": "events",
        "EventLog": "events",
        "JobEvent": "events",
        "LatencyAccumulator": "events",
        "latency_stats": "events",
        "read_events": "events",
        "Job": "jobs",
        "JobResult": "jobs",
        "JobState": "jobs",
        "job_fingerprint": "jobs",
        "JobJournal": "journal",
        "JournalState": "journal",
        "read_journal": "journal",
        "RunArtifact": "registry",
        "RunRegistry": "registry",
        "CRASH_POINTS": "service",
        "JobQueue": "service",
        "SchedulerService": "service",
        "ServiceClosed": "service",
        "ShardedSchedulerService": "service",
        "shard_key": "service",
        "format_fault_plan": "specs",
        "parse_algorithm": "specs",
        "parse_fault_plan": "specs",
        "parse_network": "specs",
        "parse_scheduler": "specs",
    },
)
