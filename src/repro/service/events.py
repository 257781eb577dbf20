"""The job-lifecycle event log: structured JSONL telemetry for serving.

Every transition a job goes through in the
:class:`~repro.service.service.SchedulerService` —
``submitted / admitted / parked / released / rejected / batched /
retried / done / failed`` — is emitted as one :class:`JobEvent`: the
event kind, the job id and content fingerprint, the batch id (once
batched), the queue depth at emission, and a **wall-clock** timestamp
(``time.time()``, so logs from different processes line up on one
timeline, matching the recorder's wall-clock anchor).

The log is the service's source of truth for latency telemetry:
:func:`latency_stats` replays a stream of events into per-job
**queue latency** (submitted → first batched) and **end-to-end latency**
(submitted → done/failed) quantile histograms plus a **jobs/sec**
throughput gauge — exactly the p50/p99 serving numbers ROADMAP item 2
asks for, derived rather than separately maintained. The same replay
collects the ``completion_round`` every executed job's ``done`` event
carries (:meth:`LatencyAccumulator.completion_stats`).

:class:`EventLog` keeps events in memory and, given a path, appends each
one as a JSON line to a spool file (``events.jsonl``); :func:`read_events`
parses such a file back, so ``stats`` can be recomputed offline from the
spool directory alone.
"""

from __future__ import annotations

import atexit
import json
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Dict, Iterable, List, Optional, Union

from ..telemetry.metrics import HistogramStats

__all__ = [
    "EVENT_KINDS",
    "EventLog",
    "FSYNC_POLICIES",
    "JobEvent",
    "LatencyAccumulator",
    "check_fsync",
    "latency_stats",
    "read_events",
    "TERMINAL_KINDS",
]

#: Every event kind the service emits, in rough lifecycle order.
EVENT_KINDS = (
    "submitted",
    "admitted",
    "parked",
    "released",
    "rejected",
    "batched",
    "retried",
    "recovered",
    "done",
    "failed",
    "quarantined",
)

#: Kinds that end a job's lifecycle (close its end-to-end latency).
TERMINAL_KINDS = frozenset({"done", "failed", "rejected", "quarantined"})

#: Durability policies shared by :class:`EventLog` and
#: :class:`~repro.service.journal.JobJournal`: ``"always"`` flushes and
#: ``os.fsync``-s every write (survives power loss), ``"batch"`` flushes
#: to the OS without fsync (survives ``kill -9``), ``"never"`` leaves
#: buffering to the interpreter (fastest; loses the buffered tail on a
#: crash).
FSYNC_POLICIES = ("always", "batch", "never")


def check_fsync(policy: str) -> str:
    """Validate an fsync policy name; returns it for chaining."""
    if policy not in FSYNC_POLICIES:
        raise ValueError(
            f"fsync must be one of {FSYNC_POLICIES}, got {policy!r}"
        )
    return policy


@dataclass(frozen=True)
class JobEvent:
    """One structured lifecycle event."""

    kind: str
    job_id: str
    #: Wall-clock unix seconds (``time.time()``) at emission.
    ts: float
    #: Content fingerprint of the job (``None``: unaddressable).
    fingerprint: Optional[str] = None
    #: Batch the job was grouped into (``batched`` and later events).
    batch: Optional[str] = None
    #: Queued jobs at emission time.
    queue_depth: Optional[int] = None
    #: Free-form extras (admission reason, retry attempt, registry hit).
    attrs: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly record (what the spool file stores per line)."""
        record: Dict[str, Any] = {
            "kind": self.kind,
            "job_id": self.job_id,
            "ts": self.ts,
        }
        if self.fingerprint is not None:
            record["fingerprint"] = self.fingerprint
        if self.batch is not None:
            record["batch"] = self.batch
        if self.queue_depth is not None:
            record["queue_depth"] = self.queue_depth
        if self.attrs:
            record["attrs"] = self.attrs
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "JobEvent":
        """Inverse of :meth:`as_dict`."""
        return cls(
            kind=str(record["kind"]),
            job_id=str(record["job_id"]),
            ts=float(record["ts"]),
            fingerprint=record.get("fingerprint"),
            batch=record.get("batch"),
            queue_depth=record.get("queue_depth"),
            attrs=dict(record.get("attrs", {})),
        )


class EventLog:
    """In-memory event list with an optional JSONL spool file.

    Parameters
    ----------
    path:
        Optional spool file; every event is appended as one JSON line.
        Parent directories are created on first write.
    clock:
        Timestamp source (default ``time.time``); injectable for
        deterministic tests.
    flush_every:
        Flush the spool handle every this-many events (and on
        :meth:`close`). The default of 32 keeps the per-event cost to a
        buffered write — one flush syscall per block instead of per
        line — at the price of losing at most ``flush_every - 1``
        trailing events if the process dies without closing;
        :func:`read_events` tolerates the torn tail. Pass ``1`` to
        flush every event.
    fsync:
        Durability policy (see :data:`FSYNC_POLICIES`, shared with the
        job journal). ``"batch"`` (default) keeps the ``flush_every``
        behaviour; ``"always"`` flushes **and** ``os.fsync``-s every
        event; ``"never"`` skips periodic flushes entirely.

    A path-backed log registers an ``atexit`` hook when it first opens
    its spool handle (removed again on :meth:`close`), so events
    buffered between flushes are not silently dropped when the
    interpreter exits without an explicit shutdown — an abrupt
    ``kill -9`` is what the fsync policies are for.
    """

    def __init__(
        self,
        path: Union[str, Path, None] = None,
        clock=time.time,
        flush_every: int = 32,
        fsync: str = "batch",
    ):
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        check_fsync(fsync)
        self.path = Path(path) if path is not None else None
        self.clock = clock
        self.flush_every = flush_every
        self.fsync = fsync
        self.events: List[JobEvent] = []
        self._handle: Optional[IO[str]] = None
        self._unflushed = 0
        self._atexit_registered = False

    def emit(
        self,
        kind: str,
        job_id: str,
        fingerprint: Optional[str] = None,
        batch: Optional[str] = None,
        queue_depth: Optional[int] = None,
        **attrs: Any,
    ) -> JobEvent:
        """Record one event now; returns it."""
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {kind!r}; expected one of {EVENT_KINDS}"
            )
        event = JobEvent(
            kind=kind,
            job_id=job_id,
            ts=self.clock(),
            fingerprint=fingerprint,
            batch=batch,
            queue_depth=queue_depth,
            attrs=attrs,
        )
        self.events.append(event)
        if self.path is not None:
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = self.path.open("a")
                if not self._atexit_registered:
                    atexit.register(self.close)
                    self._atexit_registered = True
            self._handle.write(
                json.dumps(event.as_dict(), separators=(",", ":"))
            )
            self._handle.write("\n")
            self._unflushed += 1
            if self.fsync == "always":
                self._handle.flush()
                os.fsync(self._handle.fileno())
                self._unflushed = 0
            elif (
                self.fsync == "batch" and self._unflushed >= self.flush_every
            ):
                self._handle.flush()
                self._unflushed = 0
        return event

    def flush(self) -> None:
        """Force buffered spool lines to disk."""
        if self._handle is not None:
            self._handle.flush()
            self._unflushed = 0

    def close(self) -> None:
        """Flush and close the spool handle (events stay in memory)."""
        if self._atexit_registered:
            atexit.unregister(self.close)
            self._atexit_registered = False
        if self._handle is not None:
            self._handle.close()
            self._handle = None
            self._unflushed = 0

    def __len__(self) -> int:
        return len(self.events)

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = f", path={self.path}" if self.path else ""
        return f"EventLog(events={len(self.events)}{where})"


def read_events(path: Union[str, Path]) -> List[JobEvent]:
    """Parse an ``events.jsonl`` spool file back into events.

    Blank lines are skipped; a torn final line (killed process) is
    tolerated and dropped rather than raising.
    """
    events: List[JobEvent] = []
    text = Path(path).read_text(errors="replace")
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and "kind" in record:
            events.append(JobEvent.from_dict(record))
    return events


@dataclass
class LatencyAccumulator:
    """Mergeable latency sketches derived from lifecycle events.

    The per-shard half of cross-shard ``stats()`` aggregation: each
    shard replays its own event log into one accumulator
    (:meth:`from_events`) and the shards merge associatively
    (:meth:`merge`) by the documented
    :class:`~repro.telemetry.metrics.MetricsRegistry` rules — histogram
    sketches add bucket-wise, terminal counters add, and the observed
    window combines by min(first submit) / max(last terminal). Because
    every job lives in exactly one shard, merging the per-shard
    accumulators yields exactly the accumulator of the concatenated
    event stream.
    """

    queue_hist: HistogramStats = field(default_factory=HistogramStats)
    e2e_hist: HistogramStats = field(default_factory=HistogramStats)
    terminals: Dict[str, int] = field(
        default_factory=lambda: {
            kind: 0 for kind in ("done", "failed", "quarantined", "rejected")
        }
    )
    #: ``completion round -> done jobs`` (the ``completion_round`` a
    #: ``done`` event of an executed job carries); exact, and merged by
    #: adding counts.
    completion_rounds: Counter = field(default_factory=Counter)
    events: int = 0
    first_ts: Optional[float] = None
    last_terminal_ts: Optional[float] = None

    @classmethod
    def from_events(cls, events: Iterable[JobEvent]) -> "LatencyAccumulator":
        """Replay one event stream (one shard's log) into an accumulator."""
        acc = cls()
        submitted: Dict[str, float] = {}
        first_batched: Dict[str, float] = {}
        for event in events:
            acc.events += 1
            if event.kind == "submitted":
                submitted[event.job_id] = event.ts
                if acc.first_ts is None or event.ts < acc.first_ts:
                    acc.first_ts = event.ts
            elif event.kind == "batched":
                if event.job_id not in first_batched:
                    first_batched[event.job_id] = event.ts
                    start = submitted.get(event.job_id)
                    if start is not None:
                        acc.queue_hist.observe(max(event.ts - start, 0.0))
            elif event.kind in TERMINAL_KINDS:
                acc.terminals[event.kind] += 1
                completion = event.attrs.get("completion_round")
                if completion is not None:
                    acc.completion_rounds[completion] += 1
                start = submitted.get(event.job_id)
                if start is not None:
                    acc.e2e_hist.observe(max(event.ts - start, 0.0))
                if (
                    acc.last_terminal_ts is None
                    or event.ts > acc.last_terminal_ts
                ):
                    acc.last_terminal_ts = event.ts
        return acc

    def merge(self, other: "LatencyAccumulator") -> "LatencyAccumulator":
        """Fold another shard's accumulator into this one (in place)."""
        self.queue_hist.merge(other.queue_hist)
        self.e2e_hist.merge(other.e2e_hist)
        for kind, count in other.terminals.items():
            self.terminals[kind] = self.terminals.get(kind, 0) + count
        self.completion_rounds.update(other.completion_rounds)
        self.events += other.events
        if other.first_ts is not None and (
            self.first_ts is None or other.first_ts < self.first_ts
        ):
            self.first_ts = other.first_ts
        if other.last_terminal_ts is not None and (
            self.last_terminal_ts is None
            or other.last_terminal_ts > self.last_terminal_ts
        ):
            self.last_terminal_ts = other.last_terminal_ts
        return self

    def stats(self) -> Dict[str, Any]:
        """The JSON-friendly summary :func:`latency_stats` documents."""
        completed = self.terminals["done"]
        window = 0.0
        if self.first_ts is not None and self.last_terminal_ts is not None:
            window = max(self.last_terminal_ts - self.first_ts, 0.0)
        jobs_per_sec = completed / window if window > 0 else 0.0
        return {
            "queue_latency_s": self.queue_hist.as_dict(),
            "e2e_latency_s": self.e2e_hist.as_dict(),
            "jobs_per_sec": jobs_per_sec,
            "completed": completed,
            "failed": self.terminals["failed"],
            "quarantined": self.terminals["quarantined"],
            "rejected": self.terminals["rejected"],
            "window_s": window,
            "events": self.events,
        }

    def completion_stats(self) -> Dict[str, Any]:
        """``{count, mean, p50, p90}`` of the executed jobs' completion
        rounds (nearest-rank quantiles, exact)."""
        counts = self.completion_rounds
        total = sum(counts.values())
        summary: Dict[str, Any] = {
            "count": total,
            "mean": (
                sum(r * n for r, n in counts.items()) / total if total else 0.0
            ),
        }
        for name, q in (("p50", 0.50), ("p90", 0.90)):
            rank, seen, value = max(1, math.ceil(q * total)), 0, 0
            for value in sorted(counts):
                seen += counts[value]
                if seen >= rank:
                    break
            summary[name] = value
        return summary


def latency_stats(events: Iterable[JobEvent]) -> Dict[str, Any]:
    """Derive serving telemetry from a lifecycle event stream.

    Returns a JSON-friendly dict::

        {
          "queue_latency_s":  <sketch summary with p50/p90/p99>,
          "e2e_latency_s":    <sketch summary with p50/p90/p99>,
          "jobs_per_sec":     <completed jobs / observed window>,
          "completed":        <jobs that reached done>,
          "failed":           <jobs that reached failed>,
          "quarantined":      <jobs that reached quarantined>,
          "rejected":         <jobs that reached rejected>,
          "window_s":         <first submit .. last terminal event>,
          "events":           <events replayed>,
        }

    Queue latency is ``submitted → first batched`` (time spent waiting
    in the queue); end-to-end latency is ``submitted → <terminal>``,
    where terminal is any of :data:`TERMINAL_KINDS` — a job that ends
    ``quarantined`` (poison batch) or ``rejected`` (admission control)
    left the system just as surely as one that ended ``done``, so it
    closes its latency and extends the observed window. Only ``done``
    jobs count toward ``jobs_per_sec``. Jobs served straight from the
    registry (no ``batched`` event) count toward e2e latency and
    throughput but not queue latency.

    Implemented as :meth:`LatencyAccumulator.from_events` followed by
    :meth:`LatencyAccumulator.stats`; a sharded service computes the
    same summary by merging per-shard accumulators instead.
    """
    return LatencyAccumulator.from_events(events).stats()
