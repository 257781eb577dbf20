"""The write-ahead job journal: durable service state as an append log.

``state.json`` records what the service *did*; the journal records what
it is *about to do*. :class:`~repro.service.service.SchedulerService`
appends one record **before** applying every job state transition
(submit / admitted / parked / released / rejected / batch / done /
failed / quarantined), so after a crash at any instruction the journal
holds a prefix of the service's history whose replay reconstructs a
consistent queue — acknowledged jobs are never lost, and jobs whose
``done`` record (or registry artifact) survived are never re-executed.

Format
------
One JSON object per line, written through the same
:class:`~repro.service.events.AppendLog` as the event log, with three
framing fields added::

    {"seq": 7, "kind": "done", "job": "j0003", ..., "crc": "7d1aa0f3"}

* ``seq`` — strictly sequential; a gap means lost lines, replay stops.
* ``crc`` — CRC-32 of the record serialized without the ``crc`` field
  (``json.dumps(..., sort_keys=True)``); any torn or bit-flipped line
  fails the check.
* ``kind`` — one of :data:`RECORD_KINDS`.

:func:`read_journal` is torn-tail-tolerant the way a write-ahead log
must be: replay accepts the longest valid prefix and drops everything
from the first unparsable / CRC-mismatched / out-of-sequence line
onward. A process killed mid-``write`` therefore loses at most the
record being appended — which by the write-ahead discipline had not
been applied yet. Opening a journal whose replay reported problems
*repairs* it before any append: the file is atomically rewritten as
exactly the valid prefix, so records appended by the resumed process
land after — never merged into — the torn line, and a second crash
still replays everything the resume journaled (the at-most-one-record
loss bound holds per crash, not per journal lifetime).

Trust model
-----------
The journal lives beside the spool log and registry and shares
their trust boundary: recovery unpickles ``submit`` payloads
(:func:`decode_job_payload`), so a journal must only ever be replayed
if it was written by the local service. The CRC framing defends
against *accidental* damage — torn writes, bit-rot — not tampering; a
hand-crafted journal line with a valid CRC and a malicious pickle
payload executes arbitrary code on ``serve --resume``. When jobs must
round-trip through less-trusted storage, submit them with a ``spec``
(``{"net": ..., "algo": ...}``): spec payloads are stored and rebuilt
as plain strings, never pickled.

Durability knobs follow :data:`FSYNC_POLICIES` (shared with
:class:`~repro.service.events.EventLog`): ``"batch"`` (default) flushes
every append to the OS — survives ``kill -9`` — ``"always"`` adds an
``os.fsync`` per append — survives power loss — and ``"never"`` leaves
buffering to the interpreter (benchmarks only).

Checkpoint + compaction
-----------------------
Replay cost is bounded: the journal materializes its own
:class:`JournalState` incrementally, and :meth:`JobJournal.checkpoint`
atomically rewrites the file as a single ``checkpoint`` record carrying
that state (temp file + ``os.replace``), which replay uses as its new
starting point. With ``compact_every=N`` the journal checkpoints itself
after every ``N`` appended records, so the file stays O(live state)
instead of O(history).
"""

from __future__ import annotations

import base64
import pickle
import re
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from .._util import atomic_write_text
from . import framing
from .events import FSYNC_POLICIES, AppendLog
from .jobs import TERMINAL_STATES, TRANSITIONS, id_order

__all__ = [
    "JobJournal",
    "JournalState",
    "RECORD_KINDS",
    "TERMINAL_RECORD_STATES",
    "decode_job_payload",
    "encode_job_payload",
    "read_journal",
]

#: Every record kind the journal accepts: the two that create a job and
#: a batch, the lifecycle transitions, and compaction.
RECORD_KINDS = ("submit", "batch", *TRANSITIONS, "checkpoint")

#: Replayed job states no later record may change: the values of
#: :data:`repro.service.jobs.TERMINAL_STATES`.
TERMINAL_RECORD_STATES = frozenset(state.value for state in TERMINAL_STATES)

_JOB_NUMBER = re.compile(r"^j(\d+)$")
_BATCH_NUMBER = re.compile(r"^b(\d+)$")


def encode_job_payload(
    network: Any, algorithm: Any, spec: Optional[Dict[str, Any]] = None
) -> Optional[Dict[str, Any]]:
    """How a job's executable content rides in its ``submit`` record.

    A CLI-style spec (``{"net": "grid:6x6", "algo": "bfs:..."}``) is
    stored verbatim — human-readable and stable across versions. Without
    one, the ``(network, algorithm)`` pair is pickled (they already
    cross process boundaries for the parallel drain) and base64-armored
    into the JSON line. Returns ``None`` when neither works; such a job
    is journaled for bookkeeping but cannot be rebuilt after a crash.
    """
    if spec is not None and "net" in spec and "algo" in spec:
        payload: Dict[str, Any] = {"net": str(spec["net"]), "algo": str(spec["algo"])}
        return payload
    try:
        blob = pickle.dumps((network, algorithm), protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return None
    return {"pickle": base64.b64encode(blob).decode("ascii")}


def decode_job_payload(
    payload: Optional[Dict[str, Any]]
) -> Optional[Tuple[Any, Any]]:
    """Rebuild ``(network, algorithm)`` from a ``submit`` payload.

    Returns ``None`` when the payload is absent or unusable (corrupt
    pickle, unknown spec) — the caller decides what a non-rebuildable
    pending job becomes (the service marks it ``failed`` with a reason).

    Pickle payloads are unpickled as-is: only feed this journals the
    local service wrote (see *Trust model* in the module docstring).
    Spec payloads are rebuilt through the string parsers and are safe
    regardless of provenance.
    """
    if not payload:
        return None
    if "net" in payload and "algo" in payload:
        from .specs import parse_algorithm, parse_network

        try:
            return parse_network(payload["net"]), parse_algorithm(payload["algo"])
        except ValueError:
            return None
    blob = payload.get("pickle")
    if not blob:
        return None
    try:
        network, algorithm = pickle.loads(base64.b64decode(blob))
    except Exception:
        return None
    return network, algorithm


class JournalState:
    """Materialized view of a journal: what replaying it reconstructs.

    ``jobs`` maps job id to a JSON-friendly record::

        {"state": "queued", "fingerprint": ..., "master_seed": 0,
         "message_bits": 9, "algorithm": "BFS", "payload": {...},
         "reason": "", "batch_attempts": 1, "batch": "b0002",
         "spool": "s0004", "from_registry": False}

    plus the two id counters (``last_job`` / ``last_batch``) the service
    must not reuse after recovery. The whole state round-trips through
    :meth:`as_payload` / :meth:`from_payload`, which is exactly what a
    ``checkpoint`` record carries.
    """

    def __init__(self) -> None:
        self.jobs: Dict[str, Dict[str, Any]] = {}
        self.last_job = 0
        self.last_batch = 0
        self.applied = 0

    # ------------------------------------------------------------------

    def pending(self) -> List[str]:
        """Job ids whose last journaled state is non-terminal, in id
        order."""
        return sorted(
            (
                job_id
                for job_id, record in self.jobs.items()
                if record["state"] not in TERMINAL_RECORD_STATES
            ),
            key=id_order,
        )

    def by_state(self) -> Dict[str, int]:
        """Job counts per journaled state (only states present appear)."""
        counts: Dict[str, int] = {}
        for record in self.jobs.values():
            counts[record["state"]] = counts.get(record["state"], 0) + 1
        return counts

    # ------------------------------------------------------------------

    def apply(self, record: Dict[str, Any]) -> None:
        """Fold one journal record into the state (replay step)."""
        kind = record.get("kind")
        if kind == "checkpoint":
            restored = JournalState.from_payload(record.get("state") or {})
            self.jobs = restored.jobs
            self.last_job = restored.last_job
            self.last_batch = restored.last_batch
        elif kind == "submit":
            job_id = record["job"]
            match = _JOB_NUMBER.match(job_id)
            if match:
                self.last_job = max(self.last_job, int(match.group(1)))
            self.jobs[job_id] = {
                "state": "submitted",
                "fingerprint": record.get("fingerprint"),
                "master_seed": record.get("master_seed", 0),
                "message_bits": record.get("message_bits"),
                "algorithm": record.get("algorithm", "?"),
                "payload": record.get("payload"),
                "reason": "",
                "batch_attempts": 0,
                "batch": None,
                "spool": record.get("spool"),
                "from_registry": False,
            }
        elif kind == "batch":
            match = _BATCH_NUMBER.match(record.get("batch", ""))
            if match:
                self.last_batch = max(self.last_batch, int(match.group(1)))
            for job_id in record.get("jobs", ()):
                entry = self.jobs.get(job_id)
                if entry is not None and entry["state"] not in TERMINAL_RECORD_STATES:
                    entry["state"] = "batched"
                    entry["batch"] = record.get("batch")
                    entry["batch_attempts"] += 1
        elif kind in TRANSITIONS:
            entry = self.jobs.get(record.get("job"))
            if entry is not None and entry["state"] not in TERMINAL_RECORD_STATES:
                entry["state"] = TRANSITIONS[kind][0].value
                if record.get("reason"):
                    entry["reason"] = record["reason"]
                if kind == "done":
                    entry["from_registry"] = bool(record.get("from_registry"))
        self.applied += 1

    # ------------------------------------------------------------------

    def as_payload(self) -> Dict[str, Any]:
        """JSON-friendly snapshot (the body of a ``checkpoint`` record)."""
        return {
            "jobs": {job_id: dict(entry) for job_id, entry in self.jobs.items()},
            "last_job": self.last_job,
            "last_batch": self.last_batch,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "JournalState":
        state = cls()
        state.jobs = {
            job_id: dict(entry)
            for job_id, entry in (payload.get("jobs") or {}).items()
        }
        state.last_job = int(payload.get("last_job", 0))
        state.last_batch = int(payload.get("last_batch", 0))
        return state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JournalState(jobs={len(self.jobs)}, "
            f"pending={len(self.pending())}, last_job={self.last_job})"
        )


def read_journal(
    path: Union[str, Path]
) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Parse a journal file into its longest valid record prefix.

    Returns ``(records, problems)``: replay stops at the first line that
    fails to parse, fails its CRC, or breaks the ``seq`` chain, and
    every dropped line is described in ``problems`` (empty for a clean
    file). A missing file reads as empty.
    """
    records: List[Dict[str, Any]] = []
    problems: List[str] = []
    try:
        lines = AppendLog.read(path)
    except FileNotFoundError:
        return records, problems
    expected_seq: Optional[int] = None
    for lineno, record in lines:
        if record is AppendLog.UNPARSABLE:
            problems.append(f"line {lineno}: unparsable (torn tail)")
            break
        if not isinstance(record, dict) or "crc" not in record or "seq" not in record:
            problems.append(f"line {lineno}: missing seq/crc framing")
            break
        crc = record.pop("crc")
        if framing.crc(framing.encode(record)) != crc:
            problems.append(f"line {lineno}: CRC mismatch")
            break
        seq = record["seq"]
        if expected_seq is not None and seq != expected_seq:
            problems.append(
                f"line {lineno}: seq {seq} breaks chain (expected {expected_seq})"
            )
            break
        expected_seq = int(seq) + 1
        records.append(record)
    further = len(lines) - len(records) - 1
    if problems and further > 0:
        problems.append(f"{further} further line(s) after the break ignored")
    return records, problems


class JobJournal(AppendLog):
    """Append-only, CRC-framed, checkpointable job journal.

    An :class:`~repro.service.events.AppendLog` with a flush cadence of
    one record, so ``"batch"`` flushes every append.

    Parameters
    ----------
    path:
        The journal file (created, with parents, on first append). An
        existing file is replayed on construction, seeding
        :attr:`state` and the ``seq`` counter so appends continue the
        chain across process restarts; a file whose replay reported
        problems is atomically repaired — rewritten as its longest
        valid prefix — so later appends are never hidden behind torn
        debris (:attr:`problems` records both the damage and the
        repair).
    fsync:
        Durability policy per append — see :data:`FSYNC_POLICIES`.
        ``"batch"`` (default) flushes to the OS every append (survives
        ``kill -9``); ``"always"`` adds ``os.fsync`` (survives power
        loss); ``"never"`` is buffered (benchmarks).
    compact_every:
        Auto-checkpoint after this many appended records (``None``
        never auto-compacts; :meth:`checkpoint` is always available).
    clock:
        Timestamp source stamped into each record (``time.time``).
    """

    def __init__(
        self,
        path: Union[str, Path],
        fsync: str = "batch",
        compact_every: Optional[int] = None,
        clock=time.time,
    ):
        super().__init__(path, flush_every=1, fsync=fsync)
        if compact_every is not None and compact_every < 1:
            raise ValueError(
                f"compact_every must be >= 1 or None, got {compact_every}"
            )
        self.compact_every = compact_every
        self.clock = clock
        self.state = JournalState()
        self._seq = 0
        self._since_checkpoint = 0
        records, self.problems = read_journal(self.path)
        for record in records:
            self.state.apply(record)
            self._seq = int(record["seq"])
        if self.problems:
            # Repair before the first append. Appending after a torn
            # tail (which usually lacks its newline) would merge new
            # records into the debris, and replay — which stops at the
            # tear — would silently drop everything the resumed
            # process journals. Rewriting the file as exactly the
            # valid prefix keeps the loss bound at one record per
            # crash instead of one crash losing a whole resume.
            self._rewrite(records)
            self.problems.append(
                f"repaired: truncated to {len(records)} valid record(s)"
            )

    # ------------------------------------------------------------------

    @property
    def seq(self) -> int:
        """Sequence number of the last appended (or replayed) record."""
        return self._seq

    def append(self, kind: str, **fields: Any) -> Dict[str, Any]:
        """Durably append one record, then fold it into :attr:`state`.

        The write-ahead contract lives in the ordering here: the line is
        written (and flushed per the fsync policy) *before* the caller
        applies the transition it describes, so a crash immediately
        after this call loses no acknowledged work.
        """
        if kind not in RECORD_KINDS:
            raise ValueError(
                f"unknown journal record kind {kind!r}; expected one of "
                f"{RECORD_KINDS}"
            )
        record: Dict[str, Any] = {
            "seq": self._seq + 1,
            "kind": kind,
            "ts": self.clock(),
        }
        record.update(fields)
        self._append(framing.frame(record))
        self._seq += 1
        self.state.apply(record)
        self._since_checkpoint += 1
        if (
            self.compact_every is not None
            and kind != "checkpoint"
            and self._since_checkpoint >= self.compact_every
        ):
            self.checkpoint()
        return record

    # ------------------------------------------------------------------

    def _rewrite(self, records: List[Dict[str, Any]]) -> None:
        """Atomically replace the file with exactly ``records``.

        Each record is re-framed with its CRC
        (:func:`~repro.service.framing.encode` is deterministic, so an
        unmodified record reproduces its original bytes), and
        :func:`~repro._util.atomic_write_text` fsyncs the replacement
        before the ``os.replace``, so a crash at any point leaves either
        the old file or the complete new one — never a torn mix.
        """
        self.close()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            self.path, "".join(framing.frame(r) + "\n" for r in records)
        )

    def checkpoint(self) -> None:
        """Compact the journal to one ``checkpoint`` record, atomically."""
        record: Dict[str, Any] = {
            "seq": self._seq + 1,
            "kind": "checkpoint",
            "ts": self.clock(),
            "state": self.state.as_payload(),
        }
        self._rewrite([record])
        self._seq += 1
        self._since_checkpoint = 0

    def __len__(self) -> int:
        return self.state.applied

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JobJournal(path={self.path}, seq={self._seq}, "
            f"pending={len(self.state.pending())}, fsync={self.fsync!r})"
        )
