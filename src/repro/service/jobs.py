"""Jobs: the unit of work the batch scheduling service accepts.

A job is one ``(network, algorithm)`` DAS instance plus the seeds fixing
its random tapes. The service's contract is the DAS guarantee itself:
whatever batch the job ends up scheduled in, every node outputs exactly
what the algorithm's standalone run would output. Two mechanisms make
that well-defined:

* **content addressing** — :func:`job_fingerprint` reuses the solo-run
  cache fingerprints (:func:`repro.parallel.cache.network_fingerprint` /
  :func:`~repro.parallel.cache.algorithm_fingerprint`), so the same
  logical job hashes identically across submissions, processes, and
  interpreter restarts, and the :class:`~repro.service.registry.RunRegistry`
  can serve resubmissions without re-execution;
* **stable tape identities** — a job's per-node random tapes are salted
  with its fingerprint-derived :attr:`Job.tape_id` rather than its
  position in whatever :class:`~repro.core.workload.Workload` the
  batcher builds, so outputs are batch-invariant even for randomized
  algorithms (see ``Workload(algorithm_ids=...)``).

States progress ``queued → batched → running → done``; admission can
divert a submission to ``rejected`` (hard no) or ``parked`` (wait for a
budget raise), an execution that exhausts its retries ends ``failed``,
and crash recovery dead-letters a job that repeatedly took its batch
down with it as ``quarantined`` (see
:meth:`~repro.service.service.SchedulerService.recover`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple, Union

from .._util import stable_digest

if TYPE_CHECKING:
    from ..congest.network import Network
    from ..congest.program import Algorithm
    from ..metrics.congestion import WorkloadParams

__all__ = ["Job", "JobResult", "JobState", "id_order", "job_fingerprint"]

_NUMBER = re.compile(r"(\d+)")


def id_order(key: str) -> List[Union[str, int]]:
    """Sort key putting ids in the order of their numbers.

    Job ids (``j0001``) and spool keys (``s0001``, ``spool@<offset>``)
    are zero-padded to four digits only, so string order puts
    ``j10000`` before ``j9999``; this key compares the digit runs as
    integers.
    """
    return [int(part) if i % 2 else part for i, part in enumerate(_NUMBER.split(key))]


def job_fingerprint(
    network: Network,
    algorithm: Algorithm,
    master_seed: int = 0,
    message_bits: Optional[int] = None,
) -> Optional[str]:
    """Content-addressed identity of one job (``None``: unaddressable).

    Covers everything the job's standalone outputs are a function of:
    topology, algorithm class + constructor state, master seed, and the
    message-size budget. An algorithm whose state cannot be rendered
    stably (e.g. it holds a lambda) has no fingerprint — such jobs still
    run, but bypass the registry and get a per-submission tape identity.
    """
    from ..parallel.cache import algorithm_fingerprint, network_fingerprint

    algo_fp = algorithm_fingerprint(algorithm)
    if algo_fp is None:
        return None
    return stable_digest(
        "service-job",
        network_fingerprint(network),
        algo_fp,
        master_seed,
        message_bits,
    ).hex()


class JobState(str, Enum):
    """Lifecycle of a submitted job."""

    QUEUED = "queued"
    PARKED = "parked"
    REJECTED = "rejected"
    BATCHED = "batched"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    #: Dead-letter: the job repeatedly killed the process mid-batch and
    #: is isolated so it cannot sink its batchmates again after restart.
    QUARANTINED = "quarantined"

    def __str__(self) -> str:
        return self.value


#: States a job can never leave.
TERMINAL_STATES = frozenset(
    {JobState.REJECTED, JobState.DONE, JobState.FAILED, JobState.QUARANTINED}
)

#: The job lifecycle: every journal record kind that moves a job, the
#: state it moves the job to, and the ``service.*`` recorder counter the
#: move bumps (``None``: uncounted). The live service applies it in
#: :meth:`~repro.service.service.SchedulerService._transition`, journal
#: replay in :meth:`~repro.service.journal.JournalState.apply`. The
#: ``submit`` and ``batch`` records are not here: they create a job and
#: a batch rather than move one.
TRANSITIONS: Dict[str, Tuple[JobState, Optional[str]]] = {
    "admitted": (JobState.QUEUED, "service.admitted"),
    "parked": (JobState.PARKED, "service.parked"),
    "released": (JobState.QUEUED, None),
    "rejected": (JobState.REJECTED, "service.rejected"),
    "done": (JobState.DONE, "service.jobs_done"),
    "failed": (JobState.FAILED, "service.jobs_failed"),
    "quarantined": (JobState.QUARANTINED, "service.quarantined"),
}


@dataclass
class JobResult:
    """What a finished job hands back to its submitter."""

    #: Per-node outputs, ``node -> value`` — bit-identical to the job's
    #: standalone solo run (the DAS guarantee).
    outputs: Dict[int, Any]
    #: Rounds of the job's standalone solo run (its dilation).
    solo_rounds: int
    #: Scheduler that produced the execution serving this result.
    scheduler: str
    #: How many jobs shared the workload execution (1 for a solo retry).
    batch_size: int
    #: Whether the result was served from the registry, skipping execution.
    from_registry: bool = False
    #: Package version that produced the result (provenance).
    version: str = ""
    #: Round, on its shard's executions laid end to end, by which the
    #: job's algorithm finished (``None`` when served from the registry).
    completion_round: Optional[int] = None


@dataclass
class Job:
    """One submitted DAS instance and its current lifecycle state."""

    job_id: str
    network: Network
    algorithm: Algorithm
    master_seed: int
    message_bits: Optional[int]
    #: Content-addressed identity; ``None`` for unaddressable algorithms.
    fingerprint: Optional[str]
    #: Tape identity salted into the job's node random tapes; derived
    #: from the fingerprint so it is stable across submissions (or from
    #: the job id when the job is unaddressable).
    tape_id: str
    state: JobState = JobState.QUEUED
    #: Measured standalone parameters (set by the admission probe).
    params: Optional[WorkloadParams] = None
    #: Why the job was rejected / parked / failed (empty otherwise).
    reason: str = ""
    #: Execution attempts consumed (batch attempt + solo retries).
    attempts: int = 0
    result: Optional[JobResult] = None
    #: Extra provenance the service stamps on (batch id, scheduler seed).
    meta: Dict[str, Any] = field(default_factory=dict)
    #: Installed by the owning :class:`~repro.service.service.JobQueue`
    #: so it can maintain incremental per-state counts without
    #: rescanning every job; fired as ``observer(job, old, new)`` on
    #: each :meth:`transition`.
    _observer: Optional[Callable[["Job", JobState, JobState], None]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def terminal(self) -> bool:
        """Whether the job can no longer change state."""
        return self.state in TERMINAL_STATES

    def compatible_with(self, other: "Job") -> bool:
        """Whether two jobs may share one batched workload execution.

        Batching requires one network (the paper schedules many
        algorithms on *one* graph), one master seed, and one message
        budget — the three workload-level knobs of
        :class:`~repro.core.workload.Workload`.
        """
        return (
            self.network is other.network or self.network == other.network
        ) and (
            self.master_seed == other.master_seed
            and self.message_bits == other.message_bits
        )

    def transition(self, state: JobState, reason: str = "") -> None:
        """Move to ``state``; terminal states are sticky."""
        if self.terminal:
            raise ValueError(
                f"job {self.job_id} is {self.state.value} and cannot become "
                f"{state.value}"
            )
        old = self.state
        self.state = state
        if reason:
            self.reason = reason
        if self._observer is not None and old is not state:
            self._observer(self, old, state)

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly status record (what the CLI prints/persists)."""
        record: Dict[str, Any] = {
            "job_id": self.job_id,
            "state": self.state.value,
            # A journal-recovered terminal job carries no live algorithm
            # object; its journaled name rides in ``meta``.
            "algorithm": (
                self.algorithm.name
                if self.algorithm is not None
                else self.meta.get("algorithm", "?")
            ),
            "fingerprint": self.fingerprint,
            "attempts": self.attempts,
        }
        if self.params is not None:
            record["congestion"] = self.params.congestion
            record["dilation"] = self.params.dilation
        if self.reason:
            record["reason"] = self.reason
        if self.result is not None:
            record["from_registry"] = self.result.from_registry
            record["batch_size"] = self.result.batch_size
            record["scheduler"] = self.result.scheduler
            record["version"] = self.result.version
            if self.result.completion_round is not None:
                record["completion_round"] = self.result.completion_round
        return record
