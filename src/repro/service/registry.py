"""The run registry: persistent, content-addressed results of past jobs.

The same two-tier :class:`~repro.parallel.cache.ContentStore` as the
:class:`~repro.parallel.cache.SoloRunCache` — a bounded in-memory dict
in front of an optional on-disk tier of one pickle per artifact,
replaced atomically so concurrent services may share a directory, with
corrupt entries counting as misses — but holding *job results* rather
than solo runs: the per-node outputs the service
guarantees (bit-identical to the job's standalone run), plus provenance
(scheduler, batch size, schedule rounds, package version, submission
metadata).

Because artifacts are keyed by :func:`~repro.service.jobs.job_fingerprint`
— a pure function of the job's content — a resubmitted job is served
straight from the registry without re-execution, whichever process (or
machine sharing the directory) executed it first. Registry traffic is
observable through ``service.registry_hit`` / ``service.registry_miss``
/ ``service.registry_store`` counters on an attached recorder, and the
plain-integer :meth:`RunRegistry.stats` are always maintained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .._version import __version__
from ..parallel.cache import ContentStore

__all__ = ["RunArtifact", "RunRegistry"]


@dataclass
class RunArtifact:
    """One persisted job result and its provenance."""

    #: The job fingerprint the artifact is filed under.
    fingerprint: str
    #: Per-node outputs, ``node -> value``.
    outputs: Dict[int, Any]
    #: Rounds of the job's standalone solo run.
    solo_rounds: int
    #: Scheduler that produced the execution.
    scheduler: str
    #: Jobs sharing the workload execution that produced this artifact.
    batch_size: int
    #: Package version that wrote the artifact.
    version: str = field(default=__version__)
    #: Free-form provenance (batch id, schedule seed, rounds, ...).
    meta: Dict[str, Any] = field(default_factory=dict)


class RunRegistry(ContentStore):
    """A :class:`~repro.parallel.cache.ContentStore` of job artifacts.

    Takes the store's parameters; artifacts are filed under
    ``<fingerprint>.pkl``, and corrupt entries count as misses and are
    rewritten on the next store. Lookups and stores emit
    ``service.registry_hit`` / ``service.registry_miss`` /
    ``service.registry_store`` counters on the recorder.
    """

    value_type = RunArtifact
    counters = ("hits", "misses", "stores")

    def get(self, fingerprint: Optional[str]) -> Optional[RunArtifact]:
        """Look an artifact up (memory tier, then disk tier).

        ``None`` fingerprints (unaddressable jobs) always miss.
        """
        artifact = super().get(fingerprint) if fingerprint is not None else None
        if artifact is not None:
            self.hits += 1
            if self.recorder.enabled:
                self.recorder.counter("service.registry_hit")
        else:
            self.misses += 1
            if self.recorder.enabled:
                self.recorder.counter("service.registry_miss")
        return artifact

    def put(self, artifact: RunArtifact) -> None:  # type: ignore[override]
        """Store an artifact in both tiers, under its fingerprint."""
        self.stores += 1
        if self.recorder.enabled:
            self.recorder.counter("service.registry_store")
        super().put(artifact.fingerprint, artifact)

    def fingerprints(self) -> List[str]:
        """Every fingerprint the registry can currently serve."""
        return self.keys()
