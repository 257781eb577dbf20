"""Schedule artifacts: the schedule as a first-class, replayable object.

The paper's schedulers "produce a schedule"; in this package a schedule
is fully determined by a small description — the scheduling policy, the
per-algorithm (or per-cluster) delays, and the phase size. A
:class:`ScheduleArtifact` captures that description, serializes to/from
JSON, and can be *replayed* against the same workload: the replay
re-executes deterministically and must reproduce the recorded length,
loads, and (verified) outputs. Artifacts are how experiments pin down
exactly which schedule produced which numbers, and how a schedule
computed once can be shipped and re-validated elsewhere.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import List, Optional

from ..errors import ScheduleError
from ..metrics.schedule import PhaseTimeline
from .base import ScheduleResult, verify_outputs
from .delays import phase_report
from .phase_engine import run_delayed_phases
from .workload import Workload

__all__ = ["ScheduleArtifact", "capture_delay_schedule"]

FORMAT_VERSION = 1


@dataclass
class ScheduleArtifact:
    """A replayable delay-schedule description.

    Covers the delay-based schedulers (Theorem 1.1, sparse phases,
    round-robin, doubling's final attempt). Cluster schedules are
    determined by (seed, clustering parameters) and are reproducible by
    re-running :class:`~repro.core.private.PrivateScheduler` with the
    same seed; they are not captured edge-by-edge.
    """

    scheduler: str
    delays: List[int]
    phase_size: int
    num_algorithms: int
    network_nodes: int
    network_edges: int
    #: Recorded at capture time; replay must reproduce these.
    expected_length: Optional[int] = None
    expected_max_load: Optional[int] = None
    #: Exact topology (``Network.to_json``); lets replay verify the
    #: workload runs on the very network the schedule was computed for.
    network_json: Optional[str] = None
    version: int = FORMAT_VERSION

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        """Serialize to a JSON string."""
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScheduleArtifact":
        """Parse an artifact; a non-object document, an unknown format
        version and an unknown or missing field raise :class:`ScheduleError`
        naming what is wrong."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ScheduleError(
                f"artifact must be a JSON object, not {type(data).__name__}"
            )
        if data.get("version") != FORMAT_VERSION:
            raise ScheduleError(
                f"unsupported artifact version {data.get('version')!r}"
            )
        known = {field.name: field for field in fields(cls)}
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ScheduleError(
                f"artifact has unknown fields {unknown} "
                f"(expected a subset of {sorted(known)})"
            )
        missing = sorted(
            name
            for name, field in known.items()
            if name not in data and field.default is MISSING
        )
        if missing:
            raise ScheduleError(f"artifact is missing fields {missing}")
        return cls(**data)

    def save(self, path) -> None:
        """Write to a file."""
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path) -> "ScheduleArtifact":
        """Read from a file."""
        return cls.from_json(Path(path).read_text())

    # -- replay ---------------------------------------------------------

    def matches(self, workload: Workload) -> bool:
        """Whether this artifact was captured for a compatible workload.

        When the exact topology was embedded at capture time, it must
        match edge-for-edge; otherwise only the coarse shape (k, n, m)
        is compared.
        """
        if (
            self.num_algorithms != workload.num_algorithms
            or self.network_nodes != workload.network.num_nodes
            or self.network_edges != workload.network.num_edges
        ):
            return False
        if self.network_json is not None:
            from ..congest.network import Network

            return Network.from_json(self.network_json) == workload.network
        return True

    def replay(self, workload: Workload, strict: bool = True) -> ScheduleResult:
        """Re-execute the schedule on ``workload`` and verify everything.

        With ``strict`` the replay raises if the measured length or max
        load deviates from the recorded values (a mismatch means the
        workload is not the one the artifact was captured for).
        Replays are bit-identical across the workload's transport
        backends, so an artifact recorded under one backend verifies
        under any other.
        """
        if not self.matches(workload):
            raise ScheduleError(
                "artifact does not match the workload "
                f"(k={self.num_algorithms} vs {workload.num_algorithms}, "
                f"n={self.network_nodes} vs {workload.network.num_nodes})"
            )
        execution = run_delayed_phases(workload, self.delays)
        report = phase_report(
            f"replay[{self.scheduler}]", workload, execution, self.delays,
            self.phase_size, notes={"artifact": True},
        )
        if strict and self.expected_length is not None:
            if (
                report.length_rounds != self.expected_length
                or report.max_phase_load != self.expected_max_load
            ):
                raise ScheduleError(
                    "replay deviated from the recorded schedule: "
                    f"length {report.length_rounds} vs {self.expected_length}, "
                    f"load {report.max_phase_load} vs {self.expected_max_load}"
                )
        mismatches = verify_outputs(workload, execution.outputs)
        report.correct = not mismatches
        return ScheduleResult(
            outputs=execution.outputs, report=report, mismatches=mismatches
        )


def capture_delay_schedule(
    workload: Workload, result: ScheduleResult
) -> ScheduleArtifact:
    """Capture a delay-based scheduler's result as an artifact.

    The result's report must carry ``notes['delays']`` and a phase size —
    true for all delay-based schedulers in this package.
    """
    report = result.report
    delays = report.notes.get("delays")
    if delays is None or report.phase_size is None:
        raise ScheduleError(
            f"{report.scheduler} results are not delay-schedule artifacts"
        )
    return ScheduleArtifact(
        scheduler=report.scheduler,
        delays=list(delays),
        phase_size=report.phase_size,
        num_algorithms=workload.num_algorithms,
        network_nodes=workload.network.num_nodes,
        network_edges=workload.network.num_edges,
        # What replay recomputes: a doubling schedule's length also
        # charges its rejected guesses, which replay does not run.
        expected_length=PhaseTimeline.stretched(
            report.num_phases, report.phase_size, report.max_phase_load
        ).length,
        expected_max_load=report.max_phase_load,
        network_json=workload.network.to_json(),
    )
