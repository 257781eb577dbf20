"""Scheduler interface and output verification.

The DAS problem (paper Section 2): "produce an execution so that for each
algorithm, each node outputs the same value as if that algorithm was run
alone." :func:`verify_outputs` checks exactly that, against the workload's
solo reference runs; every scheduler in this package runs it before
reporting success.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from ..errors import (
    BandwidthViolation,
    CoverageError,
    ScheduleError,
    SimulationLimitExceeded,
    VerificationError,
)
from ..faults import NULL_INJECTOR, FaultInjector, FaultPlan
from ..metrics.schedule import ENGINE_COUNTERS, ScheduleReport
from ..telemetry import NULL_RECORDER, Recorder
from .workload import OutputMap, Workload

__all__ = [
    "Mismatch",
    "ScheduleFailure",
    "ScheduleResult",
    "Scheduler",
    "verify_outputs",
]


@dataclass(frozen=True)
class Mismatch:
    """One (algorithm, node) whose scheduled output differs from solo."""

    aid: int
    node: int
    expected: Any
    actual: Any


@dataclass(frozen=True)
class ScheduleFailure:
    """Why a :meth:`Scheduler.run_resilient` execution ended early.

    ``stage`` is where the run died (``"schedule"`` or ``"verify"``),
    ``error`` the exception class name, and ``context`` the structured
    fields carried by the exception (node, round, edge, algorithm — see
    :class:`~repro.errors.ReproError`).
    """

    stage: str
    error: str
    message: str
    context: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        where = f" [{self.context}]" if self.context else ""
        return f"{self.stage}: {self.error}: {self.message}{where}"


@dataclass
class ScheduleResult:
    """A scheduler's product: outputs plus the measured report.

    A resilient run that died mid-execution carries a
    :class:`ScheduleFailure` in ``failure`` (with empty outputs); a run
    that completed but diverged carries per-pair ``mismatches``. In both
    cases :attr:`correct` is ``False`` and the per-algorithm split is
    available via :attr:`verified_algorithms` / :attr:`diverged_algorithms`.
    """

    outputs: OutputMap
    report: ScheduleReport
    mismatches: List[Mismatch] = field(default_factory=list)
    failure: Optional[ScheduleFailure] = None

    @property
    def correct(self) -> bool:
        """Whether the run completed and every output matched solo."""
        return not self.mismatches and self.failure is None

    @property
    def diverged_algorithms(self) -> List[int]:
        """AIDs whose outputs differ from solo (all, if the run died)."""
        if self.failure is not None and not self.outputs:
            return list(range(self.report.params.num_algorithms))
        return sorted({m.aid for m in self.mismatches})

    @property
    def verified_algorithms(self) -> List[int]:
        """AIDs whose every node output matched the solo reference."""
        diverged = set(self.diverged_algorithms)
        return [
            aid
            for aid in range(self.report.params.num_algorithms)
            if aid not in diverged
        ]

    def raise_on_mismatch(self) -> None:
        """Raise :class:`~repro.errors.VerificationError` if incorrect."""
        if self.failure is not None:
            raise VerificationError(
                f"schedule failed before verification: {self.failure}"
            )
        if self.mismatches:
            first = self.mismatches[0]
            raise VerificationError(
                f"{len(self.mismatches)} outputs differ from solo runs; "
                f"first: algorithm {first.aid} node {first.node}: "
                f"expected {first.expected!r}, got {first.actual!r}",
                node=first.node,
                algorithm=first.aid,
                mismatches=len(self.mismatches),
            )


def _stamp_telemetry(report: ScheduleReport, recorder: Recorder) -> None:
    """Put a recorded run's telemetry snapshot and profile on its report.

    The engines emit ``sim.late_deliveries`` / ``sim.skipped_rounds`` /
    ``phase.skipped_phases`` / ``cluster.skipped_rounds`` only when the
    corresponding code path fired, and ``<engine>.host_steps`` /
    ``.idle_skips`` only for the engine that ran; recorded reports
    surface all of them uniformly (zero-filled) so downstream aggregation
    (the service metrics, dashboards) never special-cases which engine
    ran. The profiler is imported here, by recorded runs only.
    """
    from ..telemetry.profile import report_profile

    report.telemetry = recorder.snapshot()
    counters = report.telemetry.setdefault("counters", {})
    for name in ENGINE_COUNTERS:
        counters.setdefault(name, 0.0)
    report.profile = report_profile(recorder)


def verify_outputs(workload: Workload, outputs: OutputMap) -> List[Mismatch]:
    """Compare scheduled outputs against the solo reference runs.

    Every (aid, node) pair of the workload must be present in ``outputs``
    and equal the solo value; missing entries count as mismatches with
    ``actual = <missing>``.
    """
    reference = workload.reference_outputs()
    mismatches: List[Mismatch] = []
    missing = object()
    for key, expected in reference.items():
        actual = outputs.get(key, missing)
        if actual is missing:
            mismatches.append(Mismatch(key[0], key[1], expected, "<missing>"))
        elif actual != expected:
            mismatches.append(Mismatch(key[0], key[1], expected, actual))
    return mismatches


class Scheduler(ABC):
    """Base class: turns a workload into one verified scheduled execution."""

    #: Human-readable scheduler name for reports.
    name: str = "scheduler"

    #: Telemetry sink. The class-level default is the zero-overhead
    #: :data:`~repro.telemetry.NULL_RECORDER`; attach an
    #: :class:`~repro.telemetry.InMemoryRecorder` via
    #: :meth:`with_recorder` to collect phase spans and round metrics.
    #: Recorders never touch randomness, so attaching one cannot change
    #: outputs or reports (beyond filling ``report.telemetry``).
    recorder: Recorder = NULL_RECORDER

    #: Fault injector threaded into the execution engines. The
    #: class-level default is the zero-overhead
    #: :data:`~repro.faults.NULL_INJECTOR`, under which every engine path
    #: is bit-identical to a chaos-free build; attach a seeded plan via
    #: :meth:`with_faults` to perturb the schedule deterministically.
    injector: FaultInjector = NULL_INJECTOR

    #: Optional budget on the engine's native ticks (phases / big-rounds
    #: / rounds): past it the run stops, partial, with
    #: ``report.notes["truncated"]`` set. ``None`` keeps each engine's own
    #: generous bound, which raises when passed. Set it via
    #: :meth:`with_round_budget` when a faulted run may fail to converge.
    round_budget: Optional[int] = None

    def with_recorder(self, recorder: Recorder) -> "Scheduler":
        """Attach a telemetry recorder; returns ``self`` for chaining."""
        self.recorder = recorder
        return self

    def with_faults(
        self, faults: Union[FaultPlan, FaultInjector, None]
    ) -> "Scheduler":
        """Attach a fault plan or injector; returns ``self`` for chaining.

        Accepts a :class:`~repro.faults.FaultPlan` (compiled to a seeded
        injector), a prebuilt injector, or ``None`` to detach.
        """
        if faults is None:
            self.injector = NULL_INJECTOR
        elif isinstance(faults, FaultPlan):
            self.injector = faults.injector()
        else:
            self.injector = faults
        return self

    def with_round_budget(self, budget: Optional[int]) -> "Scheduler":
        """Cap the engine's native ticks; returns ``self`` for chaining."""
        if budget is not None and budget < 1:
            raise ValueError("round_budget must be positive (or None)")
        self.round_budget = budget
        return self

    @abstractmethod
    def run(self, workload: Workload, seed: int = 0) -> ScheduleResult:
        """Schedule the workload; return outputs and a report.

        ``seed`` seeds only the *scheduler's* randomness (delays, cluster
        radii); the algorithms' own random tapes are fixed by the
        workload's master seed.
        """

    def run_resilient(self, workload: Workload, seed: int = 0) -> ScheduleResult:
        """Like :meth:`run`, but engine errors become structured results.

        A fault-injected execution can die mid-run — retry budgets
        exhaust, round budgets trip, coverage collapses under crashed
        nodes. This wrapper converts those into a
        :class:`ScheduleResult` whose ``failure`` field carries the
        structured context (node, round, edge, algorithm) instead of
        propagating the exception; programming errors still raise.
        """
        try:
            return self.run(workload, seed=seed)
        except (
            ScheduleError,
            SimulationLimitExceeded,
            BandwidthViolation,
            CoverageError,
        ) as exc:
            failure = ScheduleFailure(
                stage="schedule",
                error=type(exc).__name__,
                message=str(exc),
                context=dict(getattr(exc, "context", {}) or {}),
            )
            report = ScheduleReport(
                scheduler=self.name,
                params=workload.params(),
                length_rounds=0,
                correct=False,
                notes={"failure": str(failure)},
            )
            if self.recorder.enabled:
                self.recorder.counter("scheduler.failures")
                _stamp_telemetry(report, self.recorder)
            self._stamp_faults(report)
            return ScheduleResult(
                outputs={}, report=report, mismatches=[], failure=failure
            )

    def _stamp_faults(self, report: ScheduleReport) -> None:
        """Record the injector's plan and counters on the report."""
        if not self.injector.enabled:
            return
        plan = getattr(self.injector, "plan", None)
        if plan is not None:
            report.notes.setdefault("fault_plan", plan.describe())
        if report.telemetry is None:
            report.telemetry = {}
        report.telemetry["faults"] = self.injector.snapshot()

    def _finish(
        self, workload: Workload, outputs: OutputMap, report: ScheduleReport
    ) -> ScheduleResult:
        """Verify outputs, stamp the report, and wrap up."""
        recorder = self.recorder
        with recorder.span("verify-outputs", category="scheduler"):
            mismatches = verify_outputs(workload, outputs)
        report.correct = not mismatches
        if recorder.enabled:
            recorder.counter("scheduler.mismatches", len(mismatches))
            recorder.gauge("scheduler.length_rounds", report.length_rounds)
            recorder.gauge(
                "scheduler.precomputation_rounds", report.precomputation_rounds
            )
            _stamp_telemetry(report, recorder)
        self._stamp_faults(report)
        return ScheduleResult(outputs=outputs, report=report, mismatches=mismatches)
