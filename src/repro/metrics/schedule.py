"""Schedule reports: the standardized result record of every scheduler.

A scheduler's quality is judged on

* **length** — physical rounds of the produced schedule,
* **pre-computation** — physical rounds spent before the schedule starts
  (clustering, randomness sharing; Theorem 1.3 pays ``O(dilation·log² n)``),
* **correctness** — whether every (algorithm, node) output matched the
  solo run, and
* **load profile** — messages per (directed edge, phase), whose maximum
  drives the feasible phase size (the ``O(log n)`` claims of Lemma 4.4).

For phase-based schedulers a :class:`PhaseTimeline` turns phases into
physical rounds: if some phase overloads an edge beyond the phase size,
the schedule is only feasible once phases are stretched to the observed
maximum load, and we account for that honestly rather than declaring a
w.h.p. failure. Reported lengths, completion rounds and the materialised
wire slots of :mod:`repro.core.physical` all read the same timeline.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .._version import __version__
from .congestion import WorkloadParams

__all__ = [
    "ENGINE_COUNTERS",
    "PhaseTimeline",
    "ScheduleReport",
    "phase_schedule_length",
]

#: The execution-engine counters every recorded report surfaces
#: uniformly in its telemetry snapshot (zero-filled when the engine
#: never hit the code path), so aggregators — notably the
#: :mod:`repro.service` metrics — can sum them across heterogeneous
#: schedulers without reaching into engine internals.
ENGINE_COUNTERS = (
    "sim.late_deliveries",
    "sim.skipped_rounds",
    "phase.skipped_phases",
    "cluster.skipped_rounds",
    # Stepping (see repro.congest.program.HostGroup): of the live-host ×
    # round slots an engine walked, how many ran ``on_round`` and how
    # many were skipped (an ``idle_until`` promise, or crash-stop).
    "sim.host_steps",
    "sim.idle_skips",
    "phase.host_steps",
    "phase.idle_skips",
    "cluster.host_steps",
    "cluster.idle_skips",
    # Materialisation (cluster copies only): how many program hosts the
    # step groups constructed.
    "cluster.hosts_built",
    # Stepper (see repro.congest.wave): how many algorithm copies each
    # engine ran on a WaveGroup rather than on ProgramHosts.
    "sim.wave_groups",
    "phase.wave_groups",
    "cluster.wave_groups",
)


@dataclass(frozen=True)
class PhaseTimeline:
    """How the phases of a phase schedule map onto physical rounds.

    Phase ``p`` (0-based) occupies rounds ``p·width + 1 … (p+1)·width``.
    Every phase has the same ``width`` rounds.
    """

    num_phases: int
    width: int

    @classmethod
    def stretched(
        cls, num_phases: int, phase_size: int, max_load: int
    ) -> "PhaseTimeline":
        """Phases of ``phase_size`` rounds, stretched to ``max_load`` when
        some (directed edge, phase) carries more messages than that."""
        if num_phases < 0 or phase_size < 1:
            raise ValueError("invalid phase accounting")
        return cls(num_phases, max(phase_size, max_load))

    @property
    def length(self) -> int:
        """Physical rounds of the whole schedule."""
        return self.num_phases * self.width

    def completion(self, delay: int, solo_rounds: int) -> int:
        """Physical round by which an algorithm finished.

        Algorithm ``i`` sends its last round in phase ``δ_i + D_i - 1``
        (0-based), so it is done after ``δ_i + D_i`` phases.
        """
        return (delay + solo_rounds) * self.width

    def round_of(self, phase: int, offset: int) -> int:
        """The 1-based physical round of the ``offset``-th (0-based)
        message on one directed edge in ``phase``."""
        return phase * self.width + offset + 1


def phase_schedule_length(
    num_phases: int, phase_size: int, max_phase_load: int
) -> int:
    """Physical length of a phase-based schedule."""
    return PhaseTimeline.stretched(num_phases, phase_size, max_phase_load).length


@dataclass
class ScheduleReport:
    """Everything measurable about one scheduled execution."""

    scheduler: str
    params: WorkloadParams
    length_rounds: int
    precomputation_rounds: int = 0
    num_phases: Optional[int] = None
    phase_size: Optional[int] = None
    max_phase_load: Optional[int] = None
    correct: Optional[bool] = None
    messages_sent: Optional[int] = None
    messages_deduplicated: Optional[int] = None
    load_histogram: Optional[Counter] = None
    #: Per algorithm (by aid), the physical round by which it finished
    #: (:meth:`PhaseTimeline.completion` for the phase-engine schedulers,
    #: prefix sums of the solo lengths for the sequential one); ``None``
    #: where the scheduler does not define it or the run was truncated.
    completion_rounds: Optional[List[int]] = None
    notes: Dict[str, Any] = field(default_factory=dict)
    #: Metrics snapshot from the run's recorder (``None`` when the run
    #: used the default :data:`~repro.telemetry.NULL_RECORDER`).
    telemetry: Optional[Dict[str, Any]] = None
    #: Wall-time attribution summary from the run's recorder spans
    #: (per-category totals, top hot spans with self-vs-child time; see
    #: :func:`repro.telemetry.profile.report_profile`). ``None`` when
    #: the run was unrecorded.
    profile: Optional[Dict[str, Any]] = None
    #: Package version that produced this report (provenance stamp,
    #: also persisted into :mod:`repro.service` registry artifacts).
    version: str = field(default=__version__)

    @property
    def total_rounds(self) -> int:
        """Schedule length plus pre-computation."""
        return self.length_rounds + self.precomputation_rounds

    def engine_counters(self) -> Dict[str, float]:
        """The :data:`ENGINE_COUNTERS` values, zero-filled.

        Always returns every well-known counter, whether or not the run
        recorded telemetry (an unrecorded run reports zeros), so
        aggregation over a mixed stream of reports never needs
        key-existence checks.
        """
        counters = (self.telemetry or {}).get("counters", {})
        return {name: float(counters.get(name, 0.0)) for name in ENGINE_COUNTERS}

    @property
    def competitive_ratio(self) -> float:
        """Length divided by the trivial lower bound ``max(C, D)``."""
        bound = self.params.trivial_lower_bound
        return self.length_rounds / bound if bound else float("inf")

    @property
    def lmr_ratio(self) -> float:
        """Length divided by ``congestion + dilation``."""
        cost = self.params.cost_sum
        return self.length_rounds / cost if cost else float("inf")

    def summary(self) -> str:
        """One-line human-readable summary."""
        parts = [
            f"{self.scheduler}: {self.length_rounds} rounds",
            f"(+{self.precomputation_rounds} pre)",
            f"C={self.params.congestion} D={self.params.dilation}",
            f"ratio={self.competitive_ratio:.2f}",
        ]
        if self.correct is not None:
            parts.append("OK" if self.correct else "WRONG")
        return " ".join(parts)
