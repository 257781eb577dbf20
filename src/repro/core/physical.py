"""Materialize phase schedules into explicit per-round assignments.

The delay-based schedulers report their length through a
:class:`~repro.metrics.schedule.PhaseTimeline`. This module makes that
accounting *constructive*: given the communication patterns and the
per-algorithm phase delays, it places every message on the same
timeline's physical rounds such that

* each directed edge carries at most one message per round (the raw
  CONGEST capacity), and
* causal precedence is preserved (each algorithm's phase-``p`` messages
  all land before its phase-``p+1`` messages — delay-based lockstep puts
  causally ordered messages in distinct phases, so any intra-phase order
  is valid).

The materialized schedule's makespan is the timeline's length, the
reported length, and it is a genuine simulation mapping — checkable with
:func:`repro.congest.pattern.validate_simulation_mapping` on small
instances. This closes the loop between the engines' load accounting and
an actual wire-level schedule.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from ..congest.pattern import CommunicationPattern, PatternEvent
from ..errors import ScheduleError
from ..metrics.schedule import PhaseTimeline
from .pattern_schedule import evaluate_delay_schedule

__all__ = ["PhysicalSchedule", "materialize_phase_schedule"]


@dataclass
class PhysicalSchedule:
    """An explicit per-round assignment of every message."""

    #: ``(aid, event) -> physical round`` (1-based).
    assignment: Dict[Tuple[int, PatternEvent], int]
    #: The phases the assignment's rounds are grouped into.
    timeline: PhaseTimeline

    @property
    def makespan(self) -> int:
        """Physical rounds of the whole schedule."""
        return self.timeline.length

    def mapping_for(self, aid: int):
        """The per-algorithm simulation mapping (for validation)."""

        def mapping(event: PatternEvent) -> PatternEvent:
            return (self.assignment[(aid, event)], event[1], event[2])

        return mapping

    def validate_capacity(self) -> None:
        """Assert the raw one-message-per-edge-per-round constraint."""
        seen = set()
        for (aid, (r, u, v)), slot in self.assignment.items():
            key = (u, v, slot)
            if key in seen:
                raise ScheduleError(
                    f"capacity violated: two messages on {u}->{v} round {slot}"
                )
            seen.add(key)


def materialize_phase_schedule(
    patterns: Sequence[CommunicationPattern],
    delays: Sequence[int],
    phase_size: int,
) -> PhysicalSchedule:
    """Assign every pattern event an explicit physical round.

    Algorithm ``i``'s round-``r`` messages belong to phase
    ``delays[i] + r - 1``. Phases are stretched uniformly to the maximum
    observed per-(edge, phase) load when it exceeds ``phase_size``, and
    messages sharing an (edge, phase) are laid out on consecutive rounds
    within the phase.
    """
    loads = evaluate_delay_schedule(patterns, delays)
    timeline = PhaseTimeline.stretched(
        loads.num_phases, phase_size, loads.max_phase_load
    )
    assignment: Dict[Tuple[int, PatternEvent], int] = {}
    placed: Counter = Counter()
    for aid, (pattern, delay) in enumerate(zip(patterns, delays)):
        for event in sorted(pattern.events):
            r, u, v = event
            phase = delay + r - 1
            offset = placed[(u, v, phase)]
            placed[(u, v, phase)] = offset + 1
            assignment[(aid, event)] = timeline.round_of(phase, offset)
    return PhysicalSchedule(assignment=assignment, timeline=timeline)
