"""Pattern-level schedule evaluation (no program execution).

Delay-based schedules are fully determined by the communication patterns
and the delays: algorithm ``i``'s round-``r`` messages traverse phase
``δ_i + r - 1``. Given the patterns of the solo runs, the per-(directed
edge, phase) loads — and hence the feasible phase size and total length —
can be computed analytically, thousands of times faster than executing
the programs. The large-scale scaling benchmarks use this path; the
execution engines are used whenever output correctness is part of the
claim (the two are consistent because they use the same timing rule —
asserted by tests).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from ..congest.pattern import CommunicationPattern

__all__ = ["PatternLoadReport", "evaluate_delay_schedule"]


@dataclass
class PatternLoadReport:
    """Loads and length of one delay assignment, computed from patterns."""

    num_phases: int
    max_phase_load: int
    load_histogram: Counter
    total_messages: int


def evaluate_delay_schedule(
    patterns: Sequence[CommunicationPattern],
    delays: Sequence[int],
) -> PatternLoadReport:
    """Compute per-(directed edge, phase) loads for given phase delays."""
    if len(patterns) != len(delays):
        raise ValueError("need one delay per pattern")
    loads: Counter = Counter()
    num_phases = 0
    total = 0
    for pattern, delay in zip(patterns, delays):
        if delay < 0:
            raise ValueError("delays must be non-negative")
        for r, u, v in pattern.events:
            loads[(u, v, delay + r - 1)] += 1
            total += 1
        num_phases = max(num_phases, delay + pattern.length)
    max_load = max(loads.values()) if loads else 0
    return PatternLoadReport(
        num_phases=num_phases,
        max_phase_load=max_load,
        load_histogram=Counter(loads.values()),
        total_messages=total,
    )
