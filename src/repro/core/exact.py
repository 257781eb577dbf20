"""Exact optimal schedules for micro instances (exhaustive BFS).

For tiny workloads (≲ 16 pattern events) the scheduling problem —
retime every message so that per-(directed edge, round) capacity is one
and per-algorithm causal precedence holds, minimising the makespan — can
be solved *exactly* by breadth-first search over delivered-event sets.

Why it matters: the package's other numbers are upper bounds (greedy,
delay schedulers) or model-restricted bounds (crossing patterns). Exact
OPT on micro hard instances gives unconditional statements — "for THIS
instance, OPT = 7 > max(C, D) = 5" — the strongest empirical form of
Theorem 3.1's separation, and a ground truth to measure the greedy
packer's optimality gap against.

Search structure: a state is the frozenset of delivered events; one BFS
layer per round. From a state, the *ready* events (causal predecessors
all delivered) are grouped by directed edge; every choice of at most one
event per edge is a legal round. Choosing a non-empty event for an edge
always weakly dominates choosing none for it, so branching reduces to
the product of per-edge choices — tractable at micro scale, guarded by
an explicit state budget.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from ..congest.pattern import CommunicationPattern, PatternEvent
from ..errors import ScheduleError

__all__ = ["ExactSchedule", "exact_makespan"]

#: A tagged event: (algorithm index, pattern event).
TaggedEvent = Tuple[int, PatternEvent]


@dataclass
class ExactSchedule:
    """The result of the exhaustive search."""

    makespan: int
    #: Events delivered per round (1-based), one witness optimal schedule.
    rounds: List[List[TaggedEvent]]
    states_explored: int


def _predecessors(
    patterns: Sequence[CommunicationPattern],
) -> Dict[TaggedEvent, FrozenSet[TaggedEvent]]:
    """Per event, the same-algorithm events that must precede it."""
    deps: Dict[TaggedEvent, FrozenSet[TaggedEvent]] = {}
    for aid, pattern in enumerate(patterns):
        events = sorted(pattern.events)
        for event in events:
            r, u, _ = event
            deps[(aid, event)] = frozenset(
                (aid, other)
                for other in events
                if other[2] == u and other[0] < r
            )
    return deps


def exact_makespan(
    patterns: Sequence[CommunicationPattern],
    max_events: int = 16,
    max_states: int = 500_000,
) -> ExactSchedule:
    """Exhaustive-BFS optimal makespan for a micro workload.

    Raises :class:`~repro.errors.ScheduleError` when the instance exceeds
    ``max_events`` or the search exceeds ``max_states`` states.
    """
    all_events: List[TaggedEvent] = [
        (aid, event)
        for aid, pattern in enumerate(patterns)
        for event in sorted(pattern.events)
    ]
    if len(all_events) > max_events:
        raise ScheduleError(
            f"{len(all_events)} events exceed the exact-search cap "
            f"{max_events}"
        )
    if not all_events:
        return ExactSchedule(makespan=0, rounds=[], states_explored=1)

    deps = _predecessors(patterns)
    everything: FrozenSet[TaggedEvent] = frozenset(all_events)

    start: FrozenSet[TaggedEvent] = frozenset()
    # parent pointers for witness reconstruction
    parent: Dict[FrozenSet[TaggedEvent], Tuple[FrozenSet[TaggedEvent], List[TaggedEvent]]] = {}
    frontier: Set[FrozenSet[TaggedEvent]] = {start}
    seen: Set[FrozenSet[TaggedEvent]] = {start}
    states = 1
    round_index = 0

    while frontier:
        round_index += 1
        next_frontier: Set[FrozenSet[TaggedEvent]] = set()
        for state in frontier:
            ready = [
                tagged
                for tagged in all_events
                if tagged not in state and deps[tagged] <= state
            ]
            by_edge: Dict[Tuple[int, int], List[TaggedEvent]] = {}
            for tagged in ready:
                _, (r, u, v) = tagged
                by_edge.setdefault((u, v), []).append(tagged)
            if not by_edge:
                continue
            # one event per busy edge; sending something always weakly
            # dominates sending nothing on that edge
            for choice in itertools.product(*by_edge.values()):
                new_state = state | frozenset(choice)
                if new_state in seen:
                    continue
                seen.add(new_state)
                states += 1
                if states > max_states:
                    raise ScheduleError(
                        f"exact search exceeded {max_states} states"
                    )
                parent[new_state] = (state, list(choice))
                if new_state == everything:
                    rounds: List[List[TaggedEvent]] = []
                    cursor = new_state
                    while cursor != start:
                        prev, sent = parent[cursor]
                        rounds.append(sent)
                        cursor = prev
                    rounds.reverse()
                    return ExactSchedule(
                        makespan=round_index,
                        rounds=rounds,
                        states_explored=states,
                    )
                next_frontier.add(new_state)
        frontier = next_frontier

    raise ScheduleError("search space exhausted without completing")
