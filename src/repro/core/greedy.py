"""Centralized greedy packet-level scheduling (an offline baseline).

Unlike the paper's schedulers — which treat the algorithms as black boxes
with *unknown* communication patterns — this baseline is given every
pattern up front (the omniscient offline setting of the LMR packet-routing
literature) and list-schedules individual messages: each physical round,
each directed edge transmits the highest-priority *ready* message queued
on it. A message ``(r, u, v)`` of algorithm ``i`` becomes ready one round
after all of algorithm ``i``'s messages into ``u`` with round ``< r``
have been delivered — exactly the causal-precedence constraint of the
paper's simulation definition, so the produced retiming is a valid
simulation by construction (checkable with
:func:`repro.congest.pattern.validate_simulation_mapping`).

This measures how much of the schedulers' overhead is information-
theoretic (not knowing patterns) versus algorithmic slack: greedy's
makespan is a *lower* bar no online black-box scheduler can be expected
to beat.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence, Tuple

from ..congest.pattern import CommunicationPattern, PatternEvent
from ..errors import ScheduleError
from ..metrics.schedule import PhaseTimeline, ScheduleReport
from .base import ScheduleResult, Scheduler
from .physical import PhysicalSchedule
from .workload import Workload

__all__ = ["greedy_schedule", "GreedyPatternScheduler"]

_NEVER = float("inf")


class _AlgoNodeState:
    """Readiness tracking for one (algorithm, node): prefix-dependency.

    An outgoing event of round ``r`` is released once all incoming events
    of rounds ``< r`` are delivered. ``pending`` counts the undelivered
    incoming events per round, ``rounds`` lists those rounds ascending
    and ``frontier`` indexes the smallest with any left undelivered; it
    only moves forward, so a delivery costs O(1) amortised. Outgoing
    events are released in round order as the frontier advances.
    """

    __slots__ = ("pending", "rounds", "frontier", "outgoing", "next_out")

    def __init__(self) -> None:
        self.pending: Dict[int, int] = {}  # incoming round -> undelivered
        self.rounds: List[int] = []  # the keys of pending, ascending
        self.frontier = 0
        self.outgoing: List[PatternEvent] = []  # sorted by round
        self.next_out = 0

    def seal(self) -> None:
        """Order the incoming rounds and outgoing events (after loading)."""
        self.rounds = sorted(self.pending)
        self.outgoing.sort()

    def deliver(self, r: int) -> List[PatternEvent]:
        """Count one incoming event of round ``r`` as delivered; return
        the outgoing events that releases (none unless the frontier
        moved)."""
        pending = self.pending
        left = pending[r] - 1
        pending[r] = left
        rounds = self.rounds
        if left or rounds[self.frontier] != r:
            return []
        frontier = self.frontier + 1
        while frontier < len(rounds) and not pending[rounds[frontier]]:
            frontier += 1
        self.frontier = frontier
        return self.releasable()

    def releasable(self) -> List[PatternEvent]:
        """Pop outgoing events whose prefix of incoming is complete."""
        rounds, frontier = self.rounds, self.frontier
        # Largest round bound such that all smaller incoming are done.
        bound = rounds[frontier] if frontier < len(rounds) else _NEVER
        outgoing, start = self.outgoing, self.next_out
        end = start
        while end < len(outgoing) and outgoing[end][0] <= bound:
            end += 1
        self.next_out = end
        return outgoing[start:end]


def greedy_schedule(
    patterns: Sequence[CommunicationPattern],
    max_rounds: int = 1 << 20,
) -> PhysicalSchedule:
    """List-schedule all pattern events under unit edge capacities.

    The result is a retiming with unit phases: every physical round is
    one phase.
    """
    states: Dict[Tuple[int, int], _AlgoNodeState] = {}

    def state(aid: int, node: int) -> _AlgoNodeState:
        key = (aid, node)
        st = states.get(key)
        if st is None:
            st = _AlgoNodeState()
            states[key] = st
        return st

    total_events = 0
    for aid, pattern in enumerate(patterns):
        for event in pattern.events:
            r, u, v = event
            state(aid, u).outgoing.append(event)
            pending = state(aid, v).pending
            pending[r] = pending.get(r, 0) + 1
            total_events += 1
    for st in states.values():
        st.seal()

    # Ready queues per directed edge: heap of (priority, aid, event).
    ready: Dict[Tuple[int, int], List] = {}
    # The edges whose queue is non-empty, as an insertion-ordered set.
    busy: Dict[Tuple[int, int], None] = {}

    def enqueue(aid: int, event: PatternEvent) -> None:
        r, u, v = event
        edge = (u, v)
        queue = ready.get(edge)
        if queue is None:
            queue = ready[edge] = []
        heapq.heappush(queue, ((r, aid), aid, event))
        busy[edge] = None

    for (aid, _), st in list(states.items()):
        for event in st.releasable():
            enqueue(aid, event)

    assignment: Dict[Tuple[int, PatternEvent], int] = {}
    delivered = 0
    slot = 0
    while delivered < total_events:
        slot += 1
        if slot > max_rounds:
            raise ScheduleError("greedy scheduling exceeded max_rounds")
        newly_released: List[Tuple[int, PatternEvent]] = []
        for edge in list(busy):
            queue = ready[edge]
            _, aid, event = heapq.heappop(queue)
            if not queue:
                del busy[edge]
            assignment[(aid, event)] = slot
            delivered += 1
            # Delivery unblocks the receiver's later sends of the same
            # algorithm — but only from the next slot onward.
            r, _, v = event
            for released in states[(aid, v)].deliver(r):
                newly_released.append((aid, released))
        for aid, event in newly_released:
            enqueue(aid, event)

    return PhysicalSchedule(
        assignment=assignment, timeline=PhaseTimeline(slot, 1)
    )


class GreedyPatternScheduler(Scheduler):
    """Scheduler wrapper around :func:`greedy_schedule`.

    The schedule is a valid simulation of every algorithm by
    construction (causal precedence is enforced as readiness), so the
    outputs equal the solo outputs; the wrapper reports the solo outputs
    together with the measured makespan.
    """

    name = "greedy-offline"

    def run(self, workload: Workload, seed: int = 0) -> ScheduleResult:
        schedule = greedy_schedule(workload.patterns())
        report = ScheduleReport(
            scheduler=self.name,
            params=workload.params(),
            length_rounds=schedule.makespan,
            messages_sent=len(schedule.assignment),
            notes={"pattern_level": True},
        )
        return self._finish(workload, workload.reference_outputs(), report)
