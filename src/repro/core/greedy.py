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
from ..metrics.schedule import ScheduleReport
from .base import ScheduleResult, Scheduler
from .physical import PhysicalSchedule
from .workload import Workload

__all__ = ["greedy_schedule", "GreedyPatternScheduler"]


class _AlgoNodeState:
    """Readiness tracking for one (algorithm, node): prefix-dependency.

    An outgoing event of round ``r`` is released once all incoming events
    of rounds ``< r`` are delivered. Incoming rounds are tracked in a
    min-heap of undelivered rounds; outgoing events are released in round
    order as the undelivered minimum advances.
    """

    __slots__ = ("undelivered", "outgoing", "next_out")

    def __init__(self) -> None:
        self.undelivered: List[int] = []  # heap of undelivered incoming rounds
        self.outgoing: List[PatternEvent] = []  # sorted by round
        self.next_out = 0

    def frontier(self) -> float:
        """Largest round bound such that all smaller incoming are done."""
        return self.undelivered[0] if self.undelivered else float("inf")

    def releasable(self) -> List[PatternEvent]:
        """Pop outgoing events whose prefix of incoming is complete."""
        bound = self.frontier()
        released = []
        while self.next_out < len(self.outgoing):
            event = self.outgoing[self.next_out]
            if event[0] <= bound:
                released.append(event)
                self.next_out += 1
            else:
                break
        return released


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
        for event in sorted(pattern.events):
            r, u, v = event
            state(aid, u).outgoing.append(event)
            heapq.heappush(state(aid, v).undelivered, r)
            total_events += 1
    for st in states.values():
        st.outgoing.sort()

    # Ready queues per directed edge: heap of (priority, aid, event).
    ready: Dict[Tuple[int, int], List] = {}

    def enqueue(aid: int, event: PatternEvent) -> None:
        r, u, v = event
        ready.setdefault((u, v), [])
        heapq.heappush(ready[(u, v)], ((r, aid), aid, event))

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
        for edge in [e for e, q in ready.items() if q]:
            _, aid, event = heapq.heappop(ready[edge])
            assignment[(aid, event)] = slot
            delivered += 1
            # Delivery unblocks the receiver's later sends of the same
            # algorithm — but only from the next slot onward.
            r, _, v = event
            receiver_state = states[(aid, v)]
            receiver_state.undelivered.remove(r)
            heapq.heapify(receiver_state.undelivered)
            for released in receiver_state.releasable():
                newly_released.append((aid, released))
        for aid, event in newly_released:
            enqueue(aid, event)

    return PhysicalSchedule(
        assignment=assignment, makespan=slot, num_phases=slot,
        stretched_phase_size=1,
    )


class GreedyPatternScheduler(Scheduler):
    """Scheduler wrapper around :func:`greedy_schedule`.

    The schedule is a valid simulation of every algorithm by
    construction (causal precedence is enforced as readiness), so the
    outputs equal the solo outputs; the wrapper reports the solo outputs
    together with the measured makespan. ``validate=True`` additionally
    checks the retiming with the quadratic
    :func:`~repro.congest.pattern.validate_simulation_mapping` and the
    one-message-per-edge-per-round capacity — meant for small instances.
    """

    name = "greedy-offline"

    def __init__(self, validate: bool = False):
        self.validate = validate

    def run(self, workload: Workload, seed: int = 0) -> ScheduleResult:
        patterns = workload.patterns()
        schedule = greedy_schedule(patterns)
        if self.validate:
            from ..congest.pattern import validate_simulation_mapping

            for aid, pattern in enumerate(patterns):
                validate_simulation_mapping(pattern, schedule.mapping_for(aid))
            schedule.validate_capacity()
        report = ScheduleReport(
            scheduler=self.name,
            params=workload.params(),
            length_rounds=schedule.makespan,
            messages_sent=len(schedule.assignment),
            notes={"pattern_level": True, "validated": self.validate},
        )
        return self._finish(workload, workload.reference_outputs(), report)
