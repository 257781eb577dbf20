"""``greedy_schedule`` against a copy of its earlier implementation.

The earlier list scheduler tracked each (algorithm, node)'s undelivered
incoming rounds in a heap it rebuilt after every delivery
(``list.remove`` + ``heapify``) and scanned every edge's ready queue in
every slot. The current one counts undelivered events per incoming
round behind a forward-only frontier and walks only the edges with a
non-empty queue. Both must assign every event the same slot.
"""

from __future__ import annotations

import heapq
import random
from typing import Dict, List, Tuple

from repro.algorithms.bfs import BFS
from repro.algorithms.broadcast import HopBroadcast
from repro.congest import topology
from repro.core import Workload, greedy_schedule
from repro.fuzz import ScenarioGenerator


class _ReferenceState:
    __slots__ = ("undelivered", "outgoing", "next_out")

    def __init__(self) -> None:
        self.undelivered: List[int] = []
        self.outgoing: List = []
        self.next_out = 0

    def releasable(self) -> List:
        bound = self.undelivered[0] if self.undelivered else float("inf")
        released = []
        while self.next_out < len(self.outgoing):
            event = self.outgoing[self.next_out]
            if event[0] <= bound:
                released.append(event)
                self.next_out += 1
            else:
                break
        return released


def reference_greedy(patterns) -> Tuple[Dict, int]:
    """The earlier ``greedy_schedule``: ``(assignment, makespan)``."""
    states: Dict[Tuple[int, int], _ReferenceState] = {}

    def state(aid, node):
        return states.setdefault((aid, node), _ReferenceState())

    total_events = 0
    for aid, pattern in enumerate(patterns):
        for event in sorted(pattern.events):
            r, u, v = event
            state(aid, u).outgoing.append(event)
            heapq.heappush(state(aid, v).undelivered, r)
            total_events += 1
    for st in states.values():
        st.outgoing.sort()

    ready: Dict[Tuple[int, int], List] = {}

    def enqueue(aid, event):
        r, u, v = event
        ready.setdefault((u, v), [])
        heapq.heappush(ready[(u, v)], ((r, aid), aid, event))

    for (aid, _), st in list(states.items()):
        for event in st.releasable():
            enqueue(aid, event)

    assignment: Dict = {}
    delivered = 0
    slot = 0
    while delivered < total_events:
        slot += 1
        newly_released = []
        for edge in [e for e, q in ready.items() if q]:
            _, aid, event = heapq.heappop(ready[edge])
            assignment[(aid, event)] = slot
            delivered += 1
            r, _, v = event
            receiver_state = states[(aid, v)]
            receiver_state.undelivered.remove(r)
            heapq.heapify(receiver_state.undelivered)
            for released in receiver_state.releasable():
                newly_released.append((aid, released))
        for aid, event in newly_released:
            enqueue(aid, event)
    return assignment, slot


def _assert_same_schedule(patterns) -> int:
    schedule = greedy_schedule(patterns)
    assignment, makespan = reference_greedy(patterns)
    assert schedule.assignment == assignment
    assert schedule.makespan == makespan
    return makespan


def _fault_free_scenarios(count):
    generator = ScenarioGenerator(0)
    index = 0
    while count:
        scenario = generator.generate(index)
        index += 1
        if scenario.faults is None:
            count -= 1
            yield scenario


def test_same_assignment_on_the_first_168_fault_free_scenarios():
    for scenario in _fault_free_scenarios(168):
        built = scenario.build()
        workload = Workload(
            built.network, list(built.algorithms),
            master_seed=scenario.master_seed, solo_cache=None,
        )
        _assert_same_schedule(workload.patterns())


def test_same_assignment_on_phase_batch():
    """The perf ledger's ``phase_batch`` inputs at seed 7: a 32×32
    torus, 16 alternating BFS / HopBroadcast of 16 hops."""
    rows, k, hops, seed = 32, 16, 16, 7
    pattern = random.Random("phase_batch:pattern")
    rng = random.Random(f"phase_batch:{seed}")
    down, right = rng.randrange(rows), rng.randrange(rows)
    algorithms = []
    for index in range(k):
        row, col = divmod(pattern.randrange(rows * rows), rows)
        source = (row + down) % rows * rows + (col + right) % rows
        algorithms.append(
            BFS(source, hops)
            if index % 2 == 0
            else HopBroadcast(source, rng.randrange(1 << 16), hops)
        )
    workload = Workload(
        topology.torus_graph(rows, rows), algorithms, master_seed=seed,
        solo_cache=None,
    )
    assert _assert_same_schedule(workload.patterns()) == 22
