"""Exact crossing-pattern search: certified bounds on small instances.

Theorem 3.1's proof associates to every short schedule a *crossing
pattern* — a monotone assignment of (algorithm, layer) crossings to
phases — and shows, by probabilistic counting, that some sampled
instance admits no good pattern. On *small* instances we can replace the
counting with brute force: enumerate every monotone crossing pattern
(per algorithm, a stars-and-bars object) with DFS + load pruning, and
either exhibit a feasible one or *certify* that none exists.

A certification that no crossing pattern with ``P`` phases of capacity
``f`` exists is a concrete, machine-checked instantiation of the paper's
existential argument: for that instance, every schedule in which each
layer crossing completes within one phase needs more than ``P·f``
rounds. (Real schedules may straddle phases; the paper's 0.9-fraction
bookkeeping converts general schedules into crossing patterns at a
constant-factor loss — here we report the clean within-phase statement
and let the benchmarks show the ratio against ``C + D``.)
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .hard_instance import HardInstance

__all__ = ["CrossingSearchResult", "search_crossing_patterns", "certified_min_phases"]


@dataclass
class CrossingSearchResult:
    """Outcome of the exhaustive crossing-pattern search."""

    feasible: bool
    num_phases: int
    capacity: int
    #: A witness assignment (algorithm -> phase per layer) when feasible.
    witness: Optional[List[Tuple[int, ...]]]
    #: Search-tree nodes explored (bookkeeping/pruning effectiveness).
    nodes_explored: int


def _monotone_assignments(
    num_layers: int, num_phases: int, max_per_phase: int
):
    """Yield all non-decreasing phase assignments for the layers.

    ``max_per_phase`` encodes the physical fact that one algorithm's
    crossings are sequential — two rounds each — so a phase of ``f``
    rounds can host at most ``⌊f/2⌋`` of them. Any real within-phase
    schedule satisfies this, so adding it preserves the soundness of
    infeasibility certificates while keeping the model honest.
    """
    assignment = [0] * num_layers

    def rec(position: int, minimum: int, used_in_minimum: int):
        if position == num_layers:
            yield tuple(assignment)
            return
        for phase in range(minimum, num_phases):
            used = used_in_minimum if phase == minimum else 0
            if used >= max_per_phase:
                continue
            assignment[position] = phase
            yield from rec(position + 1, phase, used + 1)

    yield from rec(0, 0, 0)


def search_crossing_patterns(
    instance: HardInstance,
    num_phases: int,
    capacity: int,
    max_nodes: int = 2_000_000,
) -> CrossingSearchResult:
    """DFS over joint crossing patterns with per-(edge, phase) pruning.

    Assigns algorithms one at a time; a partial assignment is pruned as
    soon as any (edge, phase) pair exceeds ``capacity``. Exhausting the
    tree without a feasible completion certifies infeasibility.
    """
    k = instance.num_algorithms
    num_layers = instance.num_layers

    # Per algorithm and layer, the loads its crossing puts on edges —
    # precomputed as ((edge-key, 1), ...) lists. Edge keys are the
    # (endpoint pair) tuples; both fan-out and fan-in edges of a layer.
    per_algorithm: List[List[List[Tuple[int, int]]]] = []
    for i in range(k):
        layers = []
        for j in range(1, num_layers + 1):
            edges = []
            for u in instance.subsets[i][j - 1]:
                edges.append((instance.spine(j - 1), u))
                edges.append((u, instance.spine(j)))
            layers.append(edges)
        per_algorithm.append(layers)

    loads: Counter = Counter()
    witness: List[Tuple[int, ...]] = []
    explored = 0
    max_per_phase = max(1, capacity // 2)

    def place(i: int) -> bool:
        nonlocal explored
        if i == k:
            return True
        for assignment in _monotone_assignments(
            num_layers, num_phases, max_per_phase
        ):
            explored += 1
            if explored > max_nodes:
                raise RuntimeError(
                    f"crossing search exceeded {max_nodes} nodes; "
                    "use a smaller instance"
                )
            # apply with incremental feasibility check
            applied = []
            ok = True
            for j, phase in enumerate(assignment):
                for edge in per_algorithm[i][j]:
                    key = (edge, phase)
                    loads[key] += 1
                    applied.append(key)
                    if loads[key] > capacity:
                        ok = False
                        break
                if not ok:
                    break
            if ok and place(i + 1):
                witness.append(assignment)
                return True
            for key in applied:
                loads[key] -= 1
        return False

    feasible = place(0)
    return CrossingSearchResult(
        feasible=feasible,
        num_phases=num_phases,
        capacity=capacity,
        witness=list(reversed(witness)) if feasible else None,
        nodes_explored=explored,
    )


def certified_min_phases(
    instance: HardInstance,
    capacity: int,
    max_phases: Optional[int] = None,
    max_nodes: int = 2_000_000,
) -> Tuple[int, List[CrossingSearchResult]]:
    """Smallest ``P`` admitting a feasible crossing pattern at ``capacity``.

    Returns ``(P*, per-P results)``. Every infeasible ``P < P*`` is a
    certificate: no within-phase schedule of ``P`` phases ×
    ``capacity``-round phases exists for the instance.
    """
    if max_phases is None:
        max_phases = 2 * instance.num_layers + instance.num_algorithms
    results = []
    for phases in range(1, max_phases + 1):
        result = search_crossing_patterns(
            instance, phases, capacity, max_nodes=max_nodes
        )
        results.append(result)
        if result.feasible:
            return phases, results
    raise RuntimeError(f"no feasible pattern up to {max_phases} phases")
