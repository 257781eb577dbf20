"""Analytic and empirical quantities from the Theorem 3.1 proof.

The proof has three numeric ingredients, all reproduced here so they can
be checked at both paper scale (symbolically, via the formulas) and
simulable scale (empirically, via sampling):

1. **Averaging**: a short schedule yields a (layer, phase) pair of load
   at least ``0.9·k·L / (0.1·L·phases)`` (:func:`average_layer_phase_load`).
2. **Anti-concentration**: with ``M`` algorithms crossing one layer-phase
   and per-edge use probability ``q``, one fixed edge exceeds the phase
   capacity ``τ`` with probability at least the binomial upper tail
   (:func:`edge_overload_probability`), and *some* edge of the layer does
   with ``1 - (1 - p)^width`` (independence across the layer's edges).
3. **Union bound**: the number of crossing patterns is
   ``exp(Θ(k·L·log(phases)))`` (:func:`log_crossing_pattern_count`), so
   a per-pattern failure probability below its inverse kills them all.

:func:`empirical_min_schedule` complements the existential argument
computationally: it searches over many random delay-based schedules for
the best feasible one and reports the shortest length found — an upper
bound on the optimum that the experiments show stays
``Ω((C + D)·log n/log log n)`` on hard instances while the *same search*
reaches ``O(C + D)`` on packet-routing instances of equal parameters.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .._util import derive_seed
from ..congest.pattern import CommunicationPattern
from ..core.pattern_schedule import evaluate_delay_schedule
from ..metrics.schedule import PhaseTimeline


__all__ = [
    "average_layer_phase_load",
    "edge_overload_probability",
    "layer_overload_probability",
    "log_crossing_pattern_count",
    "lower_bound_formula",
    "empirical_min_schedule",
    "EmpiricalScheduleResult",
]


def lower_bound_formula(congestion: int, dilation: int, n: int) -> float:
    """``congestion + dilation·log n / log log n`` (the Thm 3.1 shape)."""
    log_n = math.log2(max(n, 4))
    return congestion + dilation * log_n / math.log2(log_n)


def average_layer_phase_load(
    num_algorithms: int, num_layers: int, num_phases: int,
    assigned_fraction: float = 0.9,
) -> float:
    """The proof's averaging bound on the max layer-phase load.

    ``Σ L(j,t) ≥ k · assigned_fraction · L`` spread over ``L · phases``
    pairs gives an average of ``k·fraction/phases`` per pair.
    """
    pairs = num_layers * num_phases
    total = num_algorithms * assigned_fraction * num_layers
    return total / pairs


def edge_overload_probability(
    crossing_count: int, edge_probability: float, capacity: int
) -> float:
    """``Pr[Binom(M, q) > τ]``: one fixed edge exceeds the phase capacity.

    This is the proof's anti-concentration estimate (stated there as a
    binomial tail sum ``≥ n^{-0.2}`` for the paper's parameters).
    """
    if crossing_count <= capacity:
        return 0.0
    q = edge_probability
    # Complementary CDF of the binomial, summed from capacity + 1.
    log_terms: List[float] = []
    for ell in range(capacity + 1, crossing_count + 1):
        log_c = (
            math.lgamma(crossing_count + 1)
            - math.lgamma(ell + 1)
            - math.lgamma(crossing_count - ell + 1)
        )
        log_terms.append(
            log_c + ell * math.log(q) + (crossing_count - ell) * math.log1p(-q)
        )
    peak = max(log_terms)
    return math.exp(peak) * sum(math.exp(t - peak) for t in log_terms)


def layer_overload_probability(
    crossing_count: int, edge_probability: float, capacity: int, width: int
) -> float:
    """Probability that *some* of the layer's ``width`` independent edges
    overloads: ``1 - (1 - p_edge)^width``."""
    p_edge = edge_overload_probability(crossing_count, edge_probability, capacity)
    if p_edge <= 0:
        return 0.0
    return -math.expm1(width * math.log1p(-min(p_edge, 1.0 - 1e-15)))


def log_crossing_pattern_count(
    num_algorithms: int, num_layers: int, num_phases: int
) -> float:
    """Natural log of the number of crossing patterns (union-bound size).

    Per algorithm: choose the ≤ 0.1·L unassigned layers
    (``≤ L·ln 2`` nats, bounded by ``2^L``) and assign non-decreasing
    phases to the rest (stars and bars:
    ``C(phases + 0.9L - 1, 0.9L)``).
    """
    assigned = math.ceil(0.9 * num_layers)
    stars_and_bars = (
        math.lgamma(num_phases + assigned)
        - math.lgamma(assigned + 1)
        - math.lgamma(num_phases)
    )
    per_algorithm = num_layers * math.log(2) + stars_and_bars
    return num_algorithms * per_algorithm


@dataclass
class EmpiricalScheduleResult:
    """Best schedule found by randomized search over delay assignments."""

    best_length: int
    best_delays: Tuple[int, ...]
    trials: int
    #: Length of every trial, for distribution plots.
    lengths: List[int]


def empirical_min_schedule(
    patterns: Sequence[CommunicationPattern],
    max_delay: int,
    trials: int,
    seed: int = 0,
    include_zero: bool = True,
) -> EmpiricalScheduleResult:
    """Search random delay assignments for the shortest feasible schedule.

    For each trial, delays are sampled uniformly from ``[0, max_delay]``
    per algorithm; the schedule length is the exact pattern-level cost,
    the length of a :class:`PhaseTimeline` with phase size 1 — i.e. delays in
    *rounds* and every (edge, round) carrying at most one message, the
    raw CONGEST constraint. Returns the best over ``trials`` samples
    (plus the all-zero assignment when ``include_zero``).
    """
    rng = random.Random(derive_seed(seed, "empirical-lb"))
    k = len(patterns)
    best_length: Optional[int] = None
    best_delays: Tuple[int, ...] = tuple([0] * k)
    lengths: List[int] = []

    candidates = []
    if include_zero:
        candidates.append(tuple([0] * k))
    for _ in range(trials):
        candidates.append(
            tuple(rng.randint(0, max_delay) for _ in range(k))
        )

    for delays in candidates:
        report = evaluate_delay_schedule(patterns, list(delays))
        length = PhaseTimeline.stretched(
            report.num_phases, 1, report.max_phase_load
        ).length
        lengths.append(length)
        if best_length is None or length < best_length:
            best_length = length
            best_delays = delays

    assert best_length is not None
    return EmpiricalScheduleResult(
        best_length=best_length,
        best_delays=best_delays,
        trials=len(candidates),
        lengths=lengths,
    )
