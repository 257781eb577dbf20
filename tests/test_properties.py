"""Property-based (hypothesis) tests over the scheduling core.

The DAS correctness contract is universally quantified: *any* workload,
*any* delays, *any* clustering — scheduled outputs equal solo outputs.
These tests let hypothesis hunt for counterexamples across that space;
the truncation off-by-one fixed during development is exactly the kind
of bug this net is for.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import BFS, FixedPattern, HopBroadcast, PathToken, random_pattern
from repro.clustering import build_clustering, extend_clustering
from repro.congest import topology
from repro.errors import CoverageError
from repro.core import (
    Workload,
    greedy_schedule,
    run_cluster_copies,
    run_delayed_phases,
    verify_outputs,
)
from repro.core.pattern_schedule import evaluate_delay_schedule
from tests.core.test_cluster_engine import assert_matches_per_copy, run_per_copy

NETS = [
    topology.grid_graph(4, 4),
    topology.cycle_graph(11),
    topology.star_graph(7),
    topology.random_regular(12, 3, seed=0),
]


def _random_workload(net, k, seed):
    algorithms = []
    for i in range(k):
        kind = (seed + i) % 3
        if kind == 0:
            algorithms.append(BFS((seed + 3 * i) % net.num_nodes, hops=3))
        elif kind == 1:
            algorithms.append(
                HopBroadcast((seed + 5 * i) % net.num_nodes, 100 + i, 3)
            )
        else:
            algorithms.append(
                FixedPattern(
                    random_pattern(net, 3, 4, seed=seed * 31 + i),
                    label=("fz", i),
                )
            )
    return Workload(net, algorithms, master_seed=seed)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    net_index=st.integers(0, len(NETS) - 1),
    k=st.integers(1, 5),
    seed=st.integers(0, 1000),
    delay_data=st.data(),
)
def test_any_delays_reproduce_solo_outputs(net_index, k, seed, delay_data):
    """The phase engine is correct for arbitrary delay vectors."""
    net = NETS[net_index]
    work = _random_workload(net, k, seed)
    delays = [
        delay_data.draw(st.integers(0, 9), label=f"delay{i}") for i in range(k)
    ]
    execution = run_delayed_phases(work, delays)
    assert verify_outputs(work, execution.outputs) == []


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    net_index=st.integers(0, len(NETS) - 1),
    k=st.integers(1, 5),
    seed=st.integers(0, 1000),
    delay_data=st.data(),
)
def test_engine_matches_pattern_evaluator(net_index, k, seed, delay_data):
    """Execution-level and analytic load accounting always agree."""
    net = NETS[net_index]
    work = _random_workload(net, k, seed)
    delays = [delay_data.draw(st.integers(0, 6)) for _ in range(k)]
    execution = run_delayed_phases(work, delays)
    analytic = evaluate_delay_schedule(work.patterns(), delays)
    assert execution.max_phase_load == analytic.max_phase_load
    assert execution.num_phases == analytic.num_phases
    assert execution.messages == analytic.total_messages


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 500),
    k=st.integers(1, 4),
    dedup=st.booleans(),
    delay_data=st.data(),
)
def test_cluster_copies_any_delays(seed, k, dedup, delay_data):
    """The cluster engine is correct for arbitrary per-cluster delays —
    including adversarially inconsistent ones across clusters — and
    equals stepping every copy on its own."""
    net = topology.grid_graph(4, 4)
    work = _random_workload(net, k, seed)
    clustering = build_clustering(
        net,
        radius_scale=2 * max(1, work.params().dilation),
        num_layers=12,
        seed=seed,
    )
    offsets = {}

    def delay_of(layer, center, aid):
        key = (layer, center, aid)
        if key not in offsets:
            offsets[key] = delay_data.draw(st.integers(0, 5))
        return offsets[key]

    # Coverage is a w.h.p. guarantee, not a certainty: a fixed 12-layer
    # clustering can leave some ball uncovered for unlucky seeds. Mirror
    # what PrivateScheduler._ensure_coverage does — extend and retry —
    # instead of treating the probabilistic shortfall as a failure.
    for _ in range(3):
        try:
            execution = run_cluster_copies(work, clustering, delay_of, dedup=dedup)
            break
        except CoverageError:
            clustering = extend_clustering(clustering, clustering.num_layers)
    else:
        execution = run_cluster_copies(work, clustering, delay_of, dedup=dedup)
    assert verify_outputs(work, execution.outputs) == []
    assert_matches_per_copy(
        execution, run_per_copy(work, clustering, delay_of, dedup=dedup)
    )


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 1000),
    k=st.integers(1, 6),
    length=st.integers(1, 6),
    density=st.integers(1, 8),
)
def test_greedy_schedule_always_valid(seed, k, length, density):
    """Greedy list scheduling: unit capacities respected, causal
    precedence preserved, every event scheduled exactly once."""
    from collections import Counter

    net = topology.grid_graph(4, 4)
    patterns = [
        random_pattern(net, length, density, seed=seed * 17 + i) for i in range(k)
    ]
    schedule = greedy_schedule(patterns)
    total_events = sum(len(p) for p in patterns)
    assert len(schedule.assignment) == total_events

    usage = Counter()
    for (aid, event), slot in schedule.assignment.items():
        assert 1 <= slot <= schedule.makespan
        usage[(event[1], event[2], slot)] += 1
    assert not usage or max(usage.values()) == 1
    schedule.validate_capacity()

    # causal order preserved within each algorithm
    for aid, pattern in enumerate(patterns):
        for e, f in pattern.causal_pairs():
            assert schedule.assignment[(aid, e)] < schedule.assignment[(aid, f)]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2000),
    radius=st.integers(1, 5),
    layer=st.integers(0, 3),
)
def test_h_prime_definition_holds(seed, radius, layer):
    """h'(v) is exactly the largest contained-ball radius, always."""
    from repro.clustering import carve_layer, draw_radii_and_labels
    from repro.clustering.carving import INFINITE_RADIUS

    net = topology.random_regular(14, 3, seed=1)
    radii, labels = draw_radii_and_labels(net, radius, seed, layer)
    result = carve_layer(net, radii, labels)
    for v in list(net.nodes)[:5]:
        h = result.h_prime[v]
        if h >= INFINITE_RADIUS:
            continue
        ball = net.ball(v, h)
        assert all(result.center[u] == result.center[v] for u in ball)
        bigger = net.ball(v, h + 1)
        assert any(result.center[u] != result.center[v] for u in bigger)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2000),
    k=st.integers(1, 3),
    length=st.integers(1, 3),
    density=st.integers(1, 2),
)
def test_exact_opt_bounds_greedy(seed, k, length, density):
    """On micro instances: exact OPT ≤ greedy makespan, and OPT is at
    least both trivial lower bounds (per-direction load; chain depth)."""
    from collections import Counter

    from repro.core import greedy_schedule
    from repro.core.exact import exact_makespan

    net = topology.path_graph(5)
    patterns = [
        random_pattern(net, length, density, seed=seed * 13 + i)
        for i in range(k)
    ]
    if sum(len(p) for p in patterns) > 10:
        return
    exact = exact_makespan(patterns, max_events=10)
    greedy = greedy_schedule(patterns).makespan
    assert exact.makespan <= greedy

    direction_loads = Counter()
    for p in patterns:
        for r, u, v in p.events:
            direction_loads[(u, v)] += 1
    max_dir = max(direction_loads.values()) if direction_loads else 0
    assert exact.makespan >= max_dir


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    net_index=st.integers(0, len(NETS) - 1),
    k=st.integers(1, 4),
    seed=st.integers(0, 500),
    phase_size=st.integers(1, 6),
    delay_data=st.data(),
)
def test_materialized_schedule_always_valid(net_index, k, seed, phase_size, delay_data):
    """Any delay assignment materializes into a capacity-respecting,
    causality-preserving physical schedule of exactly the accounted
    length, with every message inside its phase's window of rounds."""
    from repro.core.pattern_schedule import evaluate_delay_schedule
    from repro.core.physical import materialize_phase_schedule

    net = NETS[net_index]
    work = _random_workload(net, k, seed)
    patterns = work.patterns()
    delays = [delay_data.draw(st.integers(0, 5)) for _ in range(k)]
    schedule = materialize_phase_schedule(patterns, delays, phase_size)
    schedule.validate_capacity()
    report = evaluate_delay_schedule(patterns, delays)
    width = max(phase_size, report.max_phase_load)
    assert schedule.makespan == report.num_phases * width
    # algorithm i's round-r message lands in phase p = δ_i + r - 1,
    # i.e. on a round p·w < slot ≤ (p+1)·w
    for (aid, (r, _, _)), slot in schedule.assignment.items():
        phase = delays[aid] + r - 1
        assert phase * width < slot <= (phase + 1) * width
    # spot-check causal validity on one algorithm (quadratic check)
    if patterns and len(patterns[0]) <= 40:
        from repro.congest.pattern import validate_simulation_mapping

        validate_simulation_mapping(patterns[0], schedule.mapping_for(0))
