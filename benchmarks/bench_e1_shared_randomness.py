"""E1 — Theorem 1.1: shared-randomness scheduling.

Claim: with uniform random delays over phases of Θ(log n) rounds, all
algorithms run together, correctly, in O(congestion + dilation·log n)
rounds. We sweep network size with k = 16 mixed workloads and report the
measured length against the bound C + D·log2 n; the ratio must stay
bounded (no growth with n).
"""

import math

import pytest

from repro.congest import topology
from repro.core import RandomDelayScheduler
from repro.experiments import mixed_workload

from conftest import emit

SIZES = [(6, 6), (9, 9), (12, 12), (20, 20)]
K = 16


def _run_once(net, seed):
    work = mixed_workload(net, K, seed=seed)
    result = RandomDelayScheduler().run(work, seed=seed)
    return work, result


@pytest.mark.benchmark(group="e1")
def test_e1_shared_randomness_schedule(benchmark, results_dir):
    rows = []
    ratios = []
    for rows_cols in SIZES:
        net = topology.grid_graph(*rows_cols)
        n = net.num_nodes
        lengths = []
        for seed in range(3):
            work, result = _run_once(net, seed)
            assert result.correct
            params = work.params()
            bound = params.congestion + params.dilation * math.log2(n)
            lengths.append(result.report.length_rounds / bound)
            if seed == 0:
                rows.append(
                    [
                        n,
                        params.congestion,
                        params.dilation,
                        result.report.length_rounds,
                        round(bound),
                        round(result.report.length_rounds / bound, 2),
                        result.report.max_phase_load,
                        result.report.phase_size,
                    ]
                )
        ratios.append(sum(lengths) / len(lengths))

    emit(
        results_dir,
        "e1_shared_randomness",
        ["n", "C", "D", "len", "C+D·log n", "ratio", "maxload", "phase"],
        rows,
        notes="T1.1: length/(C + D·log2 n) must stay O(1) as n grows",
    )
    # the competitive ratio against the bound must not grow with n
    assert max(ratios) <= 3.0
    assert ratios[-1] <= 1.5 * ratios[0] + 0.5

    net = topology.grid_graph(9, 9)
    benchmark.pedantic(_run_once, args=(net, 0), rounds=1, iterations=1)


@pytest.mark.benchmark(group="e1")
def test_e1_large_scale_pattern_level(benchmark, results_dir):
    """The same claim at 10-50x larger n, via the analytic pattern-level
    evaluator (identical accounting to the execution engine — asserted by
    the test suite). Synthetic fixed patterns with dialled congestion."""
    import random as _random

    from repro.algorithms import random_pattern
    from repro.core.pattern_schedule import evaluate_delay_schedule
    from repro.metrics import measure_params_from_patterns, phase_schedule_length

    rows = []
    ratios = []
    k, length, per_round = 64, 20, 40
    for side in (20, 40, 70):
        net = topology.grid_graph(side, side)
        n = net.num_nodes
        patterns = [
            random_pattern(net, length, per_round, seed=1000 + i)
            for i in range(k)
        ]
        params = measure_params_from_patterns(patterns)
        phase_size = max(1, math.ceil(math.log2(n)))
        delay_range = max(1, math.ceil(params.congestion / phase_size))
        rng = _random.Random(17)
        delays = [rng.randrange(delay_range) for _ in range(k)]
        report = evaluate_delay_schedule(patterns, delays)
        length_rounds = phase_schedule_length(
            report.num_phases, phase_size, report.max_phase_load
        )
        bound = params.congestion + params.dilation * math.log2(n)
        ratios.append(length_rounds / bound)
        rows.append(
            [
                n,
                params.congestion,
                params.dilation,
                length_rounds,
                round(bound),
                round(length_rounds / bound, 2),
                report.max_phase_load,
                phase_size,
            ]
        )

    emit(
        results_dir,
        "e1_large_scale",
        ["n", "C", "D", "len", "C+D·log n", "ratio", "maxload", "phase"],
        rows,
        notes="T1.1 at scale (pattern-level accounting), k=64 synthetic algorithms",
    )
    assert max(ratios) <= 3.0
    # per-(edge, phase) loads stay at the Θ(log n) scale
    for row in rows:
        assert row[6] <= 3 * row[7]

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


@pytest.mark.benchmark(group="e1")
def test_e1_delay_stretch_tradeoff(benchmark, results_dir):
    """The Chernoff-constant knob: stretching the delay range lowers
    per-phase loads (shorter stretched phases) but lengthens the delay
    span — the constant-factor tradeoff inside Theorem 1.1's O(·)."""
    from repro.algorithms import PathToken
    from repro.congest.topology import path_graph
    from repro.core import RandomDelayScheduler, Workload

    net = path_graph(12)
    tokens = [PathToken(list(range(12)), token=i) for i in range(32)]
    work = Workload(net, tokens)
    rows = []
    loads = []
    for stretch in (0.5, 1.0, 2.0, 4.0):
        result = RandomDelayScheduler(delay_stretch=stretch).run(work, seed=6)
        assert result.correct
        rows.append(
            [
                stretch,
                result.report.notes["delay_range"],
                result.report.num_phases,
                result.report.max_phase_load,
                result.report.length_rounds,
            ]
        )
        loads.append(result.report.max_phase_load)

    emit(
        results_dir,
        "e1_delay_stretch",
        ["stretch", "delay range", "phases", "max load", "length"],
        rows,
        notes="larger delay ranges spread load at the cost of span",
    )
    # loads decrease (weakly) as the range stretches
    assert loads[-1] <= loads[0]

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
