"""E18 — hot-path overhaul: same bits, much less work.

Claims measured (the first two asserted as regression gates, run in CI):

* computing (congestion, dilation) from solo traces via the
  **incremental trace indices** is **at least 3x faster** than the naive
  full rescan of every trace event — and returns identical parameters
  and identical per-edge congestion profiles;
* a delay-staggered multi-algorithm schedule executed with **silent-phase
  fast-forwarding** (what ``run_delayed_phases`` always does) is **at
  least 1.5x faster** end-to-end than the naive phase-by-phase walk
  (its big-round loop ``run_copies`` patched to ``fast_forward=False``)
  — and bit-identical: same outputs, same ``num_phases``, same max
  load, same load histogram, same message count;
* the **BFS cache / early-exit** distance queries beat fresh full sweeps
  (reported, not asserted: the ratio depends on topology and query mix).

The naive legs are real re-implementations of the pre-overhaul code
paths (full event rescan; ``run_copies(fast_forward=False)``; per-query
full BFS), so the golden comparisons pin the determinism contract, not
just speed.
"""

import functools
import gc
import random
import time
from collections import Counter, defaultdict

import pytest

from repro.congest import Network, topology
from repro.core import phase_engine, run_delayed_phases, verify_outputs
from repro.experiments import mixed_workload
from repro.metrics import WorkloadParams, measure_params

from conftest import emit

#: Metrics leg: workload whose solo traces carry enough events that the
#: full rescan visibly loses to the O(edges) index queries. Random
#: fixed patterns reuse each edge across many rounds, the regime where
#: rescans (O(total events)) lose hardest to indices (O(distinct edges)).
METRICS_SIDE = 10
METRICS_K = 12
METRICS_PATTERN_LENGTH = 40
METRICS_EVENTS_PER_ROUND = 120
#: Number of (congestion, dilation) evaluations per timed window — a
#: sweep row triggers one per scheduler comparison, so queries repeat.
METRICS_REPEATS = 20

#: End-to-end leg: delay-staggered schedule whose silent prefix dwarfs
#: the active phases (the shape the doubling search explores).
E2E_K = 6
E2E_DELAY_STEP = 15_000


def naive_measure(runs) -> WorkloadParams:
    """(congestion, dilation) via full event rescan — the pre-overhaul path."""
    dilation = 0
    profile: Counter = Counter()
    for run in runs:
        last = 0
        usage = defaultdict(set)
        for r, u, v in run.trace.events():
            if r > last:
                last = r
            usage[Network.canonical_edge(u, v)].add(r)
        if last > dilation:
            dilation = last
        for edge, rounds in usage.items():
            profile[edge] += len(rounds)
    congestion = max(profile.values()) if profile else 0
    return WorkloadParams(
        congestion=congestion, dilation=dilation, num_algorithms=len(runs)
    )


def naive_profile(runs) -> Counter:
    profile: Counter = Counter()
    for run in runs:
        usage = defaultdict(set)
        for r, u, v in run.trace.events():
            usage[Network.canonical_edge(u, v)].add(r)
        for edge, rounds in usage.items():
            profile[edge] += len(rounds)
    return profile


def incremental_profile(runs) -> Counter:
    profile: Counter = Counter()
    for run in runs:
        profile.update(run.trace.edge_round_counts())
    return profile


def _timed(fn, repeats=1, samples=3):
    """Best-of-``samples`` wall time of ``repeats`` calls; returns
    (seconds, last result)."""
    best = float("inf")
    result = None
    for _ in range(samples):
        gc.collect()
        start = time.perf_counter()
        for _ in range(repeats):
            result = fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best, result


@pytest.mark.benchmark(group="e18")
def test_e18_hot_path(benchmark, results_dir):
    rows = []

    # --- leg 1: congestion/dilation metrics, naive rescan vs indices
    from repro.algorithms import BFS, FixedPattern, random_pattern
    from repro.core import Workload

    metrics_net = topology.grid_graph(METRICS_SIDE, METRICS_SIDE)
    work = Workload(
        metrics_net,
        [BFS(0), BFS(metrics_net.num_nodes - 1)]
        + [
            FixedPattern(
                random_pattern(
                    metrics_net,
                    METRICS_PATTERN_LENGTH,
                    METRICS_EVENTS_PER_ROUND,
                    seed=4 * 31 + i,
                ),
                label=f"rand{i}",
            )
            for i in range(METRICS_K - 2)
        ],
    )
    runs = work.solo_runs()  # simulate once, outside every timed window
    naive_time, naive_params = _timed(
        lambda: naive_measure(runs), repeats=METRICS_REPEATS
    )
    fast_time, fast_params = _timed(
        lambda: measure_params(runs), repeats=METRICS_REPEATS
    )
    assert fast_params == naive_params, (
        "incremental trace indices changed the measured parameters"
    )
    assert incremental_profile(runs) == naive_profile(runs), (
        "incremental per-edge congestion profile diverged from full rescan"
    )
    metrics_speedup = naive_time / fast_time
    rows.append(
        ["metrics rescan", f"{naive_time * 1e3:.1f}", "1.00x",
         str(naive_params)]
    )
    rows.append(
        ["metrics indices", f"{fast_time * 1e3:.1f}",
         f"{metrics_speedup:.1f}x (>=3x asserted)", str(fast_params)]
    )

    # --- leg 2: delay-staggered schedule, naive walk vs fast-forward
    e2e_work = mixed_workload(topology.grid_graph(6, 6), E2E_K, seed=4)
    delays = [aid * E2E_DELAY_STEP for aid in range(E2E_K)]

    def naive_walk():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                phase_engine, "run_copies",
                functools.partial(phase_engine.run_copies, fast_forward=False),
            )
            return run_delayed_phases(e2e_work, delays)

    naive_e2e_time, naive_exec = _timed(naive_walk, samples=2)
    fast_e2e_time, fast_exec = _timed(
        lambda: run_delayed_phases(e2e_work, delays), samples=3
    )
    # Golden comparison: the fast-forward walk must be bit-identical.
    assert fast_exec.outputs == naive_exec.outputs
    assert fast_exec.num_phases == naive_exec.num_phases
    assert fast_exec.max_phase_load == naive_exec.max_phase_load
    assert fast_exec.load_histogram == naive_exec.load_histogram
    assert fast_exec.messages == naive_exec.messages
    assert verify_outputs(e2e_work, fast_exec.outputs) == []
    e2e_speedup = naive_e2e_time / fast_e2e_time
    rows.append(
        ["e2e naive walk", f"{naive_e2e_time * 1e3:.1f}", "1.00x",
         f"phases={naive_exec.num_phases}"]
    )
    rows.append(
        ["e2e fast-forward", f"{fast_e2e_time * 1e3:.1f}",
         f"{e2e_speedup:.1f}x (>=1.5x asserted)",
         f"phases={fast_exec.num_phases}"]
    )

    # --- leg 3: BFS distance/weak-diameter queries (reported only)
    net = topology.grid_graph(12, 12)
    rng = random.Random(0)
    queries = [
        (rng.randrange(net.num_nodes), rng.randrange(net.num_nodes))
        for _ in range(300)
    ]
    member_sets = [
        rng.sample(range(net.num_nodes), 12) for _ in range(20)
    ]

    def full_bfs(source):
        # The pre-overhaul path: a full uncached sweep per query.
        from collections import deque

        dist = {source: 0}
        frontier = deque([source])
        while frontier:
            u = frontier.popleft()
            d = dist[u] + 1
            for w in net.neighbors(u):
                if w not in dist:
                    dist[w] = d
                    frontier.append(w)
        return dist

    def naive_distances():
        return [full_bfs(u)[v] for u, v in queries]

    def naive_diameters():
        out = []
        for members in member_sets:
            dists = [full_bfs(u) for u in members]
            out.append(
                max(d[v] for d in dists for v in members) if members else 0
            )
        return out

    bfs_naive_time, naive_answers = _timed(naive_distances, samples=2)
    warm = Network(net.edges, num_nodes=net.num_nodes)
    bfs_fast_time, fast_answers = _timed(
        lambda: [warm.distance(u, v) for u, v in queries]
    )
    assert fast_answers == naive_answers
    wd_naive_time, naive_wds = _timed(naive_diameters, samples=2)
    wd_fast_time, fast_wds = _timed(
        lambda: [warm.weak_diameter(m) for m in member_sets]
    )
    assert fast_wds == naive_wds
    rows.append(
        ["distance full BFS", f"{bfs_naive_time * 1e3:.1f}", "1.00x",
         f"{len(queries)} queries"]
    )
    rows.append(
        ["distance cached", f"{bfs_fast_time * 1e3:.1f}",
         f"{bfs_naive_time / bfs_fast_time:.1f}x (reported)",
         f"stats={warm.bfs_stats.as_dict()}"]
    )
    rows.append(
        ["weak-diam full BFS", f"{wd_naive_time * 1e3:.1f}", "1.00x",
         f"{len(member_sets)} sets"]
    )
    rows.append(
        ["weak-diam pruned", f"{wd_fast_time * 1e3:.1f}",
         f"{wd_naive_time / wd_fast_time:.1f}x (reported)",
         f"pruned={warm.bfs_stats.pruned_sources}"]
    )

    emit(
        results_dir,
        "e18_hot_path",
        ["leg", "ms", "speedup", "detail"],
        rows,
        notes=(
            "Incremental trace indices and silent-phase fast-forwarding are "
            "pure accelerations: parameters, profiles, outputs, phase "
            "counts, load histograms and message totals are asserted "
            "bit-identical to the naive paths. BFS cache ratios depend on "
            "the query mix and are reported only."
        ),
    )

    assert metrics_speedup >= 3.0, (
        f"trace-index metrics speedup {metrics_speedup:.2f}x < 3x "
        f"(naive {naive_time * 1e3:.1f} ms, fast {fast_time * 1e3:.1f} ms)"
    )
    assert e2e_speedup >= 1.5, (
        f"fast-forward end-to-end speedup {e2e_speedup:.2f}x < 1.5x "
        f"(naive {naive_e2e_time * 1e3:.1f} ms, fast "
        f"{fast_e2e_time * 1e3:.1f} ms)"
    )

    benchmark.pedantic(
        lambda: measure_params(runs), rounds=3, iterations=1
    )
