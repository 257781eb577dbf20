"""Fast-forwarding silent phases/big-rounds must not change results.

Both engines step their copies through one big-round loop,
:func:`repro.core.phase_engine.run_copies`, which skips *silent*
stretches — nothing running, nothing in flight, nothing starting — in
one jump. Delay-staggered schedules make most early phases silent, so
this is a large win; but the contract is strict bit-identity with the
naive phase-by-phase walk. The loop keeps a ``fast_forward=False``
switch precisely so these tests (and ``bench_e18``) can compare the two
walks on the same workload; the engines do not expose it, so the naive
walk is reached by patching their ``run_copies`` (:func:`naive_walk`).
"""

import functools

import pytest

from repro.algorithms import BFS, HopBroadcast, PathToken
from repro.clustering import build_clustering
from repro.core import (
    Workload,
    cluster_engine,
    phase_engine,
    run_cluster_copies,
    run_delayed_phases,
    verify_outputs,
)
from repro.faults import NULL_INJECTOR, FaultPlan, NodeCrash
from repro.telemetry import InMemoryRecorder


def assert_executions_identical(a, b):
    assert a.outputs == b.outputs
    assert a.num_phases == b.num_phases
    assert a.max_phase_load == b.max_phase_load
    assert a.load_histogram == b.load_histogram
    assert a.messages == b.messages
    assert a.truncated == b.truncated


def naive_walk(monkeypatch):
    """Make both engines walk every big-round (no fast-forward)."""
    walk = functools.partial(phase_engine.run_copies, fast_forward=False)
    for engine in (phase_engine, cluster_engine):
        monkeypatch.setattr(engine, "run_copies", walk)


def _workload(net):
    return Workload(
        net, [BFS(0), BFS(net.num_nodes - 1), HopBroadcast(5, "x", 4)]
    )


class TestPhaseEngineIdentity:
    @pytest.mark.parametrize(
        "delays",
        [
            [0, 0, 0],          # nothing to skip
            [0, 40, 90],        # long silent gaps between starts
            [25, 25, 60],       # shared start phase after a silent prefix
            [100, 3, 57],       # first algorithm starts last
        ],
    )
    def test_fast_forward_matches_naive_walk(self, grid6, monkeypatch, delays):
        work = _workload(grid6)
        fast = run_delayed_phases(work, delays)
        naive_walk(monkeypatch)
        naive = run_delayed_phases(work, delays)
        assert_executions_identical(fast, naive)
        assert verify_outputs(work, fast.outputs) == []

    def test_identity_under_faults(self, grid4, monkeypatch):
        work = Workload(grid4, [BFS(0), HopBroadcast(15, "y", 3)])
        plan = FaultPlan(seed=11, drop=0.1, delay=0.15, duplicate=0.1,
                         max_extra_delay=2)

        def run():
            return run_delayed_phases(
                work, [0, 35], injector=plan.injector(), max_phases=200
            )

        fast = run()
        naive_walk(monkeypatch)
        assert_executions_identical(fast, run())

    def test_identity_with_recorder_attached(self, grid4):
        # The recorder must observe, not perturb.
        work = Workload(grid4, [BFS(0), BFS(15)])
        plain = run_delayed_phases(work, [0, 30])
        recorded = run_delayed_phases(
            work, [0, 30], recorder=InMemoryRecorder()
        )
        assert_executions_identical(plain, recorded)

    def test_max_phases_still_enforced(self, grid4, monkeypatch):
        # The jump is clamped to max_phases + 1, so the cap fires at the
        # same point as the naive walk even when the next start phase
        # lies far beyond it.
        work = Workload(grid4, [BFS(0)])
        fast = run_delayed_phases(work, [50], max_phases=10)
        naive_walk(monkeypatch)
        naive = run_delayed_phases(work, [50], max_phases=10)
        assert_executions_identical(fast, naive)
        assert fast.truncated

    def test_num_phases_accounting_spans_the_skip(self, path10):
        work = Workload(path10, [PathToken(list(range(10)), token=1)])
        execution = run_delayed_phases(work, [60])
        assert execution.num_phases == 60 + 9


class TestSkipTelemetry:
    def test_skipped_phases_counter(self, grid4):
        work = Workload(grid4, [BFS(0), BFS(15)])
        recorder = InMemoryRecorder()
        run_delayed_phases(work, [0, 40], recorder=recorder)
        skipped = recorder.metrics.counters.get("phase.skipped_phases", 0)
        assert skipped > 0

    def test_no_counter_without_skipping(self, grid4):
        work = Workload(grid4, [BFS(0), BFS(15)])
        recorder = InMemoryRecorder()
        run_delayed_phases(work, [0, 0], recorder=recorder)
        assert "phase.skipped_phases" not in recorder.metrics.counters

    def test_naive_walk_never_skips(self, grid4, monkeypatch):
        work = Workload(grid4, [BFS(0), BFS(15)])
        recorder = InMemoryRecorder()
        naive_walk(monkeypatch)
        run_delayed_phases(work, [0, 40], recorder=recorder)
        assert "phase.skipped_phases" not in recorder.metrics.counters


class TestClusterEngineStaggeredDelays:
    def test_large_staggered_delays_still_verify(self, grid6):
        from repro.clustering import build_clustering
        from repro.core import run_cluster_copies
        from repro.experiments import mixed_workload

        work = mixed_workload(grid6, 4, hops=3, seed=9)
        clustering = build_clustering(
            grid6, radius_scale=2 * work.params().dilation,
            num_layers=16, seed=5,
        )
        recorder = InMemoryRecorder()
        execution = run_cluster_copies(
            work,
            clustering,
            lambda layer, center, aid: 20 + 10 * aid,
            recorder=recorder,
        )
        assert verify_outputs(work, execution.outputs) == []
        # The delay-staggered starts leave silent big-rounds to skip.
        assert recorder.metrics.counters.get("cluster.skipped_rounds", 0) > 0


class TestClusterEngineIdentity:
    """The cluster engine's fast-forward against its naive walk."""

    @pytest.mark.parametrize(
        "plan, cap",
        [
            (None, None),
            (
                FaultPlan(seed=3, drop=0.1, delay=0.15, duplicate=0.1,
                          max_extra_delay=2, crashes=(NodeCrash(14, 3),)),
                None,
            ),
            (None, 45),
        ],
        ids=["fault-free", "faults", "binding-cap"],
    )
    def test_fast_forward_matches_naive_walk(self, grid6, monkeypatch, plan, cap):
        work = _workload(grid6)
        clustering = build_clustering(grid6, 12, 3, seed=1)

        def run(recorder):
            return run_cluster_copies(
                work, clustering, lambda layer, center, aid: 30 * aid,
                max_big_rounds=cap, recorder=recorder,
                injector=plan.injector() if plan else NULL_INJECTOR,
            )

        recorder = InMemoryRecorder()
        fast = run(recorder)
        assert recorder.metrics.counters["cluster.skipped_rounds"] > 0
        naive_walk(monkeypatch)
        recorder = InMemoryRecorder()
        naive = run(recorder)
        assert "cluster.skipped_rounds" not in recorder.metrics.counters
        assert fast == naive
        assert fast.truncated == (cap is not None)
