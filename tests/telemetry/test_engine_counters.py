"""Uniform engine counters in recorded reports (satellite of repro.service).

Every recorded :class:`~repro.metrics.schedule.ScheduleReport` surfaces
the well-known engine counters — ``sim.late_deliveries``,
``sim.skipped_rounds``, ``phase.skipped_phases``,
``cluster.skipped_rounds``, the stepping pair
``<engine>.host_steps`` / ``<engine>.idle_skips``, the cluster copies'
``cluster.hosts_built`` and the stepper count ``<engine>.wave_groups`` —
zero-filled when the engine didn't emit them, so downstream aggregation
never special-cases which engine ran.
"""

import pytest

from repro.algorithms import BFS, HopBroadcast
from repro.congest import topology
from repro.core import (
    PrivateScheduler,
    RandomDelayScheduler,
    SequentialScheduler,
    Workload,
)
from repro.metrics.schedule import ENGINE_COUNTERS
from repro.telemetry import InMemoryRecorder


@pytest.fixture()
def workload():
    net = topology.grid_graph(5, 5)
    return Workload(net, [BFS(0, hops=3), HopBroadcast(7, 42, 3)])


@pytest.mark.parametrize(
    "scheduler_factory",
    [SequentialScheduler, RandomDelayScheduler, PrivateScheduler],
)
class TestUniformSurface:
    def test_all_engine_counters_present(self, workload, scheduler_factory):
        scheduler = scheduler_factory().with_recorder(InMemoryRecorder())
        report = scheduler.run(workload, seed=1).report
        counters = report.telemetry["counters"]
        for name in ENGINE_COUNTERS:
            assert name in counters, name

    def test_engine_counters_accessor(self, workload, scheduler_factory):
        scheduler = scheduler_factory().with_recorder(InMemoryRecorder())
        report = scheduler.run(workload, seed=1).report
        engines = report.engine_counters()
        assert set(engines) == set(ENGINE_COUNTERS)
        assert all(value >= 0.0 for value in engines.values())


class TestEdgeCases:
    def test_unrecorded_report_engine_counters_are_zero(self, workload):
        report = SequentialScheduler().run(workload, seed=1).report
        assert report.telemetry is None
        assert report.engine_counters() == {
            name: 0.0 for name in ENGINE_COUNTERS
        }

    def test_resilient_failure_report_still_surfaces(self, workload):
        from repro.core import Scheduler
        from repro.errors import ScheduleError

        class Dying(Scheduler):
            name = "dying"

            def run(self, workload, seed=0):
                raise ScheduleError("dead on arrival", round=0)

        scheduler = Dying().with_recorder(InMemoryRecorder())
        result = scheduler.run_resilient(workload, seed=1)
        assert result.failure is not None
        counters = result.report.telemetry["counters"]
        for name in ENGINE_COUNTERS:
            assert counters[name] == 0.0

    def test_real_emissions_not_clobbered(self):
        # fast-forward on a sparse workload emits sim.skipped_rounds > 0;
        # zero-filling must keep the measured value
        net = topology.path_graph(24)
        workload = Workload(
            net, [BFS(0, hops=2), HopBroadcast(23, 5, 2)]
        )
        scheduler = SequentialScheduler().with_recorder(InMemoryRecorder())
        report = scheduler.run(workload, seed=1).report
        engines = report.engine_counters()
        assert engines["sim.skipped_rounds"] >= 0.0
        raw = report.telemetry["counters"].get("sim.skipped_rounds", 0.0)
        assert engines["sim.skipped_rounds"] == raw


class TestSteppingCounters:
    """``host_steps`` + ``idle_skips`` = the live-host × round slots an
    engine walked; the split says how many of them actually ran."""

    @pytest.mark.parametrize(
        "scheduler_factory, engine",
        [(RandomDelayScheduler, "phase"), (PrivateScheduler, "cluster")],
    )
    def test_only_the_engine_that_ran_reports(
        self, workload, scheduler_factory, engine, object_path
    ):
        scheduler = scheduler_factory().with_recorder(InMemoryRecorder())
        engines = scheduler.run(workload, seed=1).report.engine_counters()
        assert engines[f"{engine}.host_steps"] > 0
        # BFS and HopBroadcast nodes wait for the wave: most slots idle
        assert engines[f"{engine}.idle_skips"] > engines[f"{engine}.host_steps"]
        other = "cluster" if engine == "phase" else "phase"
        assert engines[f"{other}.host_steps"] == 0.0
        # only the cluster copies count the hosts they build
        assert (engines["cluster.hosts_built"] > 0) == (engine == "cluster")

    def test_solo_simulator_reports_its_slots(self):
        from repro.congest import Simulator

        recorder = InMemoryRecorder()
        net = topology.path_graph(6)
        Simulator(net, recorder=recorder).run(BFS(0, hops=5))
        counters = recorder.snapshot()["counters"]
        # node v halts in round v: 5 steps, and 4+3+2+1 idle waits
        assert counters["sim.host_steps"] == 5
        assert counters["sim.idle_skips"] == 10


class TestWaveGroupCounters:
    """``<engine>.wave_groups`` says which stepper ran each copy."""

    @pytest.mark.parametrize(
        "scheduler_factory, engine",
        [(RandomDelayScheduler, "phase"), (PrivateScheduler, "cluster")],
    )
    def test_every_bfs_and_broadcast_copy_is_a_wave(
        self, workload, scheduler_factory, engine
    ):
        scheduler = scheduler_factory().with_recorder(InMemoryRecorder())
        report = scheduler.run(workload, seed=1).report
        engines = report.engine_counters()
        groups = report.notes.get("step_groups", workload.num_algorithms)
        assert engines[f"{engine}.wave_groups"] == groups
        assert engines["cluster.hosts_built"] == 0
