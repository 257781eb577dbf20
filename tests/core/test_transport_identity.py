"""The transport contract: every backend is bit-identical to the reference.

The :class:`~repro.core.transport.Transport` seam splits message
movement from scheduling decisions; the object-per-message
``ReferenceTransport`` is the golden semantics and the numpy
struct-of-arrays backend must reproduce it exactly — outputs, trace
events and every derived index, load histograms, fault fates and
``max_message_bits``. These tests pin that contract deterministically
(the hypothesis sweep lives in ``test_transport_properties.py``) and
cover backend resolution. Every scheduled leg builds its workload with
``solo_cache=None``: the cache ignores the transport, so a shared one
would hand the numpy leg the reference leg's solo runs.
"""

import inspect
import pickle
import random

import numpy
import pytest

from repro.algorithms import BFS, Flooding, HopBroadcast, LubyMIS, PushGossip
from repro.clustering.distributed import run_distributed_clustering
from repro.congest import topology
from repro.congest.program import Broadcast
from repro.congest.simulator import Simulator
from repro.core import (
    EagerScheduler,
    PrivateScheduler,
    RandomDelayScheduler,
    RoundRobinScheduler,
    ScheduleArtifact,
    Scheduler,
    SequentialScheduler,
    Workload,
    execute_with_delays,
    run_cluster_copies,
    run_delayed_phases,
)
from repro.core import transport as transport_module
from repro.core.transport import (
    REFERENCE_TRANSPORT,
    ReferenceSoloChannel,
    Transport,
    resolve_transport,
)
from repro.core.transport_numpy import (
    NUMPY_MIN_MESSAGES,
    ArrayTrace,
    NumpySoloChannel,
    NumpyTransport,
)
from repro.faults import NULL_INJECTOR, FaultPlan

BACKENDS = ("reference", "numpy")


def _networks():
    return [
        topology.grid_graph(5, 6),
        topology.torus_graph(4, 4),
        topology.random_regular(18, 4, seed=3),
    ]


def _algorithms(network):
    nodes = list(network.nodes)
    return [
        BFS(nodes[0], hops=4),
        HopBroadcast(nodes[-1], 901, 3),
        Flooding(nodes[len(nodes) // 2], "tok"),
        LubyMIS(network.num_nodes),
        PushGossip(nodes[1], rounds=6),
    ]


def _solo(network, algorithm, transport, **kwargs):
    sim = Simulator(network, transport=transport, **kwargs)
    return sim.run(algorithm, seed=11)


def _assert_runs_identical(ref, vec):
    assert vec.outputs == ref.outputs
    assert vec.rounds == ref.rounds
    assert vec.completion_round == ref.completion_round
    assert vec.max_message_bits == ref.max_message_bits
    assert vec.truncated == ref.truncated
    _assert_traces_identical(ref.trace, vec.trace)


def _assert_traces_identical(ref_trace, vec_trace):
    assert vec_trace.num_messages == ref_trace.num_messages
    assert vec_trace.last_round == ref_trace.last_round
    assert list(vec_trace.events()) == list(ref_trace.events())
    assert vec_trace.directed_loads() == ref_trace.directed_loads()
    assert vec_trace.edge_rounds() == ref_trace.edge_rounds()
    assert vec_trace.edge_round_counts() == ref_trace.edge_round_counts()
    assert vec_trace.max_edge_rounds() == ref_trace.max_edge_rounds()
    for round_index in range(ref_trace.last_round + 2):
        assert vec_trace.events_at(round_index) == ref_trace.events_at(
            round_index
        )


class TestSoloIdentity:
    @pytest.mark.parametrize("net_index", range(3))
    def test_every_algorithm_every_topology(self, net_index):
        network = _networks()[net_index]
        for algorithm in _algorithms(network):
            ref = _solo(network, algorithm, "reference")
            vec = _solo(network, algorithm, "numpy")
            _assert_runs_identical(ref, vec)

    def test_unlimited_message_bits(self):
        network = topology.grid_graph(4, 5)
        algorithm = HopBroadcast(0, 42, 4)
        ref = _solo(network, algorithm, "reference", message_bits=None)
        vec = _solo(network, algorithm, "numpy", message_bits=None)
        _assert_runs_identical(ref, vec)

    def test_pickle_round_trip_preserves_identity(self):
        """The vectorized trace serializes to the same queryable state
        (the solo cache and the service registry pickle SoloRuns)."""
        network = topology.torus_graph(4, 5)
        ref = _solo(network, BFS(0, hops=5), "reference")
        vec = pickle.loads(
            pickle.dumps(_solo(network, BFS(0, hops=5), "numpy"))
        )
        _assert_runs_identical(ref, vec)

    def test_faulted_channels_are_the_reference(self):
        """Under a live injector the numpy backend hands out the reference
        channels (the documented fallback), so a faulted run is identical
        by construction; comparing two such runs would compare the
        reference with itself."""
        numpy_transport = resolve_transport("numpy")
        reference = transport_module.ReferenceTransport()
        injector = FaultPlan.message_drop(0.15, seed=4).injector()
        assert injector.enabled
        channels = {
            "solo_channel": (injector, "a0"),
            "phase_channel": (3, injector),
        }
        assert set(channels) == {name for name in vars(Transport) if name.endswith("_channel")}
        for name, args in channels.items():
            made = getattr(numpy_transport, name)(*args)
            assert type(made) is type(getattr(reference, name)(*args)), name


def _mixed_traces(count):
    """``(reference, numpy)`` solo-channel traces of exactly ``count``
    messages: rounds of six senders on a 6x6 torus, each pushing a
    broadcast or individual sends to some of its neighbours."""
    network = topology.torus_graph(6, 6)
    rng = random.Random(count)
    ref = ReferenceSoloChannel(NULL_INJECTOR, "a0")
    vec = NumpySoloChannel()
    left, round_index = count, 1
    while left:
        for sender in rng.sample(list(network.nodes), 6):
            neighbors = network.neighbors(sender)
            if rng.random() < 0.5 and len(neighbors) <= left:
                outbox = Broadcast(("b", round_index), neighbors)
            else:
                picked = rng.sample(neighbors, rng.randint(1, min(left, len(neighbors))))
                outbox = [(receiver, ("s", sender)) for receiver in picked]
            ref.push(sender, list(outbox), round_index)
            vec.push(sender, outbox, round_index)
            left -= len(outbox)
            if not left:
                break
        ref.deliver(round_index)
        vec.deliver(round_index)
        round_index += 1
    return ref.finalize(), vec.finalize()


def _refuse(*args, **kwargs):
    raise AssertionError("numpy called on a run below NUMPY_MIN_MESSAGES")


class TestTraceIndexBySize:
    """``ArrayTrace`` counts per-edge rounds by a walk of its columns
    below ``NUMPY_MIN_MESSAGES`` messages and with numpy kernels from
    there up; every index query answers exactly as the reference trace
    does on both sides."""

    N = NUMPY_MIN_MESSAGES

    @pytest.mark.parametrize("count", [0, 1, N - 1, N, N + 1, 3 * N])
    def test_every_query_on_both_sides(self, count, monkeypatch):
        ref, vec = _mixed_traces(count)
        assert type(vec) is ArrayTrace and vec.num_messages == count
        with monkeypatch.context() as patch:
            if count < NUMPY_MIN_MESSAGES:
                patch.setattr(numpy, "unique", _refuse)
                patch.setattr(numpy, "fromiter", _refuse)
            assert vec.edge_round_counts() == ref.edge_round_counts()
            assert vec.max_edge_rounds() == ref.max_edge_rounds()
        _assert_traces_identical(ref, vec)
        # A second query answers from the cached index, as a fresh copy.
        vec.edge_round_counts().clear()
        assert vec.edge_round_counts() == ref.edge_round_counts()


class TestSmallRunsSkipNumpy:
    """A run of ``scenario_mix``'s size (n <= 60) needs no numpy call:
    every phase fold, big-round fold and trace index it makes is below
    the size where numpy's fixed cost pays off."""

    SCHEDULERS = (
        "sequential",
        "round-robin",
        "random-delay",
        "sparse-phase",
        "doubling",
        "private",
    )

    def test_all_six_schedulers_complete_without_numpy(self, monkeypatch):
        from repro.fuzz.scenario import ScenarioGenerator
        from repro.service.specs import parse_scheduler

        generator = ScenarioGenerator(0)
        scenario = next(
            s for s in map(generator.generate, range(50))
            if s.faults is None and len(s.algorithms) > 2
        )
        built = scenario.build()
        assert built.network.num_nodes <= 60
        expected = {}
        for name in self.SCHEDULERS:
            workload = Workload(
                built.network, list(built.algorithms),
                master_seed=scenario.master_seed, solo_cache=None,
                transport="reference",
            )
            expected[name] = parse_scheduler(name).run(
                workload, seed=scenario.schedule_seed
            )

        monkeypatch.setattr(numpy, "unique", _refuse)
        monkeypatch.setattr(numpy, "fromiter", _refuse)
        for name in self.SCHEDULERS:
            workload = Workload(
                built.network, list(built.algorithms),
                master_seed=scenario.master_seed, solo_cache=None,
                transport="numpy",
            )
            result = parse_scheduler(name).run(
                workload, seed=scenario.schedule_seed
            )
            assert not result.mismatches, name
            assert result.outputs == expected[name].outputs, name
            assert result.report.length_rounds == expected[name].report.length_rounds
            assert result.report.load_histogram == expected[name].report.load_histogram


class TestSchedulerIdentity:
    @pytest.mark.parametrize(
        "scheduler_cls",
        [RandomDelayScheduler, RoundRobinScheduler, PrivateScheduler,
         EagerScheduler],
    )
    def test_report_identical_across_backends(self, scheduler_cls):
        network = topology.grid_graph(5, 5)
        results = {}
        for name in BACKENDS:
            workload = Workload(
                network, _algorithms(network)[:3], solo_cache=None,
                transport=name,
            )
            results[name] = scheduler_cls().run(workload, seed=7)
        ref, vec = results["reference"], results["numpy"]
        assert not ref.mismatches and not vec.mismatches
        assert vec.outputs == ref.outputs
        assert vec.report.length_rounds == ref.report.length_rounds
        assert vec.report.messages_sent == ref.report.messages_sent
        assert vec.report.load_histogram == ref.report.load_histogram
        assert vec.report.max_phase_load == ref.report.max_phase_load


class TestResolution:
    def test_available_includes_both(self):
        """numpy is a declared dependency: both backends always resolve,
        to distinct instances, with no fallback between them."""
        resolved = {name: resolve_transport(name) for name in BACKENDS}
        assert {name: t.name for name, t in resolved.items()} == {
            name: name for name in BACKENDS
        }
        assert resolved["reference"] is not resolved["numpy"]
        assert isinstance(resolved["numpy"], NumpyTransport)

    def test_names(self):
        assert resolve_transport("reference") is REFERENCE_TRANSPORT
        assert resolve_transport("numpy").name == "numpy"
        assert resolve_transport("auto").name == "numpy"
        assert resolve_transport(None).name == "numpy"

    def test_instance_passthrough(self):
        instance = resolve_transport("numpy")
        assert resolve_transport(instance) is instance

    def test_env_variable(self, monkeypatch):
        """The environment has no say: only the workload picks."""
        monkeypatch.setenv("REPRO_TRANSPORT", "reference")
        assert resolve_transport(None).name == "numpy"
        assert Simulator(topology.grid_graph(2, 2)).transport.name == "numpy"

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown transport"):
            resolve_transport("cuda")
        with pytest.raises(ValueError, match="transport must be"):
            resolve_transport(42)

    def test_transport_base_is_abstract(self):
        base = Transport()
        with pytest.raises(NotImplementedError):
            base.solo_channel(None, "a0")


class TestWorkloadPicksTransport:
    """``Workload.transport`` is the one holder of the backend choice:
    no engine or scheduler carries its own, and the workload's backend
    builds every solo and phase channel of a scheduled run."""

    @pytest.mark.parametrize(
        "engine",
        [run_delayed_phases, run_cluster_copies, execute_with_delays,
         ScheduleArtifact.replay, run_distributed_clustering,
         EagerScheduler],
        ids=lambda engine: engine.__qualname__,
    )
    def test_engines_take_no_transport_argument(self, engine):
        assert "transport" not in inspect.signature(engine).parameters

    def test_a_budget_is_the_only_run_control(self):
        # Past a passed cap the run truncates; without one the engine's
        # own bound raises. No engine takes a mode for it, and the
        # naive walk lives only in ``run_copies(fast_forward=False)``.
        from repro.congest.simulator import solo_run

        for engine in (Simulator.run, solo_run, run_delayed_phases,
                       run_cluster_copies, execute_with_delays):
            parameters = inspect.signature(engine).parameters
            assert "on_limit" not in parameters, engine.__qualname__
        assert "fast_forward" not in inspect.signature(
            run_delayed_phases
        ).parameters

    def test_schedulers_carry_no_transport(self):
        assert not hasattr(Scheduler, "with_transport")
        for scheduler_cls in (RandomDelayScheduler, RoundRobinScheduler,
                              PrivateScheduler, EagerScheduler,
                              SequentialScheduler):
            assert not hasattr(scheduler_cls(), "transport"), scheduler_cls

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_workload_backend_builds_every_channel(self, backend, monkeypatch):
        built = []
        for transport_cls in (transport_module.ReferenceTransport,
                              NumpyTransport):
            for method in ("solo_channel", "phase_channel"):
                original = getattr(transport_cls, method)

                def record(self, *args, _original=original, _method=method):
                    built.append((self.name, _method))
                    return _original(self, *args)

                monkeypatch.setattr(transport_cls, method, record)

        network = topology.grid_graph(5, 5)
        for scheduler_cls in (RandomDelayScheduler, PrivateScheduler,
                              SequentialScheduler):
            workload = Workload(
                network, _algorithms(network)[:3], solo_cache=None,
                transport=backend,
            )
            result = scheduler_cls().run(workload, seed=7)
            assert not result.mismatches, scheduler_cls
        assert {method for _, method in built} == {
            "solo_channel", "phase_channel"
        }
        assert {name for name, _ in built} == {backend}
