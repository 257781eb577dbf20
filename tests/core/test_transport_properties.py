"""Hypothesis sweep: reference vs numpy transport on randomized workloads.

``test_transport_identity.py`` pins the bit-identity contract on a
handful of hand-picked cases; this file lets hypothesis hunt for a
(topology × algorithm mix × fault plan × seed) combination where the
struct-of-arrays backend diverges from the object-per-message golden
reference — the same two-leg golden-comparison shape bench_e18 uses for
the fast-forward engine. Any divergence (outputs, trace events, derived
load indices, bit accounting, schedule reports) is a bug by definition.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

from repro.algorithms import BFS, Flooding, HopBroadcast, LubyMIS, PushGossip
from repro.congest import topology
from repro.congest.simulator import solo_run
from repro.core import RandomDelayScheduler, Workload
from repro.faults import FaultPlan

pytest.importorskip("numpy")

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

networks = st.one_of(
    st.builds(topology.grid_graph, st.integers(2, 5), st.integers(2, 5)),
    st.builds(topology.torus_graph, st.integers(3, 5), st.integers(3, 5)),
    st.builds(topology.cycle_graph, st.integers(3, 16)),
    st.builds(topology.binary_tree, st.integers(2, 4)),
    st.builds(
        topology.random_regular,
        st.sampled_from([8, 12, 16]),
        st.sampled_from([3, 4]),
        st.integers(0, 50),
    ),
)


def _algorithm(network, kind, index):
    nodes = list(network.nodes)
    node = nodes[index % len(nodes)]
    if kind == "bfs":
        return BFS(node, hops=3)
    if kind == "broadcast":
        return HopBroadcast(node, 700 + index, 3)
    if kind == "flood":
        return Flooding(node, f"t{index}")
    if kind == "mis":
        return LubyMIS(network.num_nodes)
    return PushGossip(node, rounds=5)


algorithm_kinds = st.lists(
    st.sampled_from(["bfs", "broadcast", "flood", "mis", "gossip"]),
    min_size=1,
    max_size=4,
)

fault_plans = st.one_of(
    st.none(),
    st.builds(
        FaultPlan,
        seed=st.integers(0, 100),
        drop=st.floats(0.0, 0.3),
        duplicate=st.floats(0.0, 0.2),
        delay=st.floats(0.0, 0.2),
        max_extra_delay=st.integers(1, 3),
    ),
)

_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _assert_traces_identical(ref, vec):
    assert list(vec.events()) == list(ref.events())
    assert vec.num_messages == ref.num_messages
    assert vec.last_round == ref.last_round
    assert vec.directed_loads() == ref.directed_loads()
    assert vec.edge_rounds() == ref.edge_rounds()
    assert vec.edge_round_counts() == ref.edge_round_counts()
    assert vec.max_edge_rounds() == ref.max_edge_rounds()


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@settings(**_SETTINGS)
@given(
    network=networks,
    kinds=algorithm_kinds,
    plan=fault_plans,
    seed=st.integers(0, 1000),
)
def test_solo_runs_bit_identical(network, kinds, plan, seed):
    algorithm = _algorithm(network, kinds[0], seed)
    runs = {}
    for name in ("reference", "numpy"):
        kwargs = {"transport": name}
        if plan is not None:
            kwargs["injector"] = plan.injector()
        # The algorithm's own bound, passed as a budget: a faulted run
        # that never halts is cut there instead of raising.
        runs[name] = solo_run(
            network, algorithm, seed=seed,
            max_rounds=algorithm.max_rounds(network), **kwargs
        )
    ref, vec = runs["reference"], runs["numpy"]
    assert vec.outputs == ref.outputs
    assert vec.rounds == ref.rounds
    assert vec.completion_round == ref.completion_round
    assert vec.truncated == ref.truncated
    assert vec.max_message_bits == ref.max_message_bits
    _assert_traces_identical(ref.trace, vec.trace)


@settings(**_SETTINGS)
@given(
    network=networks,
    kinds=algorithm_kinds,
    seed=st.integers(0, 1000),
)
def test_scheduled_runs_bit_identical(network, kinds, seed):
    algorithms = [
        _algorithm(network, kind, seed + i) for i, kind in enumerate(kinds)
    ]
    results = {}
    for name in ("reference", "numpy"):
        # No solo cache: a shared one would hand the numpy leg the
        # reference leg's solo runs.
        workload = Workload(
            network, list(algorithms), solo_cache=None, transport=name
        )
        results[name] = RandomDelayScheduler().run(workload, seed=seed)
    ref, vec = results["reference"], results["numpy"]
    assert vec.outputs == ref.outputs
    assert vec.mismatches == ref.mismatches
    assert vec.report.length_rounds == ref.report.length_rounds
    assert vec.report.messages_sent == ref.report.messages_sent
    assert vec.report.load_histogram == ref.report.load_histogram
    assert vec.report.max_phase_load == ref.report.max_phase_load
