"""Property tests: the trace's incremental indices vs naive recomputation.

:class:`~repro.congest.trace.ExecutionTrace` answers its load queries
(``directed_loads``, ``edge_rounds``, ``edge_round_counts``,
``max_edge_rounds``, ``last_round``) from indices maintained while
recording. The contract is that every query returns exactly what a
naive full rescan of ``events()`` returns — these tests let hypothesis
hunt for recording interleavings (bulk rounds, empty rounds,
out-of-order rounds, fault-injected traffic) that would desynchronise
the indices.
"""

from collections import Counter, defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest import ExecutionTrace, Network, topology
from repro.congest.simulator import solo_run
from repro.algorithms import BFS, HopBroadcast
from repro.faults import FaultPlan


# ---------------------------------------------------------------------------
# the naive full-rescan reference implementations
# ---------------------------------------------------------------------------


def naive_last_round(trace: ExecutionTrace) -> int:
    return max((r for r, _, _ in trace.events()), default=0)


def naive_directed_loads(trace: ExecutionTrace) -> Counter:
    loads: Counter = Counter()
    for _, sender, receiver in trace.events():
        loads[(sender, receiver)] += 1
    return loads


def naive_edge_rounds(trace: ExecutionTrace):
    usage = defaultdict(set)
    for r, sender, receiver in trace.events():
        usage[Network.canonical_edge(sender, receiver)].add(r)
    return dict(usage)


def naive_edge_round_counts(trace: ExecutionTrace) -> Counter:
    return Counter(
        {edge: len(rounds) for edge, rounds in naive_edge_rounds(trace).items()}
    )


def naive_max_edge_rounds(trace: ExecutionTrace) -> int:
    counts = naive_edge_round_counts(trace)
    return max(counts.values()) if counts else 0


def assert_indices_match_naive(trace: ExecutionTrace) -> None:
    assert trace.last_round == naive_last_round(trace)
    assert trace.num_messages == sum(1 for _ in trace.events())
    assert trace.directed_loads() == naive_directed_loads(trace)
    assert trace.edge_rounds() == naive_edge_rounds(trace)
    assert trace.edge_round_counts() == naive_edge_round_counts(trace)
    assert trace.max_edge_rounds() == naive_max_edge_rounds(trace)


# ---------------------------------------------------------------------------
# randomized recording workloads
# ---------------------------------------------------------------------------

# One recording operation: either a single event or a bulk round
# (possibly empty — empty rounds reserve a slot without counting traffic).
_events = st.tuples(
    st.integers(1, 12),  # round
    st.integers(0, 7),   # sender
    st.integers(0, 7),   # receiver
)
_ops = st.one_of(
    _events.map(lambda e: ("record", e)),
    st.tuples(
        st.integers(1, 12),
        st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=6),
    ).map(lambda ra: ("record_round", ra)),
)


class TestRandomizedRecording:
    @settings(max_examples=200, deadline=None)
    @given(ops=st.lists(_ops, max_size=40))
    def test_indices_agree_with_full_rescan(self, ops):
        trace = ExecutionTrace()
        for kind, payload in ops:
            if kind == "record":
                r, sender, receiver = payload
                trace.record(r, sender, receiver)
            else:
                r, sends = payload
                trace.record_round(r, list(sends))
        assert_indices_match_naive(trace)

    @settings(max_examples=100, deadline=None)
    @given(ops=st.lists(_ops, max_size=20), checkpoints=st.integers(1, 5))
    def test_indices_agree_at_every_checkpoint(self, ops, checkpoints):
        """Queries interleaved with recording stay consistent (queries
        must not disturb the indices, e.g. by mutating returned copies)."""
        trace = ExecutionTrace()
        for i, (kind, payload) in enumerate(ops):
            if kind == "record":
                trace.record(*payload)
            else:
                trace.record_round(payload[0], list(payload[1]))
            if i % checkpoints == 0:
                # Mutating the returned structures must not corrupt the
                # trace's internal state.
                trace.directed_loads()[(0, 1)] += 99
                rounds = trace.edge_rounds()
                if rounds:
                    next(iter(rounds.values())).add(999)
                trace.edge_round_counts().clear()
                assert_indices_match_naive(trace)
        assert_indices_match_naive(trace)

    def test_empty_round_does_not_disturb_indices(self):
        trace = ExecutionTrace()
        trace.record_round(5, [])
        assert trace.last_round == 0
        assert trace.max_edge_rounds() == 0
        assert_indices_match_naive(trace)
        trace.record(2, 0, 1)
        trace.record_round(7, [])
        assert trace.last_round == 2
        assert_indices_match_naive(trace)


class TestSimulatedTraces:
    """Indices agree on traces produced by the real engines."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 500), hops=st.integers(1, 4))
    def test_solo_run_trace(self, seed, hops):
        net = topology.grid_graph(4, 4)
        run = solo_run(net, BFS(seed % 16, hops=hops), seed=seed)
        assert_indices_match_naive(run.trace)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 500),
        drop=st.floats(0.0, 0.4),
        delay=st.floats(0.0, 0.4),
        duplicate=st.floats(0.0, 0.4),
    )
    def test_fault_injected_trace(self, seed, drop, delay, duplicate):
        """Dropped/delayed/duplicated messages still occupy the trace;
        the indices must track them exactly like delivered ones."""
        net = topology.grid_graph(4, 4)
        plan = FaultPlan(
            seed=seed,
            drop=drop,
            delay=delay,
            duplicate=duplicate,
            max_extra_delay=3,
        )
        run = solo_run(
            net,
            HopBroadcast(seed % 16, "tok", 3),
            seed=seed,
            injector=plan.injector(),
            max_rounds=60,
        )
        assert_indices_match_naive(run.trace)
