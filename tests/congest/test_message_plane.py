"""The solo message plane: one size per message, no garbage per push.

A payload is sized where it is sent — :meth:`NodeContext.send` /
:meth:`NodeContext.send_all` call ``check_payload`` once and keep the
running maximum — and neither transport looks at it again;
``SoloRun.max_message_bits`` is :meth:`HostGroup.max_bits` over the
contexts. A push leaves no object of its own behind: the numpy channel
buffers a round as two parallel lists and :class:`ArrayTrace` stores a
round's run-length senders as two int columns. These tests pin the
counts (sizings per send, surviving objects per node-round), the values
(``max_message_bits`` across transports, faults and budgets) and the
pickled shape, old and new.
"""

import gc
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algorithms import Flooding
from repro.congest import message as message_module
from repro.congest import program as program_module
from repro.congest import topology
from repro.congest.message import payload_bits
from repro.congest.program import Algorithm, HostGroup, NodeContext, NodeProgram
from repro.congest.simulator import Simulator
from repro.congest.trace import ExecutionTrace
from repro.core import transport as transport_module
from repro.core import transport_numpy
from repro.core.transport import resolve_transport
from repro.core.transport_numpy import ArrayTrace
from repro.errors import BandwidthViolation
from repro.faults import NULL_INJECTOR, FaultPlan

BACKENDS = ("reference", "numpy")
FAULTS = (None, FaultPlan(seed=4, drop=0.15, duplicate=0.1, delay=0.1))


def _transport_modules():
    return [transport_module, transport_numpy]


def _injector(plan):
    return NULL_INJECTOR if plan is None else plan.injector()


class _Chatter(Algorithm):
    """Every node talks for ``rounds`` rounds whatever it hears:
    ``send_all`` on even rounds, one ``send`` per neighbour on odd ones,
    over payloads of every supported shape. ``sent`` logs one payload
    per ``send`` / ``send_all`` *call*, across all nodes."""

    def __init__(self, rounds):
        self.rounds = rounds
        self.sent = []

    @staticmethod
    def _payload(node, round_index):
        return (
            (node, round_index),
            ("tok", node << round_index, -round_index),
            ((node,), (), round_index == 2, None),
            [node, [2.5, b"ab"]],
            -node,
        )[(node + round_index) % 5]

    def make_program(self, node, ctx):
        algorithm = self

        class _Program(NodeProgram):
            def _talk(self, c):
                payload = algorithm._payload(c.node, c.round)
                if c.round % 2 == 0:
                    algorithm.sent.append(payload)
                    c.send_all(payload)
                else:
                    for neighbor in c.neighbors:
                        algorithm.sent.append(payload)
                        c.send(neighbor, payload)

            def on_start(self, c):
                self._talk(c)

            def on_round(self, c, inbox):
                if c.round >= algorithm.rounds:
                    self.halt()
                    return
                self._talk(c)

        return _Program()

    def max_rounds(self, network):
        return self.rounds + 8


class _Multicast(Algorithm):
    """Every node floods every round (the ledger's ``solo_torus`` shape)."""

    def __init__(self, rounds):
        self.rounds = rounds

    def make_program(self, node, ctx):
        rounds = self.rounds

        class _Program(NodeProgram):
            def on_start(self, c):
                c.send_all((7, 0))

            def on_round(self, c, inbox):
                if c.round >= rounds:
                    self.halt()
                    return
                c.send_all((7, len(inbox) & 1))

        return _Program()


class _OneBadSend(Algorithm):
    """Node 0 sends ``payload`` to everyone at start; everyone halts."""

    def __init__(self, payload):
        self.payload = payload

    def make_program(self, node, ctx):
        payload = self.payload

        class _Program(NodeProgram):
            def on_start(self, c):
                if c.node == 0:
                    c.send_all(payload)

            def on_round(self, c, inbox):
                self.halt()

        return _Program()


class _TopLevelCounter:
    """``payload_bits`` with its outermost calls counted (the recursion
    into a tuple's items goes through the same module global)."""

    def __init__(self, real):
        self.real = real
        self.depth = 0
        self.top_level = 0

    def __call__(self, payload):
        if self.depth == 0:
            self.top_level += 1
        self.depth += 1
        try:
            return self.real(payload)
        finally:
            self.depth -= 1


class TestOneSizePerMessage:
    def test_transports_do_not_import_the_sizer(self):
        for module in _transport_modules():
            assert not hasattr(module, "payload_bits"), module.__name__

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("plan", FAULTS, ids=("fault-free", "faulted"))
    def test_payload_bits_runs_once_per_send_call(self, monkeypatch, backend, plan):
        counter = _TopLevelCounter(message_module.payload_bits)
        # Wherever the name lives, so that a transport sizing payloads
        # again is counted too.
        for module in [message_module, *_transport_modules()]:
            if hasattr(module, "payload_bits"):
                monkeypatch.setattr(module, "payload_bits", counter)
        algorithm = _Chatter(rounds=6)
        network = topology.torus_graph(4, 4)
        Simulator(network, transport=backend, injector=_injector(plan)).run(
            algorithm, seed=3
        )
        assert algorithm.sent
        assert counter.top_level == len(algorithm.sent)

    def test_a_mixed_round_sizes_once_per_call(self, monkeypatch):
        # send_all after a send checks every neighbour for a duplicate but
        # sizes its payload once, not once per neighbour.
        calls = []

        def counting(payload, budget=None):
            calls.append(payload)
            return message_module.check_payload(payload, budget)

        monkeypatch.setattr(program_module, "check_payload", counting)
        ctx = NodeContext(0, topology.star_graph(5), 0, message_bits=64)
        ctx.send(4, "one")
        with pytest.raises(BandwidthViolation, match="node 0 sent twice to 4"):
            ctx.send_all("all")
        assert calls == ["one", "all"]
        assert ctx._drain() == [(4, "one"), (1, "all"), (2, "all"), (3, "all")]

    def test_max_message_bits_is_the_senders_own_maximum(self):
        network = topology.torus_graph(4, 4)
        seen = set()
        for backend in BACKENDS:
            for plan in FAULTS:
                for message_bits in (-1, None):
                    algorithm = _Chatter(rounds=6)
                    run = Simulator(
                        network,
                        message_bits=message_bits,
                        transport=backend,
                        injector=_injector(plan),
                    ).run(algorithm, seed=3)
                    assert run.max_message_bits == max(
                        payload_bits(payload) for payload in algorithm.sent
                    )
                    seen.add(run.max_message_bits)
        assert len(seen) == 1

    def test_silent_run_reports_zero(self):
        network = topology.path_graph(3)
        group = HostGroup(_OneBadSend(()), [1, 2], network, 0, "a")
        assert group.max_bits() == 0  # before start
        assert list(group.start()) == []
        assert group.max_bits() == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("message_bits", (-1, None), ids=("budget", "no-budget"))
    def test_unsupported_payload_raises(self, backend, message_bits):
        sim = Simulator(
            topology.path_graph(3), message_bits=message_bits, transport=backend
        )
        with pytest.raises(BandwidthViolation) as raised:
            sim.run(_OneBadSend({1, 2}), seed=0)
        assert str(raised.value).startswith(
            "unsupported payload type set; "
            "send flat tuples of ints/floats/strings"
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_oversized_payload(self, backend):
        network = topology.path_graph(3)
        payload = "x" * 100
        sim = Simulator(network, transport=backend)
        with pytest.raises(BandwidthViolation) as raised:
            sim.run(_OneBadSend(payload), seed=0)
        assert str(raised.value).startswith(
            f"payload of 800 bits exceeds per-message budget of "
            f"{sim.message_bits} bits"
        )
        # No budget: nothing to exceed, and the size is reported.
        run = Simulator(network, message_bits=None, transport=backend).run(
            _OneBadSend(payload), seed=0
        )
        assert run.max_message_bits == 800


# -- the sizer's exact-int fast path ----------------------------------------


class _Id(int):
    """An int subclass (misses the exact-type dispatch)."""


def _reference_bits(payload):
    """``payload_bits`` as it was before the fast path: one recursive
    call and two framing bits per sequence item."""
    if payload is None or isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return max(1, payload.bit_length()) + 1
    if isinstance(payload, float):
        return 64
    if isinstance(payload, (str, bytes)):
        return 8 * len(payload)
    total = 0
    for item in payload:
        total += _reference_bits(item) + 2
    return total


_LEAVES = st.one_of(
    st.integers(-(1 << 70), 1 << 70),
    st.sampled_from([0, -1, 1, True, False, None]),
    st.integers(-1000, 1000).map(_Id),
    st.floats(allow_nan=False),
    st.text(max_size=4),
    st.binary(max_size=4),
)


@given(
    st.recursive(
        _LEAVES,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
        ),
        max_leaves=12,
    )
)
def test_sizer_matches_the_recursive_definition(payload):
    assert payload_bits(payload) == _reference_bits(payload)


# -- the trace's int columns -------------------------------------------------

_COLUMNS = ("_round_senders", "_round_counts", "_round_receivers")


def _flood_trace():
    network = topology.torus_graph(4, 4)
    run = Simulator(network, transport="numpy").run(Flooding(5, "tok"), seed=1)
    assert type(run.trace) is ArrayTrace and run.trace.num_messages
    return run.trace


def _assert_same_queries(trace, expected):
    assert trace.num_messages == expected.num_messages
    assert trace.last_round == expected.last_round
    assert list(trace.events()) == list(expected.events())
    assert trace.directed_loads() == expected.directed_loads()
    assert trace.edge_rounds() == expected.edge_rounds()
    assert trace.edge_round_counts() == expected.edge_round_counts()
    assert trace.max_edge_rounds() == expected.max_edge_rounds()
    for round_index in range(expected.last_round + 2):
        assert trace.events_at(round_index) == expected.events_at(round_index)


def _blank_array_trace():
    return ArrayTrace.__new__(ArrayTrace)


class _OldShapePickle:
    """Unpickles as an :class:`ArrayTrace` written before the int
    columns: a blank instance handed (``__setstate__``) a state whose
    ``_round_sender_runs`` holds each round as ``[(sender, count), ...]``."""

    def __init__(self, trace):
        state = trace.__getstate__()
        self.state = {
            "_round_sender_runs": [
                list(zip(senders, counts))
                for senders, counts in zip(
                    state["_round_senders"], state["_round_counts"]
                )
            ],
            "_round_receivers": state["_round_receivers"],
            "_num_messages": state["_num_messages"],
            "_last_round": state["_last_round"],
        }

    def __reduce__(self):
        return _blank_array_trace, (), self.state


class TestIntColumns:
    def test_pickled_state_is_flat_lists_of_ints(self):
        state = _flood_trace().__getstate__()
        assert set(state) == {*_COLUMNS, "_num_messages", "_last_round"}
        for name in _COLUMNS:
            assert state[name]
            for column in state[name]:
                assert type(column) is list
                assert all(type(value) is int for value in column)

    def test_pickle_round_trip(self):
        trace = _flood_trace()
        _assert_same_queries(pickle.loads(pickle.dumps(trace)), trace)

    def test_old_shape_pickle_loads(self):
        trace = _flood_trace()
        old = _OldShapePickle(trace)
        assert all(
            type(run) is tuple for runs in old.state["_round_sender_runs"] for run in runs
        )
        loaded = pickle.loads(pickle.dumps(old, protocol=pickle.HIGHEST_PROTOCOL))
        assert type(loaded) is ArrayTrace
        _assert_same_queries(loaded, trace)
        assert set(loaded.__getstate__()) == set(trace.__getstate__())

    def test_recorded_equals_adopted_equals_reference(self):
        adopted = _flood_trace()
        recorded, reference = ArrayTrace(), ExecutionTrace()
        for event in adopted.events():
            recorded.record(*event)
            reference.record(*event)
        _assert_same_queries(recorded, reference)
        _assert_same_queries(adopted, reference)
        # One run per sender of a round, however it was built.
        assert recorded.__getstate__() == adopted.__getstate__()


class TestNothingLeftBehindAPush:
    def test_flood_round_leaves_no_object_per_node(self):
        """Deliver → step → push on an 8×8 torus with the collector off:
        what survives a round is the trace's three columns and the
        round's buffer, not an object per node."""
        network = topology.torus_graph(8, 8)
        group = HostGroup(_Multicast(rounds=8), network.nodes, network, 0, "m")
        channel = resolve_transport("numpy").solo_channel(NULL_INJECTOR, "m")

        def one_round(round_index):
            deliveries = channel.deliver(round_index)
            for node, outbox in group.step(round_index, deliveries):
                channel.push(node, outbox, round_index + 1)

        for node, outbox in group.start():
            channel.push(node, outbox, 1)
        one_round(1)
        one_round(2)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            growth = []
            for round_index in (3, 4, 5):
                before = len(gc.get_objects())
                one_round(round_index)
                growth.append(len(gc.get_objects()) - before)
        finally:
            if was_enabled:
                gc.enable()
        assert channel.trace.num_messages == 5 * 4 * network.num_nodes
        for grown in growth:
            assert grown < 0.25 * network.num_nodes, growth
