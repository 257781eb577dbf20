"""The solo message plane: one size per message, no garbage per push.

A payload is sized where it is sent — :meth:`NodeContext.send` /
:meth:`NodeContext.send_all` call ``check_payload`` once and keep the
running maximum — and neither transport looks at it again;
``SoloRun.max_message_bits`` is :meth:`HostGroup.max_bits` over the
contexts. A push leaves no object of its own behind: the numpy channel
buffers a round as two parallel lists and :class:`ArrayTrace` stores a
round as three ``array('i')`` columns (run-length senders and counts,
receivers). These tests pin the counts (sizings per send, surviving
objects per node-round), the values (``max_message_bits`` across
transports, faults and budgets), the pickled shape and what unpickling
a trace allocates.
"""

import gc
import pickle
import tracemalloc
from array import array

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
from repro.core.transport_numpy import NUMPY_MIN_MESSAGES, ArrayTrace
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


# -- the trace's int32 columns -----------------------------------------------

_COLUMNS = ("_round_senders", "_round_counts", "_round_receivers")


def _solo_trace(network, algorithm):
    run = Simulator(network, transport="numpy").run(algorithm, seed=1)
    assert type(run.trace) is ArrayTrace and run.trace.num_messages
    return run.trace


def _flood_trace():
    return _solo_trace(topology.torus_graph(4, 4), Flooding(5, "tok"))


#: An adopted trace on each side of NUMPY_MIN_MESSAGES: a flood on a
#: 4×4 torus (32 messages) and a 6-round multicast on a 12×12 torus
#: (3 456 messages, above the threshold).
_TRACES = {
    "below": _flood_trace,
    "above": lambda: _solo_trace(topology.torus_graph(12, 12), _Multicast(6)),
}


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


class TestIntColumns:
    def test_pickled_state_is_int32_arrays(self):
        state = _flood_trace().__getstate__()
        assert set(state) == {*_COLUMNS, "_num_messages", "_last_round"}
        for name in _COLUMNS:
            assert state[name]
            for column in state[name]:
                assert type(column) is array and column.typecode == "i"
                assert column.itemsize == 4

    def test_pickle_round_trip(self):
        trace = _flood_trace()
        _assert_same_queries(pickle.loads(pickle.dumps(trace)), trace)

    @pytest.mark.parametrize(
        "side, batch",
        [("below", None), ("above", None), ("above", 1), ("above", 700)],
    )
    def test_recorded_equals_adopted_equals_reference(
        self, side, batch, monkeypatch
    ):
        """Adopted, recorded and unpickled traces answer every query as
        the reference does. ``batch`` shrinks the kernels' batch of
        rounds so the above-threshold trace is folded in many batches:
        one round each, or a few rounds each."""
        if batch is not None:
            monkeypatch.setattr(transport_numpy, "_BATCH_MESSAGES", batch)
        adopted = _TRACES[side]()
        assert (adopted.num_messages >= NUMPY_MIN_MESSAGES) == (side == "above")
        recorded, reference = ArrayTrace(), ExecutionTrace()
        for event in adopted.events():
            recorded.record(*event)
            reference.record(*event)
        unpickled = pickle.loads(pickle.dumps(adopted))
        for trace in (recorded, adopted, unpickled):
            _assert_same_queries(trace, reference)
        # One run per sender of a round, however it was built.
        assert recorded.__getstate__() == adopted.__getstate__()

    def test_unpickling_makes_no_object_per_message(self):
        """A 32×32 torus multicast: ids above 255, so list columns of
        Python ints unpickled one int object per message (44 bytes a
        message here). The int32 columns hold 6 bytes a message (a
        4-byte receiver, and an 8-byte sender/count run per 4-message
        broadcast); the unpickler's memo keeps each column's pickled
        bytes alive until the load returns, so the load peaks at twice
        that (12.4)."""
        trace = _solo_trace(topology.torus_graph(32, 32), _Multicast(8))
        blob = pickle.dumps(trace, protocol=pickle.HIGHEST_PROTOCOL)
        tracemalloc.start()
        try:
            loaded = pickle.loads(blob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.num_messages == trace.num_messages == 8 * 4 * 1024
        assert peak <= 13 * trace.num_messages, peak / trace.num_messages


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
