"""Tests for :class:`HostGroup`, the one stepper behind every engine."""

import random

import pytest

from repro.algorithms import LubyMIS, PushGossip, RandomColoring
from repro.congest import Network
from repro.congest.program import (
    Algorithm,
    HostGroup,
    NodeContext,
    NodeProgram,
    ProgramHost,
)
from repro.errors import BandwidthViolation


class _Waiter(NodeProgram):
    """Node 0 pings at start; everyone else waits for ``deadline``."""

    def __init__(self, deadline, declare):
        super().__init__()
        self.deadline = deadline
        self.declare = declare
        self.calls = []

    def on_start(self, ctx):
        if ctx.node == 0:
            ctx.send_all("ping")
            self.halt()
        elif self.declare:
            self.idle_until(self.deadline)

    def on_round(self, ctx, inbox):
        self.calls.append((ctx.round, dict(inbox)))
        if inbox and ctx.round < self.deadline:
            ctx.send_all("pong")
        if ctx.round >= self.deadline:
            self.halt()

    def output(self):
        return len(self.calls)


class _Waiters(Algorithm):
    def __init__(self, deadline=4, declare=True):
        self.deadline = deadline
        self.declare = declare
        self.programs = {}

    def make_program(self, node, ctx):
        program = self.programs[node] = _Waiter(self.deadline, self.declare)
        return program


@pytest.fixture
def path4():
    return Network([(0, 1), (1, 2), (2, 3)])


def _group(net, algorithm, **kwargs):
    return HostGroup(algorithm, net.nodes, net, 7, "tape", **kwargs)


class TestLifecycle:
    def test_start_yields_senders_and_sets_live(self, path4):
        group = _group(path4, _Waiters())
        assert group.live == []
        started = list(group.start())
        assert [node for node, _ in started] == [0]
        assert list(started[0][1]) == [(1, "ping")]
        assert [host.node for host in group.live] == [1, 2, 3]

    def test_start_twice_rejected(self, path4):
        group = _group(path4, _Waiters())
        list(group.start())
        with pytest.raises(RuntimeError):
            list(group.start())

    def test_outputs_before_and_after_start(self, path4):
        group = _group(path4, _Waiters())
        assert group.outputs() == {0: None, 1: None, 2: None, 3: None}
        assert group.output(2) is None
        list(group.start())
        list(group.step(1, {1: {0: "ping"}}))
        assert group.outputs() == {0: 0, 1: 1, 2: 0, 3: 0}
        assert [group.output(node) for node in path4.nodes] == [0, 1, 0, 0]
        assert group.hosts_built == 4

    def test_halted_hosts_leave_live(self, path4):
        algorithm = _Waiters(deadline=2)
        group = _group(path4, algorithm)
        list(group.start())
        list(group.step(1, {1: {0: "ping"}}))
        assert [host.node for host in group.live] == [1, 2, 3]
        list(group.step(2, {}))
        assert group.live == []
        # a halted program is never called again
        assert list(group.step(3, {1: {0: "late"}})) == []
        assert len(algorithm.programs[1].calls) == 2


class TestIdleSkipping:
    def test_idle_hosts_are_not_called(self, path4):
        algorithm = _Waiters(deadline=4)
        group = _group(path4, algorithm)
        list(group.start())
        sent = list(group.step(1, {1: {0: "ping"}}))
        # only node 1 had mail: it alone ran, and it alone sent
        assert [node for node, _ in sent] == [1]
        assert algorithm.programs[1].calls == [(1, {0: "ping"})]
        assert algorithm.programs[2].calls == []
        assert (group.host_steps, group.idle_skips) == (1, 2)
        list(group.step(2, {}))
        list(group.step(3, {}))
        assert algorithm.programs[2].calls == []
        # the declared round itself is stepped, inbox or not
        list(group.step(4, {}))
        assert algorithm.programs[2].calls == [(4, {})]
        assert group.live == []
        assert (group.host_steps, group.idle_skips) == (4, 8)

    def test_undeclared_programs_step_every_round(self, path4):
        algorithm = _Waiters(deadline=3, declare=False)
        group = _group(path4, algorithm)
        list(group.start())
        for algo_round in (1, 2, 3):
            list(group.step(algo_round, {}))
        assert [r for r, _ in algorithm.programs[3].calls] == [1, 2, 3]
        assert (group.host_steps, group.idle_skips) == (9, 0)

    def test_promise_can_be_redeclared(self, path4):
        class Redeclaring(NodeProgram):
            calls = []

            def on_start(self, ctx):
                self.idle_until(10)

            def on_round(self, ctx, inbox):
                self.calls.append(ctx.round)
                self.idle_until(0 if inbox else 10)

        class Factory(Algorithm):
            def make_program(self, node, ctx):
                return Redeclaring()

        group = HostGroup(Factory(), [1], path4, 0, 0)
        list(group.start())
        list(group.step(1, {}))  # skipped
        list(group.step(2, {1: {0: "wake"}}))  # woken, now eager
        list(group.step(3, {}))  # stepped, idle again
        list(group.step(4, {}))  # skipped
        assert Redeclaring.calls == [2, 3]


class TestLimitsCrashesErrors:
    def test_limits_truncate_stepping(self, path4):
        algorithm = _Waiters(deadline=9, declare=False)
        group = _group(path4, algorithm, limits={0: 9, 1: 0, 2: 1, 3: 2})
        list(group.start())
        # limit 0 starts (its round-1 sends count) but never steps
        assert [host.node for host in group.live] == [2, 3]
        list(group.step(1, {}))
        assert [host.node for host in group.live] == [3]
        list(group.step(2, {}))
        assert group.live == []
        assert algorithm.programs[1].calls == []
        assert [r for r, _ in algorithm.programs[3].calls] == [1, 2]

    def test_idle_hosts_still_leave_at_their_limit(self, path4):
        group = _group(path4, _Waiters(deadline=9), limits=dict.fromkeys(range(4), 2))
        list(group.start())
        list(group.step(1, {}))
        assert len(group.live) == 3
        list(group.step(2, {}))
        assert group.live == []
        assert group.host_steps == 0

    def test_crashed_hosts_stay_live_but_never_act(self, path4):
        algorithm = _Waiters(deadline=2, declare=False)
        group = _group(path4, algorithm)
        list(group.start())
        for algo_round in (1, 2, 3):
            list(group.step(algo_round, {2: {1: "x"}}, crashed=lambda node: node == 2))
        assert [host.node for host in group.live] == [2]
        assert algorithm.programs[2].calls == []

    def test_program_errors_propagate(self, path4):
        class Confused(NodeProgram):
            def on_round(self, ctx, inbox):
                ctx.send(ctx.neighbors[0], "a")
                ctx.send(ctx.neighbors[0], "b")

        class Factory(Algorithm):
            def make_program(self, node, ctx):
                return Confused()

        group = _group(path4, Factory())
        list(group.start())
        with pytest.raises(BandwidthViolation):
            list(group.step(1, {}))


class TestLazyTapes:
    def test_tape_is_materialised_on_first_access_only(self, path4):
        ctx = NodeContext(2, path4, (5, "tape"))
        assert ctx._rng is None
        first = ctx.rng
        assert ctx._rng is first and ctx.rng is first

    @pytest.mark.parametrize(
        "make",
        [
            lambda net: LubyMIS(net.num_nodes),
            RandomColoring,
            lambda net: PushGossip(0, rounds=5),
        ],
        ids=["mis", "coloring", "gossip"],
    )
    def test_lazy_tape_is_the_canonical_tape(self, path4, make):
        algorithm = make(path4)
        master, tape_id = 99, ("job", 3)
        for node in path4.nodes:
            host = ProgramHost(algorithm, node, path4, (master, tape_id))
            reference = random.Random(ProgramHost.seed_for(master, tape_id, node))
            assert [host.ctx.rng.getrandbits(32) for _ in range(64)] == [
                reference.getrandbits(32) for _ in range(64)
            ]

    def test_group_hosts_draw_the_canonical_tape(self, path4):
        group = HostGroup(LubyMIS(4), path4.nodes, path4, 99, "t")
        list(group.start())  # Luby draws a priority in on_start
        for host in group.live:
            reference = random.Random(ProgramHost.seed_for(99, "t", host.node))
            assert host.program._priority == reference.getrandbits(48)
