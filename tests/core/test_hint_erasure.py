"""Two stepping differentials: hint erasure and wave groups.

The stepping contract (see :mod:`repro.congest.program`) says a program
that declares ``idle_until(r)`` would have done *nothing* on an
empty-inbox round before ``r``. This module checks the contract the only
way that cannot be fooled by a consistently wrong annotation: it runs
every scheduler on both transports twice — once as shipped, once with
``idle_until`` monkeypatched to a no-op, so every live host is stepped
every round as before the hints existed — and demands identical
observables. A scheduled-vs-solo comparison is not enough (both sides
would skip the same steps); erased-vs-shipped is. Both runs take the
object path (:func:`object_path`), since the hints annotate programs.

This is also how a *new* annotation is checked: add it, run this file.

The same harness checks the wave groups (:mod:`repro.congest.wave`):
``BFS`` and ``HopBroadcast``/``Flooding`` copies run on a
:class:`~repro.congest.wave.WaveGroup` as shipped, and on their
``NodeProgram`` objects with :meth:`~repro.congest.program.Algorithm.wave`
patched to ``None``; every observable but the counters naming the
stepper must agree. A change to ``_BFSProgram`` or ``_BroadcastProgram``
that is not mirrored in its wave fails here.
"""

import random
from contextlib import ExitStack
from functools import partial
from unittest import mock

import pytest

from repro.algorithms import BFS, Flooding, HopBroadcast
from repro.congest import Network, Simulator, topology
from repro.congest.program import (
    Algorithm,
    Broadcast,
    HostGroup,
    NodeProgram,
    make_group,
)
from repro.congest.wave import WaveGroup
from repro.core import EagerScheduler, PrivateScheduler, Workload
from repro.core.phase_engine import run_delayed_phases
from repro.errors import BandwidthViolation
from repro.fuzz import ScenarioGenerator
from repro.service.specs import SCHEDULER_KINDS, parse_scheduler
from repro.telemetry import InMemoryRecorder

TRANSPORTS = ("reference", "numpy")
#: 12 topology kinds × 12 algorithm families; every third one is faulted.
SCENARIOS = 144
#: Counters that say *how* the slots were spent; their sum is the number
#: of live-host × round slots, which the hints must not change (a wave
#: group must not change the split either).
STEPPING = ("host_steps", "idle_skips")
#: Counters that name the stepper: a wave group builds no ``ProgramHost``
#: and counts itself, so these differ between waves and programs by
#: design (hint erasure compares them like every other counter).
STEPPER = (
    "cluster.hosts_built",
    "sim.wave_groups",
    "phase.wave_groups",
    "cluster.wave_groups",
)
#: Every scheduler the spec language names, plus three paths hint
#: erasure also runs: the eager ablation (no spec name; it never steps a
#: wave), and the private scheduler's uniform cluster delays without
#: dedup and its clustering computed on the simulator (neither steps a
#: wave the plain ``private`` run does not).
SCHEDULERS = {
    **{name: partial(parse_scheduler, name) for name in SCHEDULER_KINDS},
    "eager": EagerScheduler,
    "private:dedup=off": partial(PrivateScheduler, dedup=False),
    "private:distributed": partial(
        PrivateScheduler, distributed_precomputation=True
    ),
}


def object_path():
    """Step every BFS and broadcast through its ``NodeProgram`` objects."""
    stack = ExitStack()
    for family in (BFS, HopBroadcast):
        stack.enter_context(mock.patch.object(family, "wave", lambda self: None))
    return stack


def _observe(network, algorithms, master_seed, schedule_seed, faults, name, transport):
    """Everything observable about one scheduler run (fresh workload)."""
    workload = Workload(
        network,
        list(algorithms),
        master_seed=master_seed,
        solo_cache=None,  # the references must be re-executed, not recalled
        transport=transport,
    )
    scheduler = SCHEDULERS[name]().with_recorder(InMemoryRecorder())
    if faults is not None:
        budget = 8 * workload.params().cost_sum + 50
        scheduler = scheduler.with_faults(faults).with_round_budget(budget)
    result = scheduler.run_resilient(workload, seed=schedule_seed)
    report = result.report
    counters = report.engine_counters()
    stepper = {name: counters.pop(name) for name in STEPPER}
    stepping = {
        (engine, kind): counters.pop(f"{engine}.{kind}")
        for engine in ("sim", "phase", "cluster")
        for kind in STEPPING
    }
    slots = {
        engine: sum(stepping[engine, kind] for kind in STEPPING)
        for engine in ("sim", "phase", "cluster")
    }
    failure = result.failure
    return {
        "outputs": result.outputs,
        "solo": [
            (
                run.outputs,
                list(run.trace.events()),
                run.rounds,
                run.completion_round,
                run.max_message_bits,
            )
            for run in workload.solo_runs()
        ],
        "length_rounds": report.length_rounds,
        "num_phases": report.num_phases,
        "max_phase_load": report.max_phase_load,
        "messages_sent": report.messages_sent,
        "messages_deduplicated": report.messages_deduplicated,
        "load_histogram": report.load_histogram,
        "notes": report.notes,
        "correct": result.correct,
        "failure": None if failure is None else (failure.stage, failure.message),
        "engine_counters": counters,
        "stepper": stepper,
        "slots": slots,
        "stepping": stepping,
    }


def _observe_all(
    network, algorithms, master_seed=0, schedule_seed=0, faults=None,
    names=SCHEDULER_KINDS,
):
    return {
        (name, transport): _observe(
            network, algorithms, master_seed, schedule_seed, faults, name, transport
        )
        for name in names
        for transport in TRANSPORTS
    }


def _assert_same(observed, expected, skip=()):
    for key, fields in expected.items():
        for field, value in fields.items():
            if field not in skip:
                assert observed[key][field] == value, (key, field)


def _erased():
    return mock.patch.object(NodeProgram, "idle_until", lambda self, round: None)


def assert_hints_erasable(network, algorithms, **kwargs):
    """Shipped and hint-erased executions must be indistinguishable."""
    with object_path():
        shipped = _observe_all(network, algorithms, names=SCHEDULERS, **kwargs)
        with _erased():
            erased = _observe_all(network, algorithms, names=SCHEDULERS, **kwargs)
    _assert_same(shipped, erased, skip=("stepping",))


def assert_waves_step_alike(network, algorithms, **kwargs):
    """Wave groups and object programs must be indistinguishable."""
    waves = _observe_all(network, algorithms, **kwargs)
    with object_path():
        programs = _observe_all(network, algorithms, **kwargs)
    _assert_same(waves, programs, skip=("stepper",))


@pytest.mark.parametrize("index", range(SCENARIOS))
def test_generated_scenarios_survive_hint_erasure(index):
    scenario = ScenarioGenerator(0).generate(index)
    built = scenario.build()
    assert_hints_erasable(
        built.network,
        built.algorithms,
        master_seed=scenario.master_seed,
        schedule_seed=scenario.schedule_seed,
        faults=built.faults,
    )


@pytest.mark.parametrize("index", range(SCENARIOS))
def test_generated_scenarios_step_alike_as_waves(index):
    scenario = ScenarioGenerator(0).generate(index)
    built = scenario.build()
    assert_waves_step_alike(
        built.network,
        built.algorithms,
        master_seed=scenario.master_seed,
        schedule_seed=scenario.schedule_seed,
        faults=built.faults,
    )


def _path_bfs_counters():
    workload = Workload(topology.path_graph(8), [BFS(0, hops=7)], solo_cache=None)
    scheduler = parse_scheduler("random-delay").with_recorder(InMemoryRecorder())
    return scheduler.run(workload).report.engine_counters()


def test_the_hints_do_skip_something():
    # Guards the guard: if erasure changed nothing, the tests above would
    # pass vacuously.
    with object_path():
        shipped = _path_bfs_counters()
        with _erased():
            erased = _path_bfs_counters()
    assert shipped["phase.idle_skips"] > shipped["phase.host_steps"] > 0
    assert erased["phase.idle_skips"] == 0
    assert erased["phase.host_steps"] == (
        shipped["phase.host_steps"] + shipped["phase.idle_skips"]
    )


class _BrokenPromise(Algorithm):
    """Node 0 promises to idle until round 5 but sends in round 2."""

    class _Program(NodeProgram):
        def __init__(self):
            super().__init__()
            self._heard = None

        def on_start(self, ctx):
            if ctx.node == 0:
                self.idle_until(5)  # wrong: round 2 below acts unprompted

        def on_round(self, ctx, inbox):
            if inbox:
                self._heard = ctx.round
            if ctx.node == 0 and ctx.round == 2:
                ctx.send_all("late")
            if ctx.round >= 6:
                self.halt()

        def output(self):
            return self._heard

    def make_program(self, node, ctx):
        return self._Program()

    def max_rounds(self, network: Network) -> int:
        return 8


def test_a_wrong_annotation_is_caught():
    with pytest.raises(AssertionError):
        assert_hints_erasable(topology.path_graph(4), [_BrokenPromise()])


@pytest.mark.parametrize(
    "name, engine",
    [("sequential", "sim"), ("random-delay", "phase"), ("private", "cluster")],
)
def test_the_waves_do_run(name, engine):
    # Guards the stepper leg: as shipped, BFS copies run as waves and
    # take the same slots as their programs. (A round budget makes the
    # sequential scheduler re-run its solos on a recorded simulator.)
    def counters():
        workload = Workload(topology.path_graph(8), [BFS(0, hops=7)], solo_cache=None)
        scheduler = (
            parse_scheduler(name)
            .with_recorder(InMemoryRecorder())
            .with_round_budget(64)
        )
        return scheduler.run(workload).report.engine_counters()

    waves = counters()
    with object_path():
        programs = counters()
    assert waves[f"{engine}.wave_groups"] > 0
    assert programs[f"{engine}.wave_groups"] == 0
    for kind in ("host_steps", "idle_skips"):
        assert waves[f"{engine}.{kind}"] == programs[f"{engine}.{kind}"] > 0


def _outcome(run):
    """What ``run()`` returned, or the bandwidth violation it raised."""
    try:
        return run()
    except BandwidthViolation as exc:
        return str(exc), exc.context


@pytest.mark.parametrize("bits", [1, 2, 3, 4, 6, 12, None])
def test_a_small_budget_fails_alike(bits):
    network = topology.grid_graph(4, 5)
    algorithms = [BFS(7, hops=4), HopBroadcast(12, 5, 3), Flooding(0, "token")]

    def solo(algorithm):
        run = Simulator(network, message_bits=bits).run(algorithm)
        return run.outputs, list(run.trace.events()), run.max_message_bits

    def phases():
        workload = Workload(network, algorithms, message_bits=bits, solo_cache=None)
        return run_delayed_phases(workload, [0, 1, 1])

    for run in [lambda a=a: solo(a) for a in algorithms] + [phases]:
        waves = _outcome(run)
        with object_path():
            assert _outcome(run) == waves


def _drive(group, rounds, down=()):
    """Run one group alone, mail confined to its nodes and ``down`` nodes
    crashing from round 2 on; what it shows, round by round."""
    members = set(group.nodes)
    shown = []
    pending = {}
    now = [0]

    def crashed(node):
        return node in down and now[0] >= 2

    def post(sends):
        for node, outbox in sends:
            shown.append((node, type(outbox).__name__, list(outbox)))
            for receiver, payload in outbox:
                if receiver in members:
                    pending.setdefault(receiver, {})[node] = payload

    post(group.start())
    for algo_round in range(1, rounds + 1):
        now[0] = algo_round
        inboxes, pending = pending, {}
        post(group.step(algo_round, inboxes, crashed if down else None))
        shown.append(
            (group.host_steps, group.idle_skips, group.finished(crashed if down else None))
        )
    shown.append((group.outputs(), group.max_bits(), [group.output(v) for v in group.nodes]))
    return shown


@pytest.mark.parametrize("seed", range(48))
def test_truncated_waves_step_alike(seed):
    # The cluster copies' shape: any member order, limits below and past
    # the deadline, h' = 0 nodes (the source among them or absent), and
    # crash-stopped nodes kept past their limits.
    rng = random.Random(seed)
    network = topology.grid_graph(4, 5)
    nodes = sorted(rng.sample(list(network.nodes), rng.randint(6, 20)))
    if seed % 3 == 0:
        rng.shuffle(nodes)
    source = nodes[0] if seed % 2 else rng.choice(list(network.nodes))
    hops = rng.randint(0, 5)
    algorithm = BFS(source, hops) if seed % 4 < 2 else HopBroadcast(source, "t", hops)
    limits = {v: rng.randint(0, hops + 2) for v in nodes}
    limits[source] = 0
    down = set(rng.sample(nodes, 2)) if seed % 5 < 2 else set()
    wave = make_group(algorithm, nodes, network, 0, "t", limits=limits)
    programs = HostGroup(algorithm, nodes, network, 0, "t", limits=limits)
    assert isinstance(wave, WaveGroup)
    assert _drive(wave, hops + 3, down) == _drive(programs, hops + 3, down)


def test_an_h_prime_zero_source_still_sends():
    network = topology.path_graph(5)
    limits = {0: 0, 1: 0, 2: 2, 3: 1}
    for algorithm in (BFS(0, hops=3), HopBroadcast(0, "t", 3)):
        wave = make_group(algorithm, [0, 1, 2, 3], network, 0, "t", limits=limits)
        assert [(node, type(outbox)) for node, outbox in wave.start()] == [(0, Broadcast)]
        assert wave.live == [2, 3]
        assert list(wave.step(1, {1: {0: 0}})) == []  # node 1 left at h' = 0
        assert wave.live == [2]  # node 3 left at its limit
        assert wave.output(0) is not None and wave.output(1) is None


def test_a_crashed_node_leaves_after_its_limit():
    # Node 2 crashes as the wave reaches it in round 2, its last round: a
    # host stays live through that round and leaves at its next round
    # without mail, long before the deadline.
    network = topology.path_graph(6)
    limits = dict.fromkeys(network.nodes, 9)
    limits[2] = 2
    for algorithm in (BFS(0, hops=6), HopBroadcast(0, "t", 6)):
        wave = make_group(algorithm, network.nodes, network, 0, "t", limits=limits)
        programs = HostGroup(algorithm, network.nodes, network, 0, "t", limits=limits)
        assert _drive(wave, 8, down={2}) == _drive(programs, 8, down={2})
