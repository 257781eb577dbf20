"""Hint erasure: ``NodeProgram.idle_until`` may only ever save work.

The stepping contract (see :mod:`repro.congest.program`) says a program
that declares ``idle_until(r)`` would have done *nothing* on an
empty-inbox round before ``r``. This module checks the contract the only
way that cannot be fooled by a consistently wrong annotation: it runs
every scheduler on both transports twice — once as shipped, once with
``idle_until`` monkeypatched to a no-op, so every live host is stepped
every round as before the hints existed — and demands identical
observables. A scheduled-vs-solo comparison is not enough (both sides
would skip the same steps); erased-vs-shipped is.

This is also how a *new* annotation is checked: add it, run this file.
"""

from unittest import mock

import pytest

from repro.congest import Network, topology
from repro.congest.program import Algorithm, NodeProgram
from repro.core import Workload
from repro.core.transport import available_transports
from repro.fuzz import ScenarioGenerator
from repro.service.specs import SCHEDULER_KINDS, parse_scheduler
from repro.telemetry import InMemoryRecorder

TRANSPORTS = tuple(
    name for name in ("reference", "numpy") if name in available_transports()
)
#: 12 topology kinds × 12 algorithm families; every third one is faulted.
SCENARIOS = 144
#: Counters that say *how* the slots were spent; their sum is the number
#: of live-host × round slots, which the hints must not change.
STEPPING = ("host_steps", "idle_skips")
#: Counters of the cluster copies' start memo, which remembers
#: ``idle_until`` promises: with the hints erased nothing is dormant, so
#: these two differ by design (``test_start_memo.py`` pins them).
MATERIALISATION = ("cluster.hosts_built", "cluster.hosts_dormant")


def _observe(network, algorithms, master_seed, schedule_seed, faults, name, transport):
    """Everything observable about one scheduler run (fresh workload)."""
    workload = Workload(
        network,
        list(algorithms),
        master_seed=master_seed,
        solo_cache=None,  # the references must be re-executed, not recalled
        transport=transport,
    )
    scheduler = (
        parse_scheduler(name)
        .with_transport(transport)
        .with_recorder(InMemoryRecorder())
    )
    if faults is not None:
        budget = 8 * workload.params().cost_sum + 50
        scheduler = scheduler.with_faults(faults).with_round_budget(budget)
    result = scheduler.run_resilient(workload, seed=schedule_seed)
    report = result.report
    counters = report.engine_counters()
    for name in MATERIALISATION:
        del counters[name]
    slots = {
        engine: sum(counters.pop(f"{engine}.{kind}") for kind in STEPPING)
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
        "slots": slots,
    }


def _observe_all(network, algorithms, master_seed=0, schedule_seed=0, faults=None):
    return {
        (name, transport): _observe(
            network, algorithms, master_seed, schedule_seed, faults, name, transport
        )
        for name in SCHEDULER_KINDS
        for transport in TRANSPORTS
    }


def assert_hints_erasable(network, algorithms, **kwargs):
    """Shipped and hint-erased executions must be indistinguishable."""
    shipped = _observe_all(network, algorithms, **kwargs)
    with mock.patch.object(NodeProgram, "idle_until", lambda self, round: None):
        erased = _observe_all(network, algorithms, **kwargs)
    for key, expected in erased.items():
        for field, value in expected.items():
            assert shipped[key][field] == value, (key, field)


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


def test_the_hints_do_skip_something():
    # Guards the guard: if erasure changed nothing, the tests above would
    # pass vacuously.
    from repro.algorithms import BFS

    def counters():
        workload = Workload(
            topology.path_graph(8), [BFS(0, hops=7)], solo_cache=None
        )
        scheduler = parse_scheduler("random-delay").with_recorder(InMemoryRecorder())
        return scheduler.run(workload).report.engine_counters()

    shipped = counters()
    with mock.patch.object(NodeProgram, "idle_until", lambda self, round: None):
        erased = counters()
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
