"""Memo erasure: the cluster copies' start memo may only ever save work.

``run_cluster_copies`` starts one host per (step group, member), and
every copy of (algorithm, node) reads the same tape, so an ``on_start``
that sent nothing, did not halt and promised ``idle_until(T)`` does so in
every group. :class:`~repro.congest.program.HostGroup` remembers such
starts in the workload's start memo and later groups put a dormant
placeholder in the slot, building the host only when it is stepped or
its output is read. In the shape of ``test_hint_erasure.py``, this module runs the
same generated scenarios through :class:`~repro.core.PrivateScheduler`
twice — as shipped, and with :meth:`Workload.start_memo` erased, so
every host of every copy is built and started as before the memo
existed — and demands identical observables.
"""

import itertools
from unittest import mock

import pytest

from repro.algorithms import BFS, HopBroadcast
from repro.congest import Network, topology
from repro.congest.program import Algorithm, NodeProgram
from repro.core import PrivateScheduler, Workload
from repro.errors import ReproError
from repro.faults import FaultPlan, NodeCrash
from repro.fuzz import ScenarioGenerator
from repro.telemetry import InMemoryRecorder

#: 12 topology kinds × 12 algorithm families (fault plans replaced by ours).
SCENARIOS = 144
#: The two counters that say how the slots were realised — the only
#: observables the memo is allowed to move.
MATERIALISATION = ("cluster.hosts_built", "cluster.hosts_dormant")
#: Loss, delay, re-delivery and a crash-stop: every fault kind the cluster
#: engine routes (node 1 exists in every generated network).
FAULTS = FaultPlan(
    seed=5,
    drop=0.1,
    duplicate=0.05,
    delay=0.1,
    max_extra_delay=2,
    crashes=(NodeCrash(1, 2),),
)
#: (dedup, distributed precomputation, fault plan): every value of each
#: and every pair of values occurs (the precomputation runs on the
#: simulator, which takes no memo, and hands the engine the oracle's
#: clustering; the full product doubles the time for no new path).
VARIANTS = (
    (True, False, None),
    (True, True, FAULTS),
    (False, False, FAULTS),
    (False, True, None),
)


def _erased():
    """No copy gets a memo: every slot is built and started."""
    return mock.patch.object(Workload, "start_memo", lambda self, aid: None)


def _observe(network, algorithms, master_seed, schedule_seed, dedup, distributed, faults):
    """Everything observable about one private-scheduler run (fresh
    workload, hence a fresh memo)."""
    workload = Workload(
        network, list(algorithms), master_seed=master_seed, solo_cache=None
    )
    scheduler = PrivateScheduler(
        dedup=dedup, distributed_precomputation=distributed
    ).with_recorder(InMemoryRecorder())
    if faults is not None:
        budget = 8 * workload.params().cost_sum + 50
        scheduler = scheduler.with_faults(faults).with_round_budget(budget)
    result = scheduler.run_resilient(workload, seed=schedule_seed)
    report = result.report
    counters = report.engine_counters()
    built, dormant = (counters.pop(name) for name in MATERIALISATION)
    failure = result.failure
    observed = {
        "outputs": result.outputs,
        "length_rounds": report.length_rounds,
        "precomputation_rounds": report.precomputation_rounds,
        "num_phases": report.num_phases,
        "max_phase_load": report.max_phase_load,
        "messages_sent": report.messages_sent,
        "messages_deduplicated": report.messages_deduplicated,
        "load_histogram": report.load_histogram,
        "notes": report.notes,  # num_copies, messages_truncated, ...
        "correct": result.correct,
        "failure": None if failure is None else (failure.stage, failure.message),
        "engine_counters": counters,  # host_steps and idle_skips included
    }
    return observed, built, dormant


def assert_memo_erasable(network, algorithms, master_seed=0, schedule_seed=0):
    """Shipped and memo-erased executions must be indistinguishable."""
    for variant in VARIANTS:
        args = (network, algorithms, master_seed, schedule_seed, *variant)
        shipped, built, dormant = _observe(*args)
        with _erased():
            erased, every_slot, none = _observe(*args)
        for field, value in erased.items():
            assert shipped[field] == value, (variant[:2], variant[2] is not None, field)
        assert none == 0
        # A slot is a dormant placeholder, a built host, or both (woken).
        assert built <= every_slot <= built + dormant


@pytest.mark.parametrize("index", range(SCENARIOS))
def test_generated_scenarios_survive_memo_erasure(index):
    scenario = ScenarioGenerator(0).generate(index)
    built = scenario.build()
    assert_memo_erasable(
        built.network,
        built.algorithms,
        master_seed=scenario.master_seed,
        schedule_seed=scenario.schedule_seed,
    )


def _grid_report(erase):
    # The ``private_grid`` shape of the performance ledger.
    net = topology.grid_graph(12, 12)
    algorithms = [
        BFS(9 * i % 144, hops=4) if i % 2 == 0 else HopBroadcast(9 * i % 144, i, 4)
        for i in range(16)
    ]
    workload = Workload(net, algorithms, solo_cache=None)
    scheduler = PrivateScheduler().with_recorder(InMemoryRecorder())
    if erase:
        with _erased():
            return scheduler.run(workload, seed=11).report
    return scheduler.run(workload, seed=11).report


def test_the_memo_does_skip_something(object_path):
    # Guards the guard: if erasure changed nothing, the tests above would
    # pass vacuously. Also the counting claim: on the ledger's
    # ``private_grid`` shape at most 40 % of Lemma 4.4's member slots —
    # one per (copy, member): every layer partitions the nodes, so
    # layers × nodes × algorithms — are built, and the memo leaves most
    # of the slots the step groups start dormant.
    # (On the object path: a wave group builds no host to remember.)
    shipped_report, erased_report = _grid_report(False), _grid_report(True)
    shipped = shipped_report.engine_counters()
    erased = erased_report.engine_counters()
    slots = shipped_report.notes["num_layers"] * 144 * 16
    assert erased["cluster.hosts_dormant"] == 0
    assert shipped["cluster.hosts_dormant"] > 0.8 * erased["cluster.hosts_built"]
    assert shipped["cluster.hosts_built"] <= 0.4 * slots
    for name in ("cluster.host_steps", "cluster.idle_skips"):
        assert shipped[name] == erased[name] > 0


class _Unrepeatable(Algorithm):
    """``on_start`` reads a process-global counter: every copy of a node
    promises a different round, breaking the contract the memo leans on."""

    class _Program(NodeProgram):
        def __init__(self, ticket):
            super().__init__()
            self._ticket = ticket

        def on_start(self, ctx):
            self.idle_until(3 + next(self._ticket) % 2)

        def on_round(self, ctx, inbox):
            if ctx.round >= 4:
                self.halt()

        def output(self):
            return self._halted

    def __init__(self):
        self._ticket = itertools.count()

    def make_program(self, node, ctx):
        return self._Program(self._ticket)

    def max_rounds(self, network: Network) -> int:
        return 6


def test_an_unrepeatable_on_start_raises_instead_of_diverging():
    workload = Workload(topology.grid_graph(4, 4), [_Unrepeatable()], solo_cache=None)
    with pytest.raises(ReproError, match=r"on_start of algorithm 0 at node \d+"):
        PrivateScheduler().run_resilient(workload, seed=1)
    # without the memo the same program is merely inconsistent, unnoticed
    workload = Workload(topology.grid_graph(4, 4), [_Unrepeatable()], solo_cache=None)
    with _erased():
        PrivateScheduler().run_resilient(workload, seed=1)
