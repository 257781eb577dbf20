"""Tests for the per-cluster copy engine (Lemma 4.4)."""

import math

import pytest

from repro.algorithms import BFS, HopBroadcast
from repro.clustering import build_clustering, extend_clustering
from repro.congest.program import Algorithm, NodeProgram
from repro.core import (
    PrivateScheduler,
    Workload,
    run_cluster_copies,
    select_output_layers,
    verify_outputs,
)
from repro.core.cluster_delays import ClusterDelaySampler
from repro.core.cluster_engine import CLUSTER_LOOP, ClusterExecution
from repro.core.phase_engine import Copy, run_copies
from repro.core.transport import LoadWindow
from repro.errors import CoverageError, ReproError
from repro.experiments import mixed_workload
from repro.faults import NULL_INJECTOR, FaultPlan
from repro.fuzz import ScenarioGenerator
from repro.randomness import BlockDelay, UniformDelay


class _PerCopyChannel(LoadWindow):
    """The reference message plane: every copy pushes its own sends."""

    def __init__(self, clustering, injector, dedup, layer_of):
        super().__init__()
        self.messages_sent = 0
        self.messages_deduplicated = 0
        self.messages_truncated = 0
        self._injector = injector
        self._dedup = dedup
        self._layers = clustering.layers
        self._layer_of = layer_of
        self._pool = {}
        self._deferred = {}
        self._sent = {}

    def push(self, copy, sender, sends, msg_round, into_current):
        layer = self._layers[self._layer_of[id(copy.group)]]
        if msg_round > layer.h_prime[sender] + 1:
            self.messages_truncated += len(sends)
            return
        edges = self.current_edges if into_current else self.next_edges
        visible_at = self.phase if into_current else self.phase + 1
        for receiver, payload in sends:
            if layer.center[receiver] != layer.center[sender]:
                self.messages_truncated += 1
                continue
            key = (copy.aid, msg_round, sender, receiver)
            if key in self._sent:
                if self._sent[key] != payload and not self._injector.enabled:
                    raise ReproError(f"copies disagree on {key}")
                self.messages_deduplicated += 1
                if self._dedup:
                    continue
            else:
                self._sent[key] = payload
                for offset in self._injector.deliveries(
                    msg_round, sender, receiver, stream=copy.aid
                ):
                    self._deferred.setdefault(visible_at + offset, []).append(
                        (copy.aid, msg_round, sender, receiver, payload)
                    )
            edges.append((sender, receiver))
            self.messages_sent += 1

    def deliver(self, copy, algo_round):
        for due in sorted(r for r in self._deferred if r <= self.phase):
            for aid, msg_round, sender, receiver, payload in self._deferred.pop(due):
                self._pool.setdefault((aid, msg_round), {}).setdefault(
                    receiver, {}
                )[sender] = payload
        return self._pool.get((copy.aid, algo_round), {})

    def idle(self, copy):
        return True


def run_per_copy(
    workload, clustering, delay_of, dedup=True, max_big_rounds=None,
    injector=NULL_INJECTOR,
):
    """Lemma 4.4 stepped copy by copy: one host group per (layer,
    cluster, algorithm) through the shared big-round loop — the
    reference :func:`run_cluster_copies` must match exactly."""
    dilations = [run.rounds for run in workload.solo_runs()]
    hard_caps = [a.max_rounds(workload.network) for a in workload.algorithms]
    copies, copy_at, layer_of = [], {}, {}
    for layer_index, layer in enumerate(clustering.layers):
        for center, members in layer.clusters().items():
            for aid in workload.aids:
                limits = {
                    v: hard_caps[aid]
                    if layer.h_prime[v] >= dilations[aid]
                    else layer.h_prime[v]
                    for v in members
                }
                copy = Copy(
                    aid, delay_of(layer_index, center, aid),
                    workload.host_group(aid, members, limits=limits),
                    max(limits.values()),
                )
                copies.append(copy)
                copy_at[(layer_index, center, aid)] = copy
                layer_of[id(copy.group)] = layer_index
    truncate = max_big_rounds is not None
    if max_big_rounds is None:
        max_big_rounds = max(c.delay for c in copies) + max(hard_caps) + 4
    channel = _PerCopyChannel(clustering, injector, dedup, layer_of)
    last_active, _, truncated = run_copies(
        copies, channel, max_big_rounds, CLUSTER_LOOP, injector=injector,
        truncate=truncate,
    )
    outputs = {
        (aid, v): copy_at[
            (layer_index, clustering.layers[layer_index].center[v], aid)
        ].group.output(v)
        for (aid, v), layer_index in select_output_layers(
            workload, clustering
        ).items()
    }
    return ClusterExecution(
        outputs=outputs,
        num_big_rounds=last_active + 1,
        max_big_round_load=channel.max_load,
        load_histogram=channel.histogram,
        messages_sent=channel.messages_sent,
        messages_deduplicated=channel.messages_deduplicated,
        messages_truncated=channel.messages_truncated,
        num_copies=len(copies),
        step_groups=len(copies),
        truncated=truncated,
    )


def assert_matches_per_copy(shared, per_copy):
    """Everything a report reads off the two executions is equal."""
    for field in (
        "outputs", "num_big_rounds", "max_big_round_load", "load_histogram",
        "messages_sent", "messages_deduplicated", "messages_truncated",
        "num_copies", "truncated",
    ):
        assert getattr(shared, field) == getattr(per_copy, field), field


@pytest.fixture(scope="module")
def setup(grid6):
    work = mixed_workload(grid6, 6, hops=4, seed=21)
    clustering = build_clustering(
        grid6, radius_scale=2 * work.params().dilation, num_layers=16, seed=5
    )
    return work, clustering


class TestOutputSelection:
    def test_selects_covering_layers(self, setup):
        work, clustering = setup
        chosen = select_output_layers(work, clustering)
        dilations = [run.rounds for run in work.solo_runs()]
        for (aid, v), layer_index in chosen.items():
            assert clustering.layers[layer_index].h_prime[v] >= dilations[aid]

    def test_coverage_error_on_thin_clustering(self, grid6):
        work = mixed_workload(grid6, 3, hops=5, seed=2)
        thin = build_clustering(grid6, radius_scale=1, num_layers=1, seed=0)
        with pytest.raises(CoverageError):
            select_output_layers(work, thin)


class TestZeroDelayCorrectness:
    def test_all_copies_zero_delay(self, setup):
        work, clustering = setup
        execution = run_cluster_copies(
            work, clustering, lambda l, c, a: 0, dedup=True
        )
        assert verify_outputs(work, execution.outputs) == []

    def test_without_dedup(self, setup):
        work, clustering = setup
        execution = run_cluster_copies(
            work, clustering, lambda l, c, a: 0, dedup=False
        )
        assert verify_outputs(work, execution.outputs) == []

    def test_dedup_reduces_transmissions(self, setup):
        work, clustering = setup
        with_dedup = run_cluster_copies(work, clustering, lambda l, c, a: 0, dedup=True)
        without = run_cluster_copies(work, clustering, lambda l, c, a: 0, dedup=False)
        assert with_dedup.messages_sent < without.messages_sent
        assert with_dedup.messages_deduplicated > 0
        assert verify_outputs(work, without.outputs) == []


class TestDelayedCopies:
    def _delay_fn(self, clustering, work, distribution):
        sampler = ClusterDelaySampler(
            clustering, work.num_algorithms, distribution
        )
        return sampler.delay

    def test_uniform_cluster_delays_correct(self, setup):
        work, clustering = setup
        delay = self._delay_fn(clustering, work, UniformDelay(6))
        execution = run_cluster_copies(work, clustering, delay, dedup=False)
        assert verify_outputs(work, execution.outputs) == []

    def test_block_delays_with_dedup_correct(self, setup):
        work, clustering = setup
        dist = BlockDelay.for_schedule(
            congestion=work.params().congestion,
            num_nodes=work.network.num_nodes,
            copies=clustering.num_layers,
        )
        delay = self._delay_fn(clustering, work, dist)
        execution = run_cluster_copies(work, clustering, delay, dedup=True)
        assert verify_outputs(work, execution.outputs) == []

    def test_per_cluster_consistency(self, setup):
        """The same (layer, cluster, aid) always maps to the same delay —
        members never disagree."""
        work, clustering = setup
        sampler = ClusterDelaySampler(
            clustering, work.num_algorithms, UniformDelay(10)
        )
        for layer in range(clustering.num_layers):
            for center in clustering.layers[layer].centers:
                a = sampler.delay(layer, center, 0)
                b = sampler.delay(layer, center, 0)
                assert a == b

    def test_delays_vary_across_clusters(self, setup):
        work, clustering = setup
        sampler = ClusterDelaySampler(
            clustering, work.num_algorithms, UniformDelay(50)
        )
        values = set()
        for layer in range(clustering.num_layers):
            for center in clustering.layers[layer].centers:
                values.add(sampler.delay(layer, center, 0))
        assert len(values) > 1


class TestEngineAccounting:
    def test_truncation_counted(self, setup):
        work, clustering = setup
        execution = run_cluster_copies(work, clustering, lambda l, c, a: 0)
        assert execution.messages_truncated >= 0
        assert execution.num_copies == sum(
            len(layer.clusters()) for layer in clustering.layers
        ) * work.num_algorithms

    def test_histogram_consistent(self, setup):
        work, clustering = setup
        execution = run_cluster_copies(work, clustering, lambda l, c, a: 0)
        assert (
            sum(k * v for k, v in execution.load_histogram.items())
            == execution.messages_sent
        )

    def test_big_rounds_cover_delays(self, setup):
        work, clustering = setup
        execution = run_cluster_copies(work, clustering, lambda l, c, a: 5)
        assert execution.num_big_rounds >= 5

    def test_truncated_run_reports_the_big_rounds_it_walked(self, grid6):
        # Cut at cap C, the run walked big-rounds 0..C: C + 1 of them, as
        # the phase engine reports. Sends emitted in round C never
        # traverse, so they occupy no further big-round.
        work = Workload(grid6, [BFS(0), BFS(35), HopBroadcast(5, "x", 4)])
        clustering = build_clustering(grid6, 12, 3, seed=1)
        for cap in (0, 2, 5):
            execution = run_cluster_copies(
                work, clustering, lambda l, c, a: a,
                max_big_rounds=cap,
            )
            assert execution.truncated
            assert execution.num_big_rounds == cap + 1


class _ArrivalOrder(Algorithm):
    """Every node messages all neighbours for ``hops`` rounds and outputs
    the order its senders arrived in, round by round: two engines agree
    on it only if they fill the shared pool in the same order."""

    class _Program(NodeProgram):
        def __init__(self, hops):
            super().__init__()
            self._hops = hops
            self._log = []

        def on_start(self, ctx):
            ctx.send_all(0)

        def on_round(self, ctx, inbox):
            self._log.append(tuple(inbox))
            if ctx.round >= self._hops:
                self.halt()
            else:
                ctx.send_all(ctx.round)

        def output(self):
            return tuple(self._log)

    def __init__(self, hops):
        self.hops = hops

    def make_program(self, node, ctx):
        return self._Program(self.hops)

    def max_rounds(self, network):
        return self.hops


def _scenario_inputs(index, dedup):
    """A fuzz scenario's workload plus an :class:`_ArrivalOrder`, its
    covering clustering, and cluster delays drawn as
    :class:`PrivateScheduler` draws them."""
    scenario = ScenarioGenerator(0).generate(index)
    built = scenario.build()
    work = Workload(
        built.network, [*built.algorithms, _ArrivalOrder(3)],
        master_seed=scenario.master_seed, solo_cache=None,
    )
    defaults = PrivateScheduler()
    params = work.params()
    n = work.network.num_nodes
    clustering = build_clustering(
        work.network,
        max(1, math.ceil(defaults.radius_factor * max(params.dilation, 1))),
        max(2, math.ceil(defaults.layer_constant * math.log2(max(n, 2)))),
        seed=scenario.schedule_seed,
    )
    while True:
        try:
            select_output_layers(work, clustering)
            break
        except CoverageError:
            clustering = extend_clustering(clustering, clustering.num_layers)
    congestion = max(1, params.congestion)
    distribution = (
        BlockDelay.for_schedule(
            congestion=congestion, num_nodes=n, copies=clustering.num_layers
        )
        if dedup
        else UniformDelay(congestion)
    )
    sampler = ClusterDelaySampler(clustering, work.num_algorithms, distribution)
    return work, clustering, sampler.delay, built.faults


def _outcome(run, *args, **kwargs):
    try:
        return run(*args, **kwargs), None
    except ReproError as exc:
        return None, (type(exc), str(exc))


@pytest.mark.parametrize("index", range(60))
def test_shared_stepping_matches_per_copy_stepping(index):
    """Stepping each (algorithm, delay) group once is stepping every
    copy: fault-free, under message loss and under the scenario's own
    plan, with and without dedup, run out or cut by a budget."""
    for dedup in (True, False):
        work, clustering, delay_of, own = _scenario_inputs(index, dedup)
        plans = [None, FaultPlan.message_drop(0.05, seed=index)]
        if own is not None:
            plans.append(own)
        for plan in plans:
            for budget in (None, 3):
                results = [
                    _outcome(
                        run, work, clustering, delay_of, dedup=dedup,
                        max_big_rounds=budget,
                        injector=plan.injector() if plan else NULL_INJECTOR,
                    )
                    for run in (run_cluster_copies, run_per_copy)
                ]
                (shared, error), (per_copy, reference_error) = results
                assert error == reference_error
                if shared is not None:
                    assert_matches_per_copy(shared, per_copy)
