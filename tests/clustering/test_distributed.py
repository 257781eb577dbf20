"""Tests for the distributed CONGEST carving protocol (Lemmas 4.2-4.3).

The central assertion: the distributed protocol computes *exactly* what
the centralized oracle computes — same cluster assignment, same contained
radii, and every node receives its centre's shared random bits.
"""

import pytest

from repro.clustering import (
    CarvingProtocol,
    build_clustering,
    run_distributed_clustering,
)
from repro.congest import Simulator, topology

NETWORKS = {
    "grid5": topology.grid_graph(5, 5),
    "cycle10": topology.cycle_graph(10),
    "star8": topology.star_graph(8),
    "expander": topology.random_regular(16, 3, seed=2),
    "path12": topology.path_graph(12),
    "tree": topology.binary_tree(3),
    "gnp": topology.gnp_connected(14, 0.3, seed=4),
}


@pytest.mark.parametrize("net_name", sorted(NETWORKS))
def test_distributed_matches_oracle(net_name):
    net = NETWORKS[net_name]
    oracle = build_clustering(net, radius_scale=3, num_layers=4, seed=11)
    dist = run_distributed_clustering(net, radius_scale=3, num_layers=4, seed=11)
    horizon = oracle.horizon
    for lo, ld in zip(oracle.layers, dist.layers):
        assert lo.center == ld.center
        assert [min(h, horizon) for h in lo.h_prime] == [
            min(h, horizon) for h in ld.h_prime
        ]


def test_sharing_verified_by_default(grid4):
    # run_distributed_clustering raises if any node misses its bits
    run_distributed_clustering(grid4, radius_scale=2, num_layers=3, seed=4)


def test_round_cost_matches_formula(grid4):
    """Measured protocol rounds match the per-layer window schedule."""
    protocol = CarvingProtocol(grid4, 2, layer=0, seed=0)
    expected_per_layer = (
        2 * protocol.horizon + 1 + 2 * (protocol.horizon + protocol.num_chunks)
    )
    clustering = run_distributed_clustering(grid4, 2, num_layers=3, seed=0)
    assert clustering.precomputation_rounds == 3 * expected_per_layer
    assert clustering.built_distributed


def test_precomputation_linear_in_layers(grid4):
    two = run_distributed_clustering(grid4, 2, num_layers=2, seed=1)
    four = run_distributed_clustering(grid4, 2, num_layers=4, seed=1)
    assert four.precomputation_rounds == 2 * two.precomputation_rounds


def test_protocol_respects_congest_budget(grid4):
    """All protocol messages fit the O(log n)-bit CONGEST budget (the
    simulator enforces it and would raise)."""
    protocol = CarvingProtocol(grid4, 2, layer=0, seed=3)
    Simulator(grid4).run(protocol, seed=3)


def test_outputs_have_chunks(grid4):
    protocol = CarvingProtocol(grid4, 2, layer=0, seed=5)
    run = Simulator(grid4).run(protocol, seed=5)
    for v in grid4.nodes:
        out = run.outputs[v]
        assert len(out.chunks) == protocol.num_chunks
        assert out.center in grid4.nodes
        assert out.h_prime >= 0


def test_sharing_verification_catches_tampering(grid4):
    """The sharing check compares every node's collected chunks against
    the centre's true bits; feeding it a mismatched expectation raises —
    the guard that would catch a broken spreading protocol."""
    import pytest as _pytest

    from repro.clustering import cluster_seed_bits
    from repro.clustering.distributed import CarvingProtocol
    from repro.congest import Simulator
    from repro.errors import ReproError

    protocol = CarvingProtocol(grid4, 2, layer=0, seed=0)
    run = Simulator(grid4).run(protocol, seed=0, algorithm_id=("t", 0))
    num_bits = protocol.num_chunks * protocol.chunk_bits
    v = 0
    out = run.outputs[v]
    good = cluster_seed_bits(0, 0, out.center, num_bits)
    assert out.shared_bits(protocol.chunk_bits) == good
    # a different master seed yields different expected bits -> detected
    bad = cluster_seed_bits(999, 0, out.center, num_bits)
    assert out.shared_bits(protocol.chunk_bits) != bad


# -- sharing under overlapping balls (the `python -m repro` instance) --------


def _private_grid_workload():
    """12×12 grid, 16 alternating BFS/HopBroadcast (hops 4): with
    ``R = 8`` and ``H = 80`` every ball spans a good part of the grid, so
    up to ~140 chunk streams overlap at a node."""
    import random

    from repro.algorithms import BFS, HopBroadcast
    from repro.core import Workload

    net = topology.grid_graph(12, 12)
    pattern = random.Random("private_grid:pattern")
    algorithms = [
        BFS(source, 4) if index % 2 == 0 else HopBroadcast(source, 7 + index, 4)
        for index, source in enumerate(pattern.randrange(144) for _ in range(16))
    ]
    return Workload(net, algorithms, master_seed=7, solo_cache=None)


@pytest.mark.parametrize("seed", [1, 2, 3, 11])
def test_sharing_survives_overlapping_streams(seed):
    """Regression: chunks that overtook the shortest path on a detour
    burnt their hop budget and died short of the ball's edge — ``0/12
    chunks`` at the far nodes for every seed tried — because relaying was
    gated on the hop-count the *chunk* had travelled. It is gated on the
    settled carving now (``_CarvingProgram._start_sharing``)."""
    from repro.core import PrivateScheduler

    workload = _private_grid_workload()
    # the path `python -m repro` takes; raises ReproError if sharing fails
    distributed = PrivateScheduler(
        distributed_precomputation=True
    )._build_clustering(workload, seed)
    oracle = PrivateScheduler()._build_clustering(workload, seed)
    assert distributed.built_distributed and not oracle.built_distributed
    assert distributed.num_layers == oracle.num_layers
    for lo, ld in zip(oracle.layers, distributed.layers):
        assert lo.center == ld.center
        assert [min(h, oracle.horizon) for h in lo.h_prime] == ld.h_prime
    result = PrivateScheduler(clustering=distributed).run(workload, seed)
    assert result.correct
    assert result.outputs == PrivateScheduler(clustering=oracle).run(workload, seed).outputs


def test_relayed_streams_are_few():
    """A node relays the running minima of (label → hop-count): a handful
    of streams — ``O(log n)`` — not one per overlapping ball."""
    net = topology.grid_graph(8, 8)
    protocol = CarvingProtocol(net, 6, layer=0, seed=2)
    programs = []
    make = protocol.make_program

    def recording_make(node, ctx):
        programs.append(make(node, ctx))
        return programs[-1]

    protocol.make_program = recording_make
    Simulator(net).run(protocol, seed=2)
    overlapping = max(len(program._pool) for program in programs)
    relayed = max(len(program._relay) for program in programs)
    assert relayed <= 6 < overlapping  # log2(n) = 6


def test_idle_hints_do_not_change_the_protocol(grid4):
    """The protocol's ``idle_until`` promises (flood wait, drained share
    queue) only skip no-op steps: erasing them changes nothing."""
    from unittest import mock

    from repro.congest.program import NodeProgram

    def observe():
        protocol = CarvingProtocol(grid4, 2, layer=1, seed=9)
        run = Simulator(grid4).run(protocol, seed=9)
        return run.outputs, list(run.trace.events()), run.rounds, run.completion_round

    shipped = observe()
    with mock.patch.object(NodeProgram, "idle_until", lambda self, round: None):
        erased = observe()
    assert shipped == erased
