"""The Bellagio derandomization harness (paper Appendix A, Meta-Theorem A.1).

Removes the shared-randomness assumption from a *Bellagio*
(pseudo-deterministic) distributed algorithm: one whose per-node output
is a canonical value in a majority of executions, with randomness only
affecting speed, not results.

Given a factory ``make(shared_seed) -> Algorithm`` for a ``T``-round
algorithm whose outputs depend only on each node's ``locality``-hop
neighbourhood:

1. carve ``Θ(log n)`` clustering layers with radius scale
   ``Θ(locality)`` (Lemma 4.2) — each cluster will use its own seed;
2. derive each cluster's seed from its centre's private randomness and
   share it inside the cluster (Lemma 4.3 — here via the same
   :func:`~repro.clustering.layers.cluster_seed_bits` derivation the
   distributed spreading protocol computes);
3. per layer, run the per-cluster instances truncated at each node's
   contained radius ``h'`` — one layer at a time, ``T`` big-rounds each;
4. every node outputs the value from a layer whose cluster contains its
   whole ``locality``-ball: there, the truncated execution is
   indistinguishable from a full run of the algorithm with that cluster's
   seed as shared randomness.

Total cost: ``O(T·log² n)`` rounds of clustering plus ``O(T·log n)``
rounds of simulation — the Meta-Theorem's ``O(T log² n)`` (the ``R``-bit
seed-spreading term is covered by the Lemma 4.3 accounting inside the
clustering cost).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..clustering.layers import (
    Clustering,
    build_clustering,
    cluster_seed_bits,
    extend_clustering,
)
from ..congest.network import Network
from ..congest.program import Algorithm, make_group
from ..congest.wave import StepGroup
from ..errors import CoverageError

__all__ = ["BellagioResult", "run_with_private_randomness"]


@dataclass
class BellagioResult:
    """Result of a derandomized execution."""

    outputs: Dict[int, Any]
    #: Layer each node's output was taken from.
    output_layer: Dict[int, int]
    precomputation_rounds: int
    simulation_rounds: int
    num_layers: int

    @property
    def total_rounds(self) -> int:
        """Clustering plus simulation cost."""
        return self.precomputation_rounds + self.simulation_rounds


def run_with_private_randomness(
    network: Network,
    make_algorithm: Callable[[int], Algorithm],
    locality: int,
    seed: int = 0,
    seed_bits: int = 128,
    num_layers: Optional[int] = None,
    radius_factor: float = 2.0,
    max_coverage_retries: int = 3,
) -> BellagioResult:
    """Run a shared-randomness algorithm using only private randomness.

    ``make_algorithm(shared_seed)`` must build the algorithm for a given
    shared seed; ``locality`` is the hop radius its outputs depend on
    (at most its round complexity ``T``).
    """
    radius_scale = max(1, math.ceil(radius_factor * locality))
    clustering = build_clustering(
        network, radius_scale, num_layers=num_layers, seed=seed
    )
    for attempt in range(max_coverage_retries + 1):
        misses = [
            v
            for v in network.nodes
            if not clustering.covering_layers(v, locality)
        ]
        if not misses:
            break
        if attempt == max_coverage_retries:
            raise CoverageError(
                f"{len(misses)} nodes uncovered after retries; e.g. {misses[:5]}"
            )
        clustering = extend_clustering(clustering, max(2, clustering.num_layers))

    outputs: Dict[int, Any] = {}
    output_layer: Dict[int, int] = {}
    simulation_rounds = 0

    for layer_index, layer in enumerate(clustering.layers):
        needed = [
            v
            for v in network.nodes
            if v not in outputs and layer.h_prime[v] >= locality
        ]
        # Every layer runs (and is paid for) — nodes cannot cheaply agree
        # globally on which layers are dispensable; they only read outputs
        # from their first covering layer.
        rounds = _run_layer(
            network, make_algorithm, clustering, layer_index, seed, seed_bits,
            outputs, output_layer, needed,
        )
        simulation_rounds += rounds

    missing = [v for v in network.nodes if v not in outputs]
    if missing:  # pragma: no cover - excluded by the coverage loop above
        raise CoverageError(f"nodes {missing[:5]} got no output")

    return BellagioResult(
        outputs=outputs,
        output_layer=output_layer,
        precomputation_rounds=clustering.precomputation_rounds,
        simulation_rounds=simulation_rounds,
        num_layers=clustering.num_layers,
    )


def _run_layer(
    network: Network,
    make_algorithm: Callable[[int], Algorithm],
    clustering: Clustering,
    layer_index: int,
    seed: int,
    seed_bits: int,
    outputs: Dict[int, Any],
    output_layer: Dict[int, int],
    needed: List[int],
) -> int:
    """Run all of one layer's per-cluster instances, truncated at ``h'``.

    Clusters of one layer are node-disjoint, so all run simultaneously;
    the round cost of the layer is the longest truncated execution.
    """
    layer = clustering.layers[layer_index]
    h_prime = layer.h_prime
    center_of = layer.center
    run_to_halt = set(needed)
    # One host group per cluster: its own algorithm instance (built from
    # the cluster's shared seed) and its own tape id.
    groups: List[StepGroup] = []
    cap = 0
    for center, members in layer.clusters().items():
        shared_seed = cluster_seed_bits(seed, layer_index, center, seed_bits)
        algorithm = make_algorithm(shared_seed)
        hard_cap = algorithm.max_rounds(network)
        cap = max(cap, hard_cap)
        limits = {
            v: hard_cap if v in run_to_halt else h_prime[v] for v in members
        }
        groups.append(
            make_group(
                algorithm, members, network, seed,
                ("bellagio", layer_index, center), limits=limits,
            )
        )

    # Synchronous big-round loop; messages across cluster boundaries (or
    # beyond a sender's executed prefix) are discarded, as in Lemma 4.4.
    pending: Dict[int, Dict[int, Any]] = {}
    rounds_used = 0

    def ship(sender: int, sends, msg_round: int) -> None:
        # Emissions are allowed through round h'(sender) + 1: a round-t
        # send first influences nodes at distance >= 1, whose contained
        # radii are at most h'(sender) + 1 (see cluster_engine docstring).
        if msg_round > h_prime[sender] + 1:
            return
        for receiver, payload in sends:
            if center_of[receiver] == center_of[sender]:
                pending.setdefault(receiver, {})[sender] = payload

    for group in groups:
        for v, sends in group.start():
            ship(v, sends, 1)

    while rounds_used < cap:
        rounds_used += 1
        deliveries, pending = pending, {}
        for group in groups:
            for v, sends in group.step(rounds_used, deliveries):
                ship(v, sends, rounds_used + 1)
        if not pending and all(group.finished() for group in groups):
            break

    layer_outputs: Dict[int, Any] = {}
    for group in groups:
        layer_outputs.update(group.outputs())
    for v in needed:
        outputs[v] = layer_outputs[v]
        output_layer[v] = layer_index
    return rounds_used
