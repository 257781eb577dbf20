"""Multi-layer clustering: the full Lemma 4.2 object.

``Θ(log n)`` independent repetitions of ball carving, so that w.h.p.
every node's ``dilation``-neighbourhood is fully contained in a cluster in
``Θ(log n)`` of the layers. :class:`Clustering` bundles the layers with
the per-cluster shared randomness of Lemma 4.3 and the round-cost
accounting used by the private scheduler's pre-computation budget.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .._util import derive_seed
from ..congest.network import Network
from ..errors import CoverageError
from ..randomness.distributions import TruncatedExponential
from ..telemetry import NULL_RECORDER, Recorder
from .carving import ClusterLayer, carve_layer, draw_radii_and_labels_from

__all__ = [
    "Clustering",
    "build_clustering",
    "carving_horizon",
    "cluster_seed_bits",
    "default_num_layers",
    "default_sharing_chunks",
    "extend_clustering",
]


def default_num_layers(num_nodes: int, constant: float = 3.0) -> int:
    """``Θ(log n)`` layers; the constant trades pre-computation for
    coverage-failure probability."""
    return max(2, math.ceil(constant * math.log2(max(num_nodes, 2))))


def default_sharing_chunks(num_nodes: int) -> Tuple[int, int]:
    """``(num_chunks, chunk_bits)`` for the Lemma 4.3 spreading.

    ``Θ(log n)`` chunks of ``Θ(log n)`` bits each. The chunk size constant
    (32 bits) is sized so the total comfortably seeds a
    ``Θ(log n)``-wise independent generator over a ``poly(n)`` field
    (:func:`repro.randomness.kwise.seed_bits_required`).
    """
    num_chunks = max(2, math.ceil(math.log2(max(num_nodes, 2)))) + 4
    return num_chunks, 32


def carving_horizon(radius_scale: int, num_nodes: int, constant: float = 2.0) -> int:
    """The hop-count horizon ``H = Θ(R·log n)`` of Lemma 4.2."""
    return max(
        1, math.ceil(constant * radius_scale * math.log(max(num_nodes, 2)))
    )


def cluster_seed_bits(
    master_seed: int, layer: int, center: int, num_bits: int
) -> int:
    """The ``Θ(log² n)`` shared random bits of one cluster.

    In the distributed protocol the *centre* draws these from its private
    randomness and spreads them (Lemma 4.3); the oracle derives the same
    bits directly. Both use this one derivation so results agree.
    """
    rng = random.Random(derive_seed(master_seed, "cluster-rand", layer, center))
    return rng.getrandbits(num_bits)


@dataclass
class Clustering:
    """``Θ(log n)`` clustering layers plus cost accounting.

    ``precomputation_rounds`` is the number of CONGEST rounds the
    distributed construction spends: carving plus boundary detection plus
    randomness spreading, summed over layers — the ``O(dilation·log² n)``
    of Theorem 1.3. Oracle-built clusterings carry the *formula* cost of
    the protocol they shortcut, so reports stay honest about what a real
    deployment would pay.
    """

    network: Network
    layers: List[ClusterLayer]
    radius_scale: int
    horizon: int
    precomputation_rounds: int
    seed: int
    built_distributed: bool = False
    #: Shared random bits available per cluster (Lemma 4.3's Θ(log² n)).
    sharing_bits: int = 0
    horizon_constant: float = 2.0

    @property
    def num_layers(self) -> int:
        """Number of clustering layers."""
        return len(self.layers)

    # -- coverage ----------------------------------------------------------

    def covering_layers(self, node: int, radius: int) -> List[int]:
        """Indices of layers whose cluster contains the node's ball."""
        return [
            i for i, layer in enumerate(self.layers) if layer.covers(node, radius)
        ]

    def coverage_counts(self, radius: int) -> List[int]:
        """Per node, in how many layers its ``radius``-ball is covered."""
        return [
            len(self.covering_layers(v, radius)) for v in self.network.nodes
        ]

    def require_coverage(self, radius: int) -> None:
        """Raise :class:`~repro.errors.CoverageError` if some node's ball
        is covered in no layer (output selection would be impossible)."""
        misses = [
            v
            for v in self.network.nodes
            if not any(layer.covers(v, radius) for layer in self.layers)
        ]
        if misses:
            raise CoverageError(
                f"{len(misses)} nodes (e.g. {misses[:5]}) have their "
                f"{radius}-ball covered in no layer; increase num_layers"
            )

    # -- load-relevant structure -------------------------------------------

    def clusters_containing_edge(self, u: int, v: int) -> List[Tuple[int, int]]:
        """All (layer, centre) clusters containing both endpoints.

        Per layer the clusters partition the nodes, so an edge lies in at
        most one cluster per layer — hence at most ``Θ(log n)`` clusters
        in total, the fact Lemma 4.4's load analysis leans on.
        """
        out = []
        for i, layer in enumerate(self.layers):
            if layer.same_cluster(u, v):
                out.append((i, layer.center[u]))
        return out

    def max_weak_diameter(self) -> int:
        """Worst cluster weak diameter across layers (property (2))."""
        return max(layer.max_weak_diameter(self.network) for layer in self.layers)

    # -- per-cluster randomness ---------------------------------------------

    def shared_bits(self, layer: int, node: int, num_bits: int) -> int:
        """The shared random bits of the cluster containing ``node``."""
        center = self.layers[layer].center[node]
        return cluster_seed_bits(self.seed, layer, center, num_bits)


def build_clustering(
    network: Network,
    radius_scale: int,
    num_layers: Optional[int] = None,
    seed: int = 0,
    horizon_constant: float = 2.0,
    sharing_chunks: Optional[int] = None,
    recorder: Recorder = NULL_RECORDER,
) -> Clustering:
    """Centralized-oracle construction of the Lemma 4.2 clustering.

    Computes exactly what the distributed protocol computes (same radii,
    labels, assignment, and ``h'``) without simulating rounds, and charges
    the protocol's round cost:

    * carving: ``H`` rounds per layer,
    * boundary detection: ``1 + H`` rounds per layer,
    * randomness spreading (Lemma 4.3): ``H + #chunks`` rounds per layer,

    for ``H = Θ(radius_scale · log n)`` — total ``O(dilation·log² n)``.
    """
    if num_layers is None:
        num_layers = default_num_layers(network.num_nodes)
    if recorder.enabled:
        # Surface BFS cache/pruning behaviour (net.bfs_* counters) for
        # the carving + weak-diameter checks; purely observational.
        network.attach_recorder(recorder)
    horizon = carving_horizon(radius_scale, network.num_nodes, horizon_constant)
    if sharing_chunks is None:
        sharing_chunks, chunk_bits = default_sharing_chunks(network.num_nodes)
    else:
        chunk_bits = 32

    radius_distribution = TruncatedExponential.for_ball_carving(
        radius_scale, network.num_nodes, horizon_constant
    )
    rng = random.Random(0)
    layers = []
    for layer_index in range(num_layers):
        with recorder.span(
            "carve-layer", category="clustering", layer=layer_index
        ):
            radii, labels = draw_radii_and_labels_from(
                network, radius_distribution, seed, layer_index, rng
            )
            layers.append(carve_layer(network, radii, labels))
    if recorder.enabled:
        recorder.counter("clustering.layers_built", num_layers)

    per_layer = horizon + (1 + horizon) + 2 * (horizon + sharing_chunks)
    return Clustering(
        network=network,
        layers=layers,
        radius_scale=radius_scale,
        horizon=horizon,
        precomputation_rounds=num_layers * per_layer,
        seed=seed,
        built_distributed=False,
        sharing_bits=sharing_chunks * chunk_bits,
        horizon_constant=horizon_constant,
    )


def extend_clustering(clustering: Clustering, extra_layers: int) -> Clustering:
    """Append freshly drawn layers (used when coverage fell short).

    Mirrors what the distributed protocol would do: run ``extra_layers``
    more repetitions, paying their round cost. Layer indices continue
    from the existing count so draws are disjoint from previous layers'.
    """
    if extra_layers < 1:
        raise ValueError("extra_layers must be positive")
    network = clustering.network
    start = clustering.num_layers
    new_layers = list(clustering.layers)
    radius_distribution = TruncatedExponential.for_ball_carving(
        clustering.radius_scale, network.num_nodes, clustering.horizon_constant
    )
    rng = random.Random(0)
    for layer_index in range(start, start + extra_layers):
        radii, labels = draw_radii_and_labels_from(
            network, radius_distribution, clustering.seed, layer_index, rng
        )
        new_layers.append(carve_layer(network, radii, labels))
    per_layer = (
        clustering.precomputation_rounds // max(1, start)
        if start
        else 3 * clustering.horizon
    )
    return Clustering(
        network=network,
        layers=new_layers,
        radius_scale=clustering.radius_scale,
        horizon=clustering.horizon,
        precomputation_rounds=clustering.precomputation_rounds
        + per_layer * extra_layers,
        seed=clustering.seed,
        built_distributed=clustering.built_distributed,
        sharing_bits=clustering.sharing_bits,
        horizon_constant=clustering.horizon_constant,
    )
