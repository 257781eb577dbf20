"""Ball carving: one layer of the Lemma 4.2 clustering (centralized form).

Every node ``u`` draws a radius ``r(u)`` from a truncated exponential with
scale ``R = Θ(dilation)`` and a uniformly random label ``ℓ(u)``; node ``v``
joins the cluster centred at the node ``w*`` with the smallest label among
all ``w`` whose ball ``B(w) = ball(w, r(w))`` contains ``v``. (Every node
is in its own ball, so everyone gets assigned.)

Properties (paper):
  (1) clusters are node-disjoint (it's a partition),
  (2) weak diameter is ``O(R·log n)`` (radii are truncated at the horizon),
  (3) each node's ``R``-neighbourhood is fully inside one cluster with
      constant probability (Bartal's analysis), and
  (4) each node can know its *contained radius* ``h'(v)`` — the largest
      ``h`` with ``ball(v, h) ⊆ cluster(v)``.

This module computes the same result the distributed CONGEST protocol of
:mod:`repro.clustering.distributed` computes, given the same radii and
labels — the tests assert that equivalence. The centralized form is used
as a fast oracle by benchmarks and by the private scheduler when the
caller does not want to pay simulated pre-computation time.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .._util import derive_seed_after, stable_hasher
from ..congest.network import Network
from ..randomness.distributions import TruncatedExponential

__all__ = [
    "ClusterLayer",
    "carve_draw",
    "carve_layer",
    "draw_radii_and_labels",
    "draw_radii_and_labels_from",
    "INFINITE_RADIUS",
]

#: Sentinel contained-radius for nodes of a boundary-less (whole-graph)
#: cluster: every ball, of any radius, stays inside the cluster. The
#: distributed protocol reports its flood horizon instead (it cannot
#: certify more), which coincides for every query radius ≤ horizon.
INFINITE_RADIUS = 1 << 30


@dataclass
class ClusterLayer:
    """One layer of clustering: a partition plus contained radii.

    Attributes
    ----------
    center:
        ``center[v]`` — the cluster centre node that ``v`` joined.
    h_prime:
        ``h_prime[v]`` — the largest ``h`` such that the whole
        ``h``-ball of ``v`` lies inside ``v``'s cluster (property (4)).
    radii, labels:
        The per-node draws this layer was carved from.
    """

    center: List[int]
    h_prime: List[int]
    radii: List[int]
    labels: List[int]

    @property
    def centers(self) -> Set[int]:
        """All nodes that own a non-empty cluster."""
        return set(self.center)

    def members(self, center: int) -> List[int]:
        """The nodes of one cluster."""
        return [v for v, c in enumerate(self.center) if c == center]

    def clusters(self) -> Dict[int, List[int]]:
        """``center -> members`` for all clusters."""
        out: Dict[int, List[int]] = {}
        for v, c in enumerate(self.center):
            out.setdefault(c, []).append(v)
        return out

    def covers(self, node: int, radius: int) -> bool:
        """Whether ``node``'s ``radius``-ball is inside its cluster."""
        return self.h_prime[node] >= radius

    def same_cluster(self, u: int, v: int) -> bool:
        """Whether two nodes share a cluster."""
        return self.center[u] == self.center[v]

    def max_weak_diameter(self, network: Network) -> int:
        """Maximum weak diameter over clusters (property (2)); exact but
        quadratic — meant for tests and experiment reporting."""
        return max(
            (network.weak_diameter(members) for members in self.clusters().values()),
            default=0,
        )


def draw_radii_and_labels(
    network: Network,
    radius_scale: int,
    seed: int,
    layer: int,
    horizon_constant: float = 2.0,
    label_bits: int = 64,
) -> Tuple[List[int], List[int]]:
    """Draw per-node radii and labels exactly as the distributed protocol.

    Node ``u`` draws from ``random.Random(derive_seed(seed, "carve",
    layer, u))`` — first the radius, then the label. The distributed
    CONGEST implementation uses the identical derivation from each node's
    *private* randomness, which is what makes the two implementations
    bit-for-bit comparable.

    Labels get the node id appended as a tie-breaker, so they are distinct
    with certainty (the paper gets distinctness w.h.p. from 4·log n bits).
    """
    distribution = TruncatedExponential.for_ball_carving(
        radius_scale, network.num_nodes, horizon_constant
    )
    return draw_radii_and_labels_from(network, distribution, seed, layer, label_bits)


def draw_radii_and_labels_from(
    network: Network,
    distribution: TruncatedExponential,
    seed: int,
    layer: int,
    label_bits: int = 64,
) -> Tuple[List[int], List[int]]:
    """:func:`draw_radii_and_labels` from a radius distribution the
    caller built once (``TruncatedExponential.for_ball_carving``) for
    every layer it carves."""
    radii: List[int] = []
    labels: List[int] = []
    prefix = stable_hasher(seed, "carve", layer)
    rng = random.Random()
    for u in network.nodes:
        radius, label = carve_draw(prefix, u, distribution, label_bits, rng)
        radii.append(radius)
        labels.append(label)
    return radii, labels


def carve_draw(
    prefix: "hashlib._Hash",
    node: int,
    distribution: TruncatedExponential,
    label_bits: int,
    rng: Optional[random.Random] = None,
) -> Tuple[int, int]:
    """``node``'s radius and label in the layer ``prefix`` names.

    ``prefix`` is ``stable_hasher(seed, "carve", layer)``; the node's
    private generator is seeded with ``derive_seed(seed, "carve", layer,
    node)`` and draws the radius, then the label (the node id appended).
    ``rng``, when given, is reseeded instead of building a new one: the
    oracle reuses one over a whole layer.
    """
    seed = derive_seed_after(prefix, node)
    if rng is None:
        rng = random.Random(seed)
    else:
        rng.seed(seed)
    return distribution.sample(rng), (rng.getrandbits(label_bits) << 32) | node


def carve_layer(
    network: Network,
    radii: Sequence[int],
    labels: Sequence[int],
) -> ClusterLayer:
    """Carve one clustering layer from given radii and labels.

    Processes candidate centres in increasing label order; each claims the
    still-unassigned part of its ball. Because smaller labels always win,
    a node ends up with exactly the smallest label among balls containing
    it — the paper's assignment rule.
    """
    n = network.num_nodes
    if len(radii) != n or len(labels) != n:
        raise ValueError("need one radius and one label per node")
    if len(set(labels)) != n:
        raise ValueError("labels must be distinct")

    center: List[Optional[int]] = [None] * n
    order = sorted(network.nodes, key=lambda u: labels[u])
    unassigned = n
    for u in order:
        if unassigned == 0:
            break
        # BFS from u up to radius r(u), claiming unassigned nodes. The
        # BFS must traverse *all* nodes in the ball (even already-claimed
        # ones) because balls are metric balls in G, not in any subgraph.
        limit = radii[u]
        dist = {u: 0}
        queue = deque([u])
        if center[u] is None:
            center[u] = u
            unassigned -= 1
        while queue:
            x = queue.popleft()
            d = dist[x]
            if d >= limit:
                continue
            for y in network.neighbors(x):
                if y not in dist:
                    dist[y] = d + 1
                    queue.append(y)
                    if center[y] is None:
                        center[y] = u
                        unassigned -= 1

    assert all(c is not None for c in center)
    assigned: List[int] = center  # type: ignore[assignment]

    h_prime = _contained_radii(network, assigned)
    return ClusterLayer(
        center=assigned,
        h_prime=h_prime,
        radii=list(radii),
        labels=list(labels),
    )


def _contained_radii(network: Network, center: Sequence[int]) -> List[int]:
    """``h'(v)`` = distance from ``v`` to the nearest boundary node.

    A *boundary* node has a neighbour in a different cluster. The nearest
    node of a different cluster is always one hop beyond the nearest
    boundary node of one's own cluster, so a multi-source BFS from all
    boundary nodes yields every ``h'`` in ``O(m)``. With a single cluster
    (no boundary) every ``h'`` is :data:`INFINITE_RADIUS`.
    """
    n = network.num_nodes
    boundary = [
        v
        for v in network.nodes
        if any(center[u] != center[v] for u in network.neighbors(v))
    ]
    if not boundary:
        return [INFINITE_RADIUS] * n
    dist = [-1] * n
    queue = deque()
    for b in boundary:
        dist[b] = 0
        queue.append(b)
    while queue:
        x = queue.popleft()
        for y in network.neighbors(x):
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist
