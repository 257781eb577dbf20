"""Standard network topologies used throughout the tests and benchmarks.

All generators return :class:`~repro.congest.network.Network` instances
with node ids ``0 .. n-1`` and are deterministic given their arguments
(random generators take an explicit ``seed``).

The lower-bound hard-instance topology of the paper's Section 3 lives in
:mod:`repro.lowerbound.hard_instance`; :func:`layered_graph` here builds
its raw layered network.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..errors import NetworkError
from .network import Edge, Network

__all__ = [
    "path_graph",
    "cycle_graph",
    "grid_graph",
    "complete_graph",
    "star_graph",
    "binary_tree",
    "random_regular",
    "gnp_connected",
    "gnp_edges",
    "regular_edges",
    "layered_graph",
    "hypercube",
    "torus_graph",
    "lollipop_graph",
]


def path_graph(n: int) -> Network:
    """A path on ``n`` nodes: diameter ``n - 1``."""
    if n < 1:
        raise NetworkError("need at least one node")
    return Network(((i, i + 1) for i in range(n - 1)), num_nodes=n)


def cycle_graph(n: int) -> Network:
    """A cycle on ``n >= 3`` nodes: diameter ``⌊n/2⌋``."""
    if n < 3:
        raise NetworkError("a cycle needs at least 3 nodes")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Network(edges, num_nodes=n)


def grid_graph(rows: int, cols: int) -> Network:
    """A ``rows × cols`` grid; node ``(r, c)`` has id ``r * cols + c``."""
    if rows < 1 or cols < 1:
        raise NetworkError("grid dimensions must be positive")
    edges: List[Tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Network(edges, num_nodes=rows * cols)


def complete_graph(n: int) -> Network:
    """The complete graph ``K_n``."""
    if n < 2:
        raise NetworkError("a complete network needs at least 2 nodes")
    return Network(
        ((u, v) for u in range(n) for v in range(u + 1, n)), num_nodes=n
    )


def star_graph(n: int) -> Network:
    """A star: node 0 is the hub, nodes ``1 .. n-1`` are leaves."""
    if n < 2:
        raise NetworkError("a star needs at least 2 nodes")
    return Network(((0, i) for i in range(1, n)), num_nodes=n)


def binary_tree(depth: int) -> Network:
    """A complete binary tree of the given depth (root = node 0)."""
    if depth < 0:
        raise NetworkError("depth must be non-negative")
    n = 2 ** (depth + 1) - 1
    edges = []
    for v in range(1, n):
        edges.append(((v - 1) // 2, v))
    if n == 1:
        return Network([], num_nodes=1)
    return Network(edges, num_nodes=n)


def hypercube(dimension: int) -> Network:
    """The ``dimension``-dimensional hypercube on ``2^dimension`` nodes."""
    if dimension < 1:
        raise NetworkError("dimension must be at least 1")
    n = 1 << dimension
    edges = []
    for v in range(n):
        for b in range(dimension):
            u = v ^ (1 << b)
            if u > v:
                edges.append((v, u))
    return Network(edges, num_nodes=n)


def random_regular(n: int, degree: int, seed: int = 0) -> Network:
    """A connected random ``degree``-regular graph on ``n`` nodes.

    Attempt ``a`` samples from ``random.Random(seed + a)`` with
    :func:`regular_edges` until the sample is connected (overwhelmingly
    likely for ``degree >= 3``). Each attempt draws what
    ``networkx.random_regular_graph(degree, n, seed=seed + a)`` draws, so
    the graphs equal networkx 3.x's edge for edge.
    """
    if degree < 3:
        raise NetworkError("use degree >= 3 to guarantee likely connectivity")
    if n <= degree:
        raise NetworkError("need n > degree")
    if n * degree % 2:
        raise NetworkError("n * degree must be even")
    for attempt in range(64):
        edges = regular_edges(n, degree, random.Random(seed + attempt))
        if _connected(n, edges):
            return Network(edges, num_nodes=n)
    raise NetworkError(
        f"failed to sample a connected {degree}-regular graph on {n} nodes"
    )


def gnp_connected(n: int, p: float, seed: int = 0) -> Network:
    """A connected Erdős–Rényi ``G(n, p)`` sample (resampled until connected).

    Attempt ``a`` draws from ``random.Random(seed + a)`` with
    :func:`gnp_edges`, as ``networkx.gnp_random_graph(n, p, seed=seed + a)``
    does.
    """
    if not 0 < p <= 1:
        raise NetworkError("p must be in (0, 1]")
    if n < 1:
        raise NetworkError("need at least one node")
    for attempt in range(256):
        edges = gnp_edges(n, p, random.Random(seed + attempt))
        if _connected(n, edges):
            return Network(edges, num_nodes=n)
    raise NetworkError(f"failed to sample a connected G({n}, {p})")


def gnp_edges(n: int, p: float, rng: random.Random) -> List[Edge]:
    """Each pair of ``combinations(range(n), 2)`` is an edge iff its
    ``rng.random() < p``; ``p >= 1`` draws nothing and gives ``K_n``."""
    pairs = itertools.combinations(range(n), 2)
    if p >= 1:
        return list(pairs)
    return [pair for pair in pairs if rng.random() < p]


def regular_edges(n: int, degree: int, rng: random.Random) -> Set[Edge]:
    """A random ``degree``-regular edge set by Steger–Wormald pairing.

    Steger and Wormald, *Generating random regular graphs quickly*,
    Comb. Probab. Comput. 8 (1999). Each node gets ``degree`` stubs; a
    pass shuffles the open stubs and pairs them off in order, keeping
    every pair that is neither a loop nor an edge already taken. The
    stubs of rejected pairs, grouped by node in the order their nodes
    were first rejected, are the next pass's stubs. A pass after which
    :func:`_suitable` finds no pair of open nodes left to join fails the
    attempt, and pairing starts over from all stubs on the same ``rng``.
    ``n * degree`` must be even. The draws, the order of the re-stubs
    and the failure test are those of networkx 3.x's
    ``random_regular_graph``.
    """
    while True:
        edges = _pair_stubs(n, degree, rng)
        if edges is not None:
            return edges


def _pair_stubs(n: int, degree: int, rng: random.Random) -> Optional[Set[Edge]]:
    """One pairing attempt of :func:`regular_edges` (``None``: it failed)."""
    edges: Set[Edge] = set()
    stubs = list(range(n)) * degree
    while stubs:
        rejected: Dict[int, int] = {}
        rng.shuffle(stubs)
        pairing = iter(stubs)
        for s1, s2 in zip(pairing, pairing):
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 != s2 and (s1, s2) not in edges:
                edges.add((s1, s2))
            else:
                rejected[s1] = rejected.get(s1, 0) + 1
                rejected[s2] = rejected.get(s2, 0) + 1
        if not _suitable(edges, rejected):
            return None
        stubs = [node for node, count in rejected.items() for _ in range(count)]
    return edges


def _suitable(edges: Set[Edge], rejected: Dict[int, int]) -> bool:
    """Whether some pair of open nodes could still be joined.

    Kept as networkx writes it: the swap rebinds ``s1`` for the rest of
    the inner loop, so not every pair is looked at. The pairs it skips
    decide when an attempt fails, and with it the draws that follow.
    """
    if not rejected:
        return True
    for s1 in rejected:
        for s2 in rejected:
            if s1 == s2:
                break
            if s1 > s2:
                s1, s2 = s2, s1
            if (s1, s2) not in edges:
                return True
    return False


def _connected(n: int, edges: Iterable[Edge]) -> bool:
    """Whether ``edges`` connect all of ``0 .. n-1`` (checked before a
    :class:`Network` is built, since that rejects a disconnected graph)."""
    adjacency: List[List[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = [False] * n
    seen[0] = True
    stack = [0]
    reached = 1
    while stack:
        for v in adjacency[stack.pop()]:
            if not seen[v]:
                seen[v] = True
                reached += 1
                stack.append(v)
    return reached == n


def layered_graph(num_layers: int, width: int) -> Network:
    """The layered network of the paper's Section 3 (Figure 2).

    Nodes ``v_0 .. v_L`` (the "spine", ids ``0 .. L``) and layer sets
    ``U_1 .. U_L`` each of ``width`` nodes; every ``u ∈ U_i`` is adjacent
    to ``v_{i-1}`` and ``v_i``. Layer ``U_i`` occupies ids
    ``L + 1 + (i-1)·width .. L + i·width``.

    Total nodes: ``(L + 1) + L·width``.
    """
    if num_layers < 1 or width < 1:
        raise NetworkError("need at least one layer and positive width")
    spine = num_layers + 1
    edges: List[Tuple[int, int]] = []
    for layer in range(1, num_layers + 1):
        base = spine + (layer - 1) * width
        for j in range(width):
            u = base + j
            edges.append((layer - 1, u))
            edges.append((u, layer))
    return Network(edges, num_nodes=spine + num_layers * width)


def layered_layer_nodes(num_layers: int, width: int, layer: int) -> range:
    """Node ids of layer set ``U_layer`` in :func:`layered_graph`."""
    if not 1 <= layer <= num_layers:
        raise ValueError("layer out of range")
    spine = num_layers + 1
    base = spine + (layer - 1) * width
    return range(base, base + width)


def torus_graph(rows: int, cols: int) -> Network:
    """A ``rows × cols`` torus (grid with wraparound): vertex-transitive,
    diameter ``⌊rows/2⌋ + ⌊cols/2⌋``."""
    if rows < 3 or cols < 3:
        raise NetworkError("torus dimensions must be at least 3")
    edges: List[Tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            edges.append((v, r * cols + (c + 1) % cols))
            edges.append((v, ((r + 1) % rows) * cols + c))
    return Network(edges, num_nodes=rows * cols)


def lollipop_graph(clique_size: int, path_length: int) -> Network:
    """A clique with a path attached — the classic congestion hotspot.

    Traffic between the clique and the path tail funnels through one
    bridge edge, making per-edge congestion profiles maximally skewed
    (useful with :mod:`repro.metrics.profile`). Nodes ``0..clique-1``
    form the clique; the path continues from node ``clique_size - 1``.
    """
    if clique_size < 3 or path_length < 1:
        raise NetworkError("need clique >= 3 and path length >= 1")
    edges = [
        (u, v)
        for u in range(clique_size)
        for v in range(u + 1, clique_size)
    ]
    for i in range(path_length):
        edges.append((clique_size - 1 + i, clique_size + i))
    return Network(edges, num_nodes=clique_size + path_length)
