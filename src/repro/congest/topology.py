"""Standard network topologies used throughout the tests and benchmarks.

All generators return :class:`~repro.congest.network.Network` instances
with node ids ``0 .. n-1`` and are deterministic given their arguments
(random generators take an explicit ``seed``).

The lower-bound hard-instance topology of the paper's Section 3 lives in
:mod:`repro.lowerbound.hard_instance`; :func:`layered_graph` here builds
its raw layered network.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from ..errors import NetworkError
from .network import Network

__all__ = [
    "path_graph",
    "cycle_graph",
    "grid_graph",
    "complete_graph",
    "star_graph",
    "binary_tree",
    "random_regular",
    "gnp_connected",
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

    Retries with fresh seeds until networkx yields a connected sample
    (overwhelmingly likely for ``degree >= 3``).
    """
    if degree < 3:
        raise NetworkError("use degree >= 3 to guarantee likely connectivity")
    if n <= degree:
        raise NetworkError("need n > degree")
    import networkx as nx

    for attempt in range(64):
        g = nx.random_regular_graph(degree, n, seed=seed + attempt)
        if nx.is_connected(g):
            return Network.from_networkx(g)
    raise NetworkError(
        f"failed to sample a connected {degree}-regular graph on {n} nodes"
    )


def gnp_connected(n: int, p: float, seed: int = 0) -> Network:
    """A connected Erdős–Rényi ``G(n, p)`` sample (resampled until connected)."""
    if not 0 < p <= 1:
        raise NetworkError("p must be in (0, 1]")
    import networkx as nx

    for attempt in range(256):
        g = nx.gnp_random_graph(n, p, seed=seed + attempt)
        if nx.is_connected(g):
            return Network.from_networkx(g)
    raise NetworkError(f"failed to sample a connected G({n}, {p})")


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
