"""The communication network underlying the CONGEST model.

The paper (Section 1) models the network as an undirected graph
``G = (V, E)`` with ``|V| = n``; communication proceeds in synchronous
rounds and in each round each node may send one ``O(log n)``-bit message to
each of its neighbours.

:class:`Network` is an immutable wrapper around such a graph offering the
queries that node programs, schedulers and the clustering machinery need:
neighbourhoods, balls, BFS distances, diameter, and canonical edge
indexing. Nodes are always the integers ``0 .. n-1``.

Hot-path design
---------------
The ball-carving layers (Lemma 4.2) and weak-diameter verification call
the distance queries ``Θ(log n)`` times per node, so :class:`Network`
keeps a bounded LRU cache of full single-source BFS results keyed by
source (the topology is immutable, so entries never go stale) and uses
early-terminating / cutoff BFS variants where a full sweep is wasted:

* :meth:`~Network.distance` stops its BFS as soon as the target is
  reached (or answers from a cached BFS in O(1));
* :meth:`~Network.weak_diameter` stops each member's BFS once every
  member has been reached, and skips members whose triangle-inequality
  upper bound cannot beat the best-so-far diameter;
* :meth:`~Network.bfs_distances` serves cutoff queries by slicing a
  cached full BFS (the discovery prefix of a full BFS is exactly the
  cutoff BFS, so results are bit-identical).

:attr:`~Network.bfs_stats` counts runs, cache hits, and early exits;
:meth:`~Network.attach_recorder` mirrors them into telemetry as
``net.bfs_*`` counters so the wins are visible in traces.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Set, Tuple

from ..errors import NetworkError

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["BfsStats", "Network", "Edge", "DirectedEdge"]

#: Default number of BFS source entries the per-network LRU cache keeps.
#: Each entry is one ``node -> distance`` dict (O(n) memory), so the
#: cache is bounded by ``O(n * DEFAULT_BFS_CACHE_SIZE)``.
DEFAULT_BFS_CACHE_SIZE = 128


@dataclass
class BfsStats:
    """Plain counters describing the BFS cache and pruning behaviour."""

    #: Full single-source BFS sweeps actually executed.
    runs: int = 0
    #: Queries answered (fully or partially) from the LRU cache.
    cache_hits: int = 0
    #: BFS sweeps that terminated before exploring the whole graph
    #: (distance target found / all weak-diameter members found).
    early_exits: int = 0
    #: Weak-diameter member BFS sweeps skipped by the best-so-far bound.
    pruned_sources: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Snapshot as a plain dict (stable keys, for reports)."""
        return {
            "runs": self.runs,
            "cache_hits": self.cache_hits,
            "early_exits": self.early_exits,
            "pruned_sources": self.pruned_sources,
        }


def require_networkx(caller: str):
    """The networkx module, or an ``ImportError`` naming the extra that
    installs it: networkx is optional, and only the export functions
    (``caller``) use it."""
    try:
        import networkx
    except ImportError as exc:
        raise ImportError(
            f"{caller} needs networkx; install it with `pip install 'repro[interop]'`"
        ) from exc
    return networkx


#: Canonical undirected edge: ``(min(u, v), max(u, v))``.
Edge = Tuple[int, int]

#: Directed edge (sender, receiver) — the unit of CONGEST bandwidth.
DirectedEdge = Tuple[int, int]


class Network:
    """An immutable, connected, simple undirected communication graph.

    Parameters
    ----------
    edges:
        Iterable of ``(u, v)`` pairs over node ids ``0 .. n-1``. Self loops
        and duplicate edges are rejected.
    num_nodes:
        Optional explicit node count. If omitted, inferred as
        ``max node id + 1``. Isolated nodes are rejected (the CONGEST model
        assumes a connected network).
    """

    #: Memo of :func:`repro.parallel.cache.network_fingerprint`. Like the
    #: BFS cache it is process-local and dropped on pickling; the class
    #: default also covers networks unpickled from older journals.
    _fingerprint: "str | None" = None

    def __init__(self, edges: Iterable[Tuple[int, int]], num_nodes: int | None = None):
        edge_set: Set[Edge] = set()
        max_node = -1
        for u, v in edges:
            if u == v:
                raise NetworkError(f"self loop at node {u}", node=u)
            if u < 0 or v < 0:
                raise NetworkError("node ids must be non-negative", edge=(u, v))
            edge = (u, v) if u < v else (v, u)
            if edge in edge_set:
                raise NetworkError(
                    f"duplicate edge {edge}: each undirected edge may be "
                    f"listed only once",
                    edge=edge,
                )
            edge_set.add(edge)
            max_node = max(max_node, u, v)
        if num_nodes is None:
            num_nodes = max_node + 1
        if max_node >= num_nodes:
            raise NetworkError(
                f"edge mentions node {max_node} but num_nodes={num_nodes}",
                node=max_node,
            )
        if num_nodes <= 0:
            raise NetworkError("a network needs at least one node")

        adjacency: List[List[int]] = [[] for _ in range(num_nodes)]
        for u, v in edge_set:
            adjacency[u].append(v)
            adjacency[v].append(u)
        for nbrs in adjacency:
            nbrs.sort()

        self._n = num_nodes
        self._adjacency: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(nbrs) for nbrs in adjacency
        )
        self._edges: Tuple[Edge, ...] = tuple(sorted(edge_set))
        self._edge_index: Dict[Edge, int] = {e: i for i, e in enumerate(self._edges)}
        self._diameter: int | None = None
        #: LRU of full BFS results: source -> {node: distance}. The
        #: topology is immutable, so entries never go stale; the cache is
        #: process-local and dropped on pickling.
        self._bfs_cache: "OrderedDict[int, Dict[int, int]]" = OrderedDict()
        self._bfs_cache_size = DEFAULT_BFS_CACHE_SIZE
        self.bfs_stats = BfsStats()
        self._recorder = None
        self._check_connected()

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``|E|``."""
        return len(self._edges)

    @property
    def nodes(self) -> range:
        """All node ids, ``0 .. n-1``."""
        return range(self._n)

    @property
    def edges(self) -> Tuple[Edge, ...]:
        """All canonical undirected edges, sorted."""
        return self._edges

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Sorted neighbours of ``v``."""
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        """Degree of ``v``."""
        return len(self._adjacency[v])

    def max_degree(self) -> int:
        """Maximum degree over all nodes."""
        return max(len(nbrs) for nbrs in self._adjacency)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge."""
        return (min(u, v), max(u, v)) in self._edge_index

    @staticmethod
    def canonical_edge(u: int, v: int) -> Edge:
        """The canonical (sorted) form of the undirected edge ``{u, v}``."""
        return (u, v) if u <= v else (v, u)

    def edge_id(self, u: int, v: int) -> int:
        """Dense index of the undirected edge ``{u, v}`` in :attr:`edges`."""
        return self._edge_index[self.canonical_edge(u, v)]

    # ------------------------------------------------------------------
    # distances
    # ------------------------------------------------------------------

    def attach_recorder(self, recorder) -> None:
        """Mirror BFS cache/pruning stats into ``net.bfs_*`` telemetry.

        Pass a :class:`repro.telemetry.Recorder`; ``None`` detaches. The
        recorder only observes — it cannot change any distance result.
        """
        self._recorder = recorder if recorder is not None and recorder.enabled else None

    def _note(self, counter: str) -> None:
        if self._recorder is not None:
            self._recorder.counter(f"net.{counter}")

    def _cached_bfs(self, source: int) -> Dict[int, int] | None:
        """The cached full BFS from ``source`` (refreshing its LRU slot)."""
        cached = self._bfs_cache.get(source)
        if cached is not None:
            self._bfs_cache.move_to_end(source)
            self.bfs_stats.cache_hits += 1
            self._note("bfs_cache_hits")
        return cached

    def _full_bfs(self, source: int) -> Dict[int, int]:
        """Full BFS from ``source``, cached under the LRU policy."""
        cached = self._cached_bfs(source)
        if cached is not None:
            return cached
        dist = {source: 0}
        frontier = deque([source])
        adjacency = self._adjacency
        while frontier:
            u = frontier.popleft()
            d = dist[u] + 1
            for w in adjacency[u]:
                if w not in dist:
                    dist[w] = d
                    frontier.append(w)
        self.bfs_stats.runs += 1
        self._note("bfs_runs")
        self._bfs_cache[source] = dist
        if len(self._bfs_cache) > self._bfs_cache_size:
            self._bfs_cache.popitem(last=False)
        return dist

    def bfs_distances(self, source: int, cutoff: int | None = None) -> Dict[int, int]:
        """Hop distances from ``source`` to every node within ``cutoff``.

        ``cutoff=None`` means no limit; the result then covers all nodes.
        The returned dict is always a fresh copy in BFS discovery order
        (a full BFS discovers nodes in the same order as any cutoff BFS
        up to the cutoff depth, so serving cutoffs by slicing a cached
        full sweep is bit-identical to running the cutoff BFS).
        """
        if cutoff is None:
            return dict(self._full_bfs(source))
        cached = self._cached_bfs(source)
        if cached is not None:
            return {v: d for v, d in cached.items() if d <= cutoff}
        dist = {source: 0}
        frontier = deque([source])
        adjacency = self._adjacency
        while frontier:
            u = frontier.popleft()
            d = dist[u]
            if d >= cutoff:
                continue
            for w in adjacency[u]:
                if w not in dist:
                    dist[w] = d + 1
                    frontier.append(w)
        self.bfs_stats.runs += 1
        self._note("bfs_runs")
        return dist

    def ball(self, center: int, radius: int) -> Set[int]:
        """The set of nodes within ``radius`` hops of ``center`` (inclusive)."""
        if radius < 0:
            return set()
        return set(self.bfs_distances(center, cutoff=radius))

    def distance(self, u: int, v: int) -> int:
        """Hop distance between ``u`` and ``v``.

        Answers from a cached BFS when one exists (either endpoint —
        distances are symmetric); otherwise runs a BFS from ``u`` that
        terminates as soon as ``v`` is reached instead of sweeping the
        whole graph.
        """
        if u == v:
            return 0
        cached = self._cached_bfs(u)
        if cached is not None:
            return cached[v]
        cached = self._cached_bfs(v)
        if cached is not None:
            return cached[u]
        dist = {u: 0}
        frontier = deque([u])
        adjacency = self._adjacency
        while frontier:
            x = frontier.popleft()
            d = dist[x] + 1
            for w in adjacency[x]:
                if w not in dist:
                    if w == v:
                        self.bfs_stats.runs += 1
                        self.bfs_stats.early_exits += 1
                        self._note("bfs_runs")
                        self._note("bfs_early_exits")
                        return d
                    dist[w] = d
                    frontier.append(w)
        self.bfs_stats.runs += 1
        self._note("bfs_runs")
        raise KeyError(v)  # unreachable: the network is connected

    def eccentricity(self, v: int) -> int:
        """Maximum distance from ``v`` to any node."""
        return max(self._full_bfs(v).values())

    def diameter(self) -> int:
        """Exact hop diameter ``D`` of the network (cached)."""
        if self._diameter is None:
            self._diameter = max(self.eccentricity(v) for v in self.nodes)
        return self._diameter

    def _member_distances(self, source: int, members: Set[int]) -> Dict[int, int]:
        """Distances from ``source`` to every node of ``members``.

        Runs a BFS that stops as soon as all members have been reached
        (instead of sweeping the whole graph); answers from the full-BFS
        cache when available.
        """
        cached = self._cached_bfs(source)
        if cached is not None:
            return {v: cached[v] for v in members}
        found = {source: 0} if source in members else {}
        missing = len(members) - len(found)
        dist = {source: 0}
        frontier = deque([source])
        adjacency = self._adjacency
        while frontier and missing:
            u = frontier.popleft()
            d = dist[u] + 1
            for w in adjacency[u]:
                if w not in dist:
                    dist[w] = d
                    frontier.append(w)
                    if w in members:
                        found[w] = d
                        missing -= 1
                        if not missing:
                            break
        self.bfs_stats.runs += 1
        self._note("bfs_runs")
        if len(dist) < self._n:
            self.bfs_stats.early_exits += 1
            self._note("bfs_early_exits")
        return found

    def weak_diameter(self, nodes: Iterable[int]) -> int:
        """Weak diameter of a node set: max *network* distance within it.

        Lemma 4.2 bounds cluster *weak* diameters — distances measured in
        ``G`` itself rather than in the induced subgraph. Exact, but
        pruned: each member's BFS stops once all members are found, and a
        member whose triangle-inequality upper bound
        ``d(s0, s) + max_v d(s0, v)`` cannot exceed the best-so-far
        diameter is skipped entirely (its eccentricity within the set
        cannot improve the maximum).
        """
        node_list = list(nodes)
        if not node_list:
            return 0
        members = set(node_list)
        s0 = node_list[0]
        dist0 = self._member_distances(s0, members)
        ecc0 = max(dist0.values())
        best = ecc0
        for s in node_list[1:]:
            if dist0[s] + ecc0 <= best:
                self.bfs_stats.pruned_sources += 1
                self._note("bfs_pruned_sources")
                continue
            ecc = max(self._member_distances(s, members).values())
            if ecc > best:
                best = ecc
        return best

    # ------------------------------------------------------------------
    # interop / misc
    # ------------------------------------------------------------------

    @classmethod
    def from_networkx(cls, graph: nx.Graph) -> "Network":
        """Build a :class:`Network` from a networkx graph.

        Node labels must already be ``0 .. n-1`` integers; use
        ``networkx.convert_node_labels_to_integers`` first otherwise.
        """
        return cls(graph.edges(), num_nodes=graph.number_of_nodes())

    def to_json(self) -> str:
        """Serialize the topology as JSON (for schedule artifacts)."""
        import json

        return json.dumps(
            {"num_nodes": self._n, "edges": [list(e) for e in self._edges]}
        )

    @classmethod
    def from_json(cls, text: str) -> "Network":
        """Rebuild a network serialized by :meth:`to_json`."""
        import json

        data = json.loads(text)
        return cls(
            (tuple(e) for e in data["edges"]), num_nodes=data["num_nodes"]
        )

    def to_networkx(self) -> nx.Graph:
        """Export as a networkx graph (nodes ``0..n-1``)."""
        nx = require_networkx("Network.to_networkx")
        g = nx.Graph()
        g.add_nodes_from(self.nodes)
        g.add_edges_from(self._edges)
        return g

    def __getstate__(self) -> Dict[str, object]:
        """Pickle support: the caches and recorder are process-local.

        A network crossing a process boundary (e.g. inside a workload
        shipped to a :class:`~repro.parallel.runner.ParallelRunner`
        worker) arrives with a fresh, empty cache and no recorder.
        """
        state = dict(self.__dict__)
        state["_bfs_cache"] = OrderedDict()
        state.pop("_fingerprint", None)
        state["bfs_stats"] = BfsStats()
        state["_recorder"] = None
        return state

    def _check_connected(self) -> None:
        if self._n == 1:
            return
        seen = self.bfs_distances(0)
        if len(seen) != self._n:
            missing = sorted(set(self.nodes) - set(seen))[:5]
            raise NetworkError(
                f"network is disconnected; e.g. nodes {missing} unreachable from 0"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Network(n={self._n}, m={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return self._n == other._n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._n, self._edges))
