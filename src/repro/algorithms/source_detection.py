"""(S, h, k) source detection — Lenzen & Peleg (PODC 2013), the paper's
reference [24].

Each node must learn the ``k`` closest sources within ``h`` hops (ties by
source id). The algorithm is pure pipelining: each round, each node
forwards the lexicographically smallest ``(distance, source)`` pair it
knows and has not forwarded, distances incrementing per hop; after
``h + k`` rounds every node knows its top-``k`` list.

This primitive is the engine inside Lemma 4.3's randomness spreading (the
"smallest Θ(log n) messages" pipelining) and also generalises case II of
the paper's introduction (k BFSs in O(k + h) rounds: every node learns
its distance to each of k sources). Having it standalone gives workloads
a tunable multi-source member and lets the tests validate the pipelining
bound that the clustering machinery relies on.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..congest.network import Network
from ..congest.program import Algorithm, NodeContext, NodeProgram

__all__ = ["SourceDetection", "true_source_lists"]


def true_source_lists(
    network: Network, sources, hops: int, top_k: int
) -> Dict[int, Tuple[Tuple[int, int], ...]]:
    """Ground truth: per node, the k smallest (distance, source) pairs
    within ``hops``."""
    pairs: Dict[int, List[Tuple[int, int]]] = {v: [] for v in network.nodes}
    for source in sorted(sources):
        for node, dist in network.bfs_distances(source, cutoff=hops).items():
            pairs[node].append((dist, source))
    return {
        v: tuple(sorted(lst)[:top_k]) for v, lst in pairs.items()
    }


class _SourceDetectionProgram(NodeProgram):
    def __init__(self, is_source: bool, hops: int, top_k: int, deadline: int):
        super().__init__()
        self._hops = hops
        self._top_k = top_k
        self._deadline = deadline
        #: Best known (distance, source) pairs: source -> distance.
        self._known: Dict[int, int] = {}
        self._forwarded: set = set()
        self._is_source = is_source

    def _absorb(self, node: int, inbox: Mapping[int, Any]) -> None:
        for _, (distance, source) in sorted(inbox.items()):
            distance += 1
            if distance <= self._hops and (
                source not in self._known or distance < self._known[source]
            ):
                self._known[source] = distance

    def _forward(self, ctx: NodeContext) -> None:
        best: Optional[Tuple[int, int]] = None
        candidates = 0
        for source, distance in self._known.items():
            pair = (distance, source)
            if pair in self._forwarded:
                continue
            if distance >= self._hops:
                continue  # no remaining budget
            candidates += 1
            if best is None or pair < best:
                best = pair
        if best is not None:
            self._forwarded.add(best)
            ctx.send_all(best)
        # With nothing left to forward, only a new pair (a non-empty
        # inbox) or the deadline needs a step.
        self.idle_until(self._deadline if candidates <= 1 else 0)

    def on_start(self, ctx: NodeContext) -> None:
        if self._is_source:
            self._known[ctx.node] = 0
        self._forward(ctx)

    def on_round(self, ctx: NodeContext, inbox: Mapping[int, Any]) -> None:
        self._absorb(ctx.node, inbox)
        if ctx.round >= self._deadline:
            self.halt()
        else:
            self._forward(ctx)

    def output(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(sorted((d, s) for s, d in self._known.items())[: self._top_k])


class SourceDetection(Algorithm):
    """Every node learns the ``top_k`` nearest of ``sources`` within
    ``hops`` hops, in ``hops + top_k`` rounds.

    Outputs the sorted tuple of (distance, source) pairs. Congestion per
    edge is at most ``top_k + O(1)`` pairs in each direction (each node
    forwards each pair once and only top-ranked pairs propagate), making
    this a mid-congestion, strongly pipelined workload member.
    """

    def __init__(self, sources, hops: int, top_k: int):
        if hops < 0 or top_k < 1:
            raise ValueError("need hops >= 0 and top_k >= 1")
        self.sources = frozenset(sources)
        if not self.sources:
            raise ValueError("need at least one source")
        self.hops = hops
        self.top_k = top_k

    @property
    def name(self) -> str:
        return f"SourceDetection(|S|={len(self.sources)}, h={self.hops}, k={self.top_k})"

    @property
    def deadline(self) -> int:
        """The Lenzen–Peleg round bound ``h + min(k, |S|)``."""
        return self.hops + min(self.top_k, len(self.sources))

    def make_program(self, node: int, ctx: NodeContext) -> NodeProgram:
        return _SourceDetectionProgram(
            node in self.sources, self.hops, self.top_k, self.deadline
        )

    def max_rounds(self, network: Network) -> int:
        return self.deadline + 2

    def expected_outputs(self, network: Network) -> dict:
        """Ground truth via centralized BFS from every source."""
        return true_source_lists(network, self.sources, self.hops, self.top_k)
