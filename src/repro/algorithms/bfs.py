"""Breadth-first search (paper Section 1, special case II).

Each BFS spreads a wavefront from its source; node ``v`` at distance ``d``
receives the wave in round ``d`` and learns its distance and a BFS parent.
Running many BFSs together is the setting of Holzer–Wattenhofer (n BFSs in
``O(n)`` rounds) and Lenzen–Peleg (``k`` h-hop BFSs in ``O(k + h)``).

The paper uses BFS as its running example of an algorithm whose
communication pattern cannot be known before execution: a node does not
know in which round, or from which neighbour, the wave will arrive.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Tuple

from ..congest.network import Network
from ..congest.program import Algorithm, NodeContext, NodeProgram
from ..congest.wave import Wave

__all__ = ["BFS"]


class _BFSProgram(NodeProgram):
    # Mirrored by _BFSWave: change both, then run tests/core/test_hint_erasure.py.
    def __init__(self, source: int, hops: int):
        super().__init__()
        self._source = source
        self._hops = hops
        self._distance: Optional[int] = None
        self._parent: Optional[int] = None

    def on_start(self, ctx: NodeContext) -> None:
        if ctx.node == self._source:
            self._distance = 0
            self._parent = ctx.node
            if self._hops >= 1:
                ctx.send_all(0)
            self.halt()
        else:
            # Until the wave arrives there is nothing to do but give up
            # at the hop bound.
            self.idle_until(self._hops)

    def on_round(self, ctx: NodeContext, inbox: Mapping[int, Any]) -> None:
        if self._distance is None and inbox:
            # All arriving announcements carry the same distance ctx.round-1;
            # adopt the smallest sender id as parent for determinism.
            parent = min(inbox)
            self._distance = inbox[parent] + 1
            self._parent = parent
            if self._distance < self._hops:
                for neighbor in ctx.neighbors:
                    if neighbor not in inbox:
                        ctx.send(neighbor, self._distance)
            self.halt()
        elif ctx.round >= self._hops:
            self.halt()

    def output(self) -> Optional[Tuple[int, int]]:
        if self._distance is None:
            return None
        return (self._distance, self._parent)


class _BFSWave(Wave):
    """:class:`_BFSProgram` as a wave (``hops`` is its deadline)."""

    __slots__ = ()

    def start(self) -> Tuple[Any, Any]:
        return (0, self.source), (0 if self.hops >= 1 else None)

    def adopt(self, inbox: Mapping[int, Any]) -> Tuple[Any, Any]:
        parent = min(inbox)
        distance = inbox[parent] + 1
        return (distance, parent), (distance if distance < self.hops else None)


class BFS(Algorithm):
    """h-hop BFS from ``source``; each reached node outputs
    ``(distance, parent)``, unreached nodes output ``None``.

    Solo dilation is ``min(hops, eccentricity(source))``; each edge carries
    messages in at most two rounds, so a single BFS has congestion ≤ 2.
    """

    def __init__(self, source: int, hops: Optional[int] = None):
        self.source = source
        self.hops = hops if hops is not None else (1 << 30)

    @property
    def name(self) -> str:
        return f"BFS(src={self.source}, h={self.hops})"

    def make_program(self, node: int, ctx: NodeContext) -> NodeProgram:
        return _BFSProgram(self.source, self.hops)

    def wave(self) -> Optional[Wave]:
        """A wave, unless a subclass builds its own programs."""
        if type(self).make_program is not BFS.make_program:
            return None
        return _BFSWave(self.source, self.hops)

    def max_rounds(self, network: Network) -> int:
        return min(self.hops, network.num_nodes) + 2

    def expected_outputs(self, network: Network) -> dict:
        """Ground truth for tests: distances within ``hops`` (parents vary)."""
        dist = network.bfs_distances(self.source, cutoff=min(self.hops, network.num_nodes))
        return {
            v: (dist[v] if v in dist else None) for v in network.nodes
        }
