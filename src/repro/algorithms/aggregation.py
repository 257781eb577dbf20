"""Convergecast aggregation: BFS-tree build plus upcast to the root.

A classic two-phase CONGEST pattern. Phase one (rounds ``1..H``) floods a
BFS wave from the root so every node learns its depth and parent. Phase
two upcasts partial aggregates: a node at depth ``d`` sends its subtree
aggregate to its parent in round ``2H - d + 1``, so partial aggregates
arrive exactly when needed and the root knows the global aggregate by
round ``2H``.

Solo dilation is ``2H + 1 = O(H)`` and congestion per edge is ``O(1)``
(the wave uses an edge at most twice, the upcast uses each tree edge
once), making this a good "deep but thin" workload member.

``H`` must be an upper bound on the root's eccentricity; it is global
knowledge given to the algorithm up front, which is standard (nodes
knowing ``n`` or ``D``).
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, Mapping, Optional

from ..congest.network import Network
from ..congest.program import Algorithm, NodeContext, NodeProgram

__all__ = ["Aggregation", "SUM", "MIN", "MAX"]

# operator.add rather than a lambda: lambdas render with a memory
# address, which would make SUM-aggregation jobs unfingerprintable
# (registry bypass) and unspeakable in the spec language.
SUM = ("sum", operator.add)
MIN = ("min", min)
MAX = ("max", max)


class _AggregationProgram(NodeProgram):
    def __init__(
        self,
        root: int,
        height: int,
        value: int,
        combine: Callable[[Any, Any], Any],
    ):
        super().__init__()
        self._root = root
        self._height = height
        self._value = value
        self._combine = combine
        self._depth: Optional[int] = None
        self._parent: Optional[int] = None
        self._aggregate = value
        self._result: Optional[Any] = None

    def on_start(self, ctx: NodeContext) -> None:
        if ctx.node == self._root:
            self._depth = 0
            ctx.send_all(("wave", 0))
        # Nothing to do unprompted before the upcast slot of depth 0 —
        # which is also when an unreached node gives up.
        self.idle_until(2 * self._height)

    def on_round(self, ctx: NodeContext, inbox: Mapping[int, Any]) -> None:
        for sender, message in sorted(inbox.items()):
            kind, payload = message
            if kind == "wave" and self._depth is None:
                self._depth = payload + 1
                self._parent = sender
                # Next unprompted action: this depth's upcast slot.
                self.idle_until(2 * self._height - self._depth)
                if self._depth < self._height:
                    for neighbor in ctx.neighbors:
                        if neighbor not in inbox:
                            ctx.send(neighbor, ("wave", self._depth))
            elif kind == "up":
                self._aggregate = self._combine(self._aggregate, payload)

        if self._depth is not None and ctx.round == 2 * self._height - self._depth:
            if self._parent is not None:
                ctx.send(self._parent, ("up", self._aggregate))
            else:
                self._result = self._aggregate
            self.halt()
        elif ctx.round >= 2 * self._height:
            # Unreachable within H hops (cannot happen when H >= ecc(root)).
            self.halt()

    def output(self) -> Any:
        return self._result


class Aggregation(Algorithm):
    """Aggregate per-node ``values`` at ``root`` over a BFS tree.

    The root outputs the aggregate of all node values under ``op`` (one of
    :data:`SUM`, :data:`MIN`, :data:`MAX` or any ``(name, fn)`` pair with
    ``fn`` associative and commutative); all other nodes output ``None``.
    """

    def __init__(
        self,
        root: int,
        values: Dict[int, Any],
        height: int,
        op=SUM,
    ):
        if height < 1:
            raise ValueError("height must be at least 1")
        self.root = root
        self.values = dict(values)
        self.height = height
        self.op_name, self.combine = op

    @property
    def name(self) -> str:
        return f"Aggregation(root={self.root}, op={self.op_name}, H={self.height})"

    def make_program(self, node: int, ctx: NodeContext) -> NodeProgram:
        return _AggregationProgram(
            self.root, self.height, self.values.get(node, 0), self.combine
        )

    def max_rounds(self, network: Network) -> int:
        return 2 * self.height + 2

    def expected_outputs(self, network: Network) -> dict:
        """Ground truth for tests (requires ``height >= ecc(root)``)."""
        total = None
        for v in network.nodes:
            value = self.values.get(v, 0)
            total = value if total is None else self.combine(total, value)
        return {v: (total if v == self.root else None) for v in network.nodes}
