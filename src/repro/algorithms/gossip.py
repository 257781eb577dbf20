"""Randomized push gossip (rumour spreading).

Each round, every informed node pushes the rumour to one uniformly
random neighbour; runs for a fixed number of rounds. A deliberately
*randomized* workload member: its communication pattern depends on the
nodes' private coins, so no scheduler can anticipate it — and because the
package fixes each node's random tape as part of its input (paper
Section 2), scheduled executions still reproduce the solo outputs bit for
bit. The tests use it to pin down exactly that property.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from ..congest.network import Network
from ..congest.program import Algorithm, NodeContext, NodeProgram

__all__ = ["PushGossip"]


class _GossipProgram(NodeProgram):
    def __init__(self, source: int, rumor: Any, rounds: int):
        super().__init__()
        self._source = source
        self._rumor = rumor
        self._rounds = rounds
        self._informed_at: Optional[int] = None

    def _push(self, ctx: NodeContext) -> None:
        target = ctx.rng.choice(ctx.neighbors)
        ctx.send(target, self._rumor)

    def on_start(self, ctx: NodeContext) -> None:
        if ctx.node == self._source:
            self._informed_at = 0
            if self._rounds >= 1:
                self._push(ctx)
        else:
            # Uninformed nodes only wait: for the rumour or the budget.
            self.idle_until(self._rounds)

    def on_round(self, ctx: NodeContext, inbox: Mapping[int, Any]) -> None:
        if self._informed_at is None and inbox:
            self._informed_at = ctx.round
            self.idle_until(0)  # informed nodes push every round
        if ctx.round >= self._rounds:
            self.halt()
        elif self._informed_at is not None:
            self._push(ctx)

    def output(self):
        return self._informed_at


class PushGossip(Algorithm):
    """Spread a rumour by random pushes for a fixed number of rounds.

    Each node outputs the round in which it was informed (``None`` if
    never, ``0`` for the source). On connected graphs ``O(log n)`` rounds
    inform most nodes of an expander; the ``rounds`` budget is explicit
    because termination must be input-determined (black-box scheduling
    cannot depend on a global "everyone informed" detector).
    """

    def __init__(self, source: int, rounds: int, rumor: Any = "rumor"):
        if rounds < 0:
            raise ValueError("rounds must be non-negative")
        self.source = source
        self.rounds = rounds
        self.rumor = rumor

    @property
    def name(self) -> str:
        return f"PushGossip(src={self.source}, T={self.rounds})"

    def make_program(self, node: int, ctx: NodeContext) -> NodeProgram:
        return _GossipProgram(self.source, self.rumor, self.rounds)

    def max_rounds(self, network: Network) -> int:
        return self.rounds + 2
