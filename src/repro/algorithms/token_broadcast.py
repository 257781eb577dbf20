"""k-token dissemination: the classical pipelining result (paper case I).

``k`` tokens start at arbitrary source nodes; every node must learn all
of them. The classical analysis (Topkis 1985, the paper's [36]) shows
the natural algorithm — each round, forward the smallest token you know
and have not forwarded — completes in ``k + ecc`` rounds: perfect
pipelining, the phenomenon the paper's introduction opens with.

Distinct from :class:`~repro.algorithms.broadcast.HopBroadcast` (one
token, hop-limited) and from source detection (distances): here the
*payloads* are disseminated network-wide, and the per-edge congestion is
exactly ``k`` — a maximally *dense but pipelinable* workload member that
gives scheduling experiments the ``C = k·(#algorithms)`` regime.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Set, Tuple

from ..congest.network import Network
from ..congest.program import Algorithm, NodeContext, NodeProgram

__all__ = ["TokenBroadcast"]


class _TokenProgram(NodeProgram):
    def __init__(self, own_tokens: Tuple[int, ...], deadline: int):
        super().__init__()
        self._known: Set[int] = set(own_tokens)
        self._forwarded: Set[int] = set()
        self._deadline = deadline

    def _forward(self, ctx: NodeContext) -> None:
        pending = self._known - self._forwarded
        if pending:
            token = min(pending)
            self._forwarded.add(token)
            ctx.send_all(token)
        # With nothing left to forward, only a new token (a non-empty
        # inbox) or the deadline needs a step.
        self.idle_until(self._deadline if len(pending) <= 1 else 0)

    def on_start(self, ctx: NodeContext) -> None:
        self._forward(ctx)

    def on_round(self, ctx: NodeContext, inbox: Mapping[int, Any]) -> None:
        for _, token in sorted(inbox.items()):
            self._known.add(token)
        if ctx.round >= self._deadline:
            self.halt()
        else:
            self._forward(ctx)

    def output(self) -> Tuple[int, ...]:
        return tuple(sorted(self._known))


class TokenBroadcast(Algorithm):
    """Disseminate ``k`` tokens network-wide in ``k + diameter`` rounds.

    ``placement`` maps source node → tuple of tokens it starts with;
    ``deadline`` must be at least ``k + ecc(sources)`` (global knowledge;
    defaults are supplied by :meth:`for_network`). Every node outputs the
    sorted tuple of all tokens.
    """

    def __init__(self, placement: Dict[int, Tuple[int, ...]], deadline: int):
        if deadline < 1:
            raise ValueError("deadline must be positive")
        if not placement:
            raise ValueError("need at least one token")
        all_tokens = [t for tokens in placement.values() for t in tokens]
        if len(set(all_tokens)) != len(all_tokens):
            raise ValueError("tokens must be distinct")
        self.placement = {node: tuple(tokens) for node, tokens in placement.items()}
        self.num_tokens = len(all_tokens)
        self.deadline = deadline

    @classmethod
    def for_network(
        cls, network: Network, placement: Dict[int, Tuple[int, ...]]
    ) -> "TokenBroadcast":
        """Construct with the tight classical deadline ``k + diameter``."""
        k = sum(len(tokens) for tokens in placement.values())
        return cls(placement, deadline=k + network.diameter())

    @property
    def name(self) -> str:
        return f"TokenBroadcast(k={self.num_tokens}, T={self.deadline})"

    def make_program(self, node: int, ctx: NodeContext) -> NodeProgram:
        return _TokenProgram(self.placement.get(node, ()), self.deadline)

    def max_rounds(self, network: Network) -> int:
        return self.deadline + 2

    def expected_outputs(self, network: Network) -> dict:
        """Ground truth (valid when the deadline is large enough)."""
        everything = tuple(
            sorted(t for tokens in self.placement.values() for t in tokens)
        )
        return {v: everything for v in network.nodes}
