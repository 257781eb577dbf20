"""h-hop broadcast (paper Section 1, special case I).

A single source spreads one token to every node within ``h`` hops. Running
``k`` of these together is the classical pipelined-broadcast problem
(Topkis 1985): the natural schedule takes ``O(k + h)`` rounds.

Solo behaviour: the source sends the token with a remaining-hop counter in
round 1; each node forwards the token once, decrementing the counter, until
it reaches zero. Solo dilation is exactly ``min(h, eccentricity(source))``
(or less if the token dies earlier), and every edge is used in at most two
rounds (once per direction), so a single broadcast has congestion ≤ 2.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Tuple

from ..congest.network import Network
from ..congest.program import Algorithm, NodeContext, NodeProgram
from ..congest.wave import Wave

__all__ = ["HopBroadcast", "Flooding"]


class _BroadcastProgram(NodeProgram):
    # Mirrored by _BroadcastWave: change both, then run
    # tests/core/test_hint_erasure.py.
    def __init__(self, source: int, token: Any, hops: int, deadline: int):
        super().__init__()
        self._source = source
        self._token = token
        self._hops = hops
        #: Round at which a node the token never reached gives up.
        self._deadline = deadline
        self._received: Optional[Any] = None

    def on_start(self, ctx: NodeContext) -> None:
        if ctx.node == self._source:
            self._received = self._token
            if self._hops >= 1:
                ctx.send_all((self._token, self._hops - 1))
            self.halt()
        else:
            self.idle_until(self._deadline)

    def on_round(self, ctx: NodeContext, inbox: Mapping[int, Any]) -> None:
        if self._received is None and inbox:
            token, remaining = next(iter(inbox.values()))
            self._received = token
            if remaining >= 1:
                for neighbor in ctx.neighbors:
                    if neighbor not in inbox:
                        ctx.send(neighbor, (token, remaining - 1))
            self.halt()
        elif ctx.round >= self._deadline:
            self.halt()

    def output(self) -> Any:
        return self._received


class _BroadcastWave(Wave):
    """:class:`_BroadcastProgram` as a wave (``hops`` is its deadline)."""

    __slots__ = ("token",)

    def __init__(self, source: int, token: Any, hops: int):
        super().__init__(source, hops)
        self.token = token

    def start(self) -> Tuple[Any, Any]:
        token = self.token
        return token, ((token, self.hops - 1) if self.hops >= 1 else None)

    def adopt(self, inbox: Mapping[int, Any]) -> Tuple[Any, Any]:
        token, remaining = next(iter(inbox.values()))
        return token, ((token, remaining - 1) if remaining >= 1 else None)


class HopBroadcast(Algorithm):
    """Broadcast ``token`` from ``source`` to its ``hops``-neighbourhood.

    Every node within ``hops`` of the source outputs the token; all other
    nodes output ``None``.
    """

    def __init__(self, source: int, token: Any, hops: int):
        if hops < 0:
            raise ValueError("hops must be non-negative")
        self.source = source
        self.token = token
        self.hops = hops

    @property
    def name(self) -> str:
        return f"HopBroadcast(src={self.source}, h={self.hops})"

    def make_program(self, node: int, ctx: NodeContext) -> NodeProgram:
        return _BroadcastProgram(
            self.source, self.token, self.hops, deadline=self.hops
        )

    def wave(self) -> Optional[Wave]:
        """A wave, unless a subclass builds its own programs."""
        if type(self).make_program is not HopBroadcast.make_program:
            return None
        return _BroadcastWave(self.source, self.token, self.hops)

    def max_rounds(self, network: Network) -> int:
        return self.hops + 2

    def expected_outputs(self, network: Network) -> dict:
        """Ground-truth outputs, for tests: token within ``hops``, else None."""
        ball = network.ball(self.source, self.hops)
        return {v: (self.token if v in ball else None) for v in network.nodes}


class Flooding(HopBroadcast):
    """Unbounded broadcast: flood ``token`` from ``source`` network-wide."""

    def __init__(self, source: int, token: Any, num_nodes_hint: int = 1 << 20):
        super().__init__(source, token, hops=num_nodes_hint)

    @property
    def name(self) -> str:
        return f"Flooding(src={self.source})"

    def max_rounds(self, network: Network) -> int:
        return network.num_nodes + 2
