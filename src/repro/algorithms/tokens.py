"""Synthetic algorithms with controlled communication patterns.

The scheduling theorems are about *arbitrary* algorithms characterised only
by their congestion and dilation, so the benchmark workloads need
algorithms whose footprints we can dial precisely:

* :class:`PathToken` — a token walks a fixed path one hop per round: the
  packet-routing primitive (paper Section 1, item III). Dilation = path
  length, congestion contribution 1 per path edge.
* :class:`FixedPattern` — replays an arbitrary communication pattern. With
  ``chained=True`` payloads are digests of each sender's causal history, so
  any scheduler that breaks causal order or loses a message corrupts the
  receivers' outputs — a built-in tamper-evident seal used by the
  verification machinery.
* :func:`random_pattern` — samples a random pattern with a target number
  of events per round, for load experiments.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .._util import derive_seed, stable_digest
from ..congest.network import Network
from ..congest.pattern import CommunicationPattern, PatternEvent
from ..congest.program import Algorithm, NodeContext, NodeProgram

__all__ = ["PathToken", "FixedPattern", "random_pattern", "random_walk_pattern"]


# ---------------------------------------------------------------------------
# PathToken
# ---------------------------------------------------------------------------


class _PathTokenProgram(NodeProgram):
    def __init__(self, path: Sequence[int], token: Any, position: Optional[int]):
        super().__init__()
        self._path = path
        self._token = token
        # Index of this node in the path (None if not on it). A node may
        # appear multiple times only in non-simple paths, which we reject.
        self._position = position
        self._received: Optional[Any] = None

    def on_start(self, ctx: NodeContext) -> None:
        if self._position == 0:
            self._received = self._token
            if len(self._path) > 1:
                ctx.send(self._path[1], self._token)
            self.halt()
        elif self._position is None:
            self.halt()
        else:
            # The token arrives (or provably never will) in round = index.
            self.idle_until(self._position)

    def on_round(self, ctx: NodeContext, inbox: Mapping[int, Any]) -> None:
        expected_round = self._position  # token arrives in round = index
        if ctx.round == expected_round:
            if inbox:
                self._received = next(iter(inbox.values()))
                if self._position + 1 < len(self._path):
                    ctx.send(self._path[self._position + 1], self._received)
            self.halt()

    def output(self) -> Any:
        if self._position is None:
            return None
        if self._position + 1 == len(self._path):
            return self._received
        return "relayed" if self._received is not None else None


class PathToken(Algorithm):
    """Route one token along a fixed simple path, one hop per round.

    The destination (last path node) outputs the token; intermediate nodes
    output ``"relayed"``. This is exactly one packet of the LMR packet
    routing problem; its dilation is ``len(path) - 1`` and it loads each
    path edge in exactly one round.
    """

    def __init__(self, path: Sequence[int], token: Any):
        if len(path) < 1:
            raise ValueError("path must contain at least one node")
        if len(set(path)) != len(path):
            raise ValueError("path must be simple (no repeated nodes)")
        self.path = tuple(path)
        self.token = token

    @property
    def name(self) -> str:
        return f"PathToken({self.path[0]}->{self.path[-1]}, len={len(self.path) - 1})"

    def make_program(self, node: int, ctx: NodeContext) -> NodeProgram:
        position = self.path.index(node) if node in self.path else None
        return _PathTokenProgram(self.path, self.token, position)

    def max_rounds(self, network: Network) -> int:
        return len(self.path) + 2

    def expected_outputs(self, network: Network) -> dict:
        """Ground truth: token at the destination, "relayed" en route."""
        outputs: Dict[int, Any] = {v: None for v in network.nodes}
        for v in self.path[:-1]:
            outputs[v] = "relayed"
        outputs[self.path[-1]] = self.token
        outputs[self.path[0]] = self.token if len(self.path) == 1 else "relayed"
        return outputs


# ---------------------------------------------------------------------------
# FixedPattern
# ---------------------------------------------------------------------------


def _digest16(*parts: Any) -> int:
    return int.from_bytes(stable_digest(*parts)[:2], "big")


class _FixedPatternProgram(NodeProgram):
    def __init__(
        self,
        sends_by_round: Dict[int, List[int]],
        last_round: int,
        chained: bool,
        label: Any,
    ):
        super().__init__()
        self._sends_by_round = sends_by_round
        self._last_round = last_round
        self._chained = chained
        self._label = label
        self._state = _digest16("init", label)
        self._log: List[Tuple[int, int, int]] = []

    def _payload(self, round_index: int, dst: int) -> int:
        if self._chained:
            return _digest16("msg", self._label, round_index, dst, self._state)
        return _digest16("msg", self._label, round_index, dst)

    def on_start(self, ctx: NodeContext) -> None:
        for dst in self._sends_by_round.get(1, ()):
            ctx.send(dst, self._payload(1, dst))
        if self._last_round == 0:
            self.halt()

    def on_round(self, ctx: NodeContext, inbox: Mapping[int, Any]) -> None:
        for sender in sorted(inbox):
            payload = inbox[sender]
            self._log.append((ctx.round, sender, payload))
            if self._chained:
                self._state = _digest16("absorb", self._state, sender, payload)
        next_round = ctx.round + 1
        for dst in self._sends_by_round.get(next_round, ()):
            ctx.send(dst, self._payload(next_round, dst))
        if ctx.round >= self._last_round:
            self.halt()

    def output(self) -> Any:
        return (tuple(self._log), self._state if self._chained else 0)


class FixedPattern(Algorithm):
    """Replay a fixed communication pattern as an algorithm.

    Each node sends at exactly the rounds the pattern prescribes. Each
    node's output is the full log of (round, sender, payload) triples it
    received, plus (when ``chained``) a digest of its causal history —
    any scheduling error that reorders, drops or duplicates a message
    changes some node's output and is caught by output verification.

    ``label`` distinguishes the payload streams of different pattern
    algorithms in one workload (defaults to a digest of the pattern).
    """

    def __init__(
        self,
        pattern: CommunicationPattern,
        chained: bool = True,
        label: Any = None,
    ):
        self.pattern = pattern
        self.chained = chained
        self.label = label if label is not None else _digest16(sorted(pattern.events))
        # node -> round -> [destinations]
        sends: Dict[int, Dict[int, List[int]]] = defaultdict(lambda: defaultdict(list))
        for r, u, v in sorted(pattern.events):
            sends[u][r].append(v)
        self._sends = {u: dict(by_round) for u, by_round in sends.items()}

    @property
    def name(self) -> str:
        return f"FixedPattern(events={len(self.pattern)}, T={self.pattern.length})"

    def make_program(self, node: int, ctx: NodeContext) -> NodeProgram:
        return _FixedPatternProgram(
            self._sends.get(node, {}),
            self.pattern.length,
            self.chained,
            (self.label, node),
        )

    def max_rounds(self, network: Network) -> int:
        return self.pattern.length + 2


# ---------------------------------------------------------------------------
# pattern generators
# ---------------------------------------------------------------------------


def random_pattern(
    network: Network,
    length: int,
    events_per_round: int,
    seed: int = 0,
) -> CommunicationPattern:
    """Sample a pattern with ``events_per_round`` random directed sends per
    round, respecting the one-message-per-direction-per-round constraint."""
    rng = random.Random(derive_seed(seed, "random-pattern"))
    events: List[PatternEvent] = []
    directed: List[Tuple[int, int]] = []
    for u, v in network.edges:
        directed.append((u, v))
        directed.append((v, u))
    per_round = min(events_per_round, len(directed))
    for r in range(1, length + 1):
        for u, v in rng.sample(directed, per_round):
            events.append((r, u, v))
    return CommunicationPattern(events)


def random_walk_pattern(
    network: Network, start: int, length: int, seed: int = 0
) -> CommunicationPattern:
    """A pattern tracing a random walk: one send per round along the walk."""
    rng = random.Random(derive_seed(seed, "walk-pattern", start))
    events: List[PatternEvent] = []
    here = start
    for r in range(1, length + 1):
        nxt = rng.choice(network.neighbors(here))
        events.append((r, here, nxt))
        here = nxt
    return CommunicationPattern(events)
