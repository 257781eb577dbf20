"""Communication patterns and the time-expanded graph (paper Section 2).

The ``T``-round time-expanded graph ``G × [T]`` has ``T + 1`` copies
``V_0 .. V_T`` of the vertex set; ``(v_i, u_{i+1})`` is an edge iff
``(v, u) ∈ E``. The *communication pattern* of a ``T``-round algorithm is
the subgraph of ``G × [T]`` containing ``(v_i, u_{i+1})`` iff the algorithm
sends a message from ``v`` to ``u`` in round ``i+1``.

We represent a pattern event as ``(r, u, v)``: a message traverses the
directed edge ``u -> v`` during round ``r`` (1-based), i.e. the edge
``(u_{r-1}, v_r)`` of ``G × [T]``.

This module also implements the paper's *causal precedence* relation and
*simulation mappings* — retimings of a pattern into a larger time span that
preserve causal precedence — which is the formal definition of what a
scheduler is allowed to do to an algorithm.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, Iterable, List, Mapping, Set, Tuple

from ..errors import ScheduleError
from .network import Edge, Network
from .trace import ExecutionTrace

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "PatternEvent",
    "CommunicationPattern",
    "time_expanded_graph",
    "validate_simulation_mapping",
    "retime_by_delay",
]

#: ``(round, sender, receiver)`` with 1-based round.
PatternEvent = Tuple[int, int, int]


class CommunicationPattern:
    """An immutable set of pattern events with causality queries."""

    def __init__(self, events: Iterable[PatternEvent]):
        self._events: FrozenSet[PatternEvent] = frozenset(events)
        for r, _, _ in self._events:
            if r < 1:
                raise ValueError("pattern rounds are 1-based")
        self._by_round: Dict[int, List[PatternEvent]] = defaultdict(list)
        for ev in sorted(self._events):
            self._by_round[ev[0]].append(ev)
        # Patterns are immutable, so the aggregate queries that metric
        # sweeps hammer (length, per-edge round counts) are computed at
        # most once and memoised.
        self._length = max(self._by_round, default=0)
        self._edge_round_counts: Counter | None = None

    @classmethod
    def from_trace(cls, trace: ExecutionTrace) -> "CommunicationPattern":
        """Extract the pattern (footprint) of an execution trace."""
        return cls(trace.events())

    # -- basic queries ---------------------------------------------------

    @property
    def events(self) -> FrozenSet[PatternEvent]:
        """All events."""
        return self._events

    @property
    def length(self) -> int:
        """The pattern's time span ``T`` (its dilation when run solo)."""
        return self._length

    def events_at(self, round_index: int) -> List[PatternEvent]:
        """Events of one round, sorted."""
        return list(self._by_round.get(round_index, ()))

    def edge_round_counts(self) -> Counter:
        """``c(e)``: per undirected edge, the number of rounds using it."""
        if self._edge_round_counts is None:
            usage: Dict[Edge, Set[int]] = defaultdict(set)
            for r, u, v in self._events:
                usage[Network.canonical_edge(u, v)].add(r)
            self._edge_round_counts = Counter(
                {e: len(rs) for e, rs in usage.items()}
            )
        return Counter(self._edge_round_counts)

    def __len__(self) -> int:
        return len(self._events)

    def __contains__(self, event: PatternEvent) -> bool:
        return event in self._events

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommunicationPattern):
            return NotImplemented
        return self._events == other._events

    def __hash__(self) -> int:
        return hash(self._events)

    def to_json(self) -> str:
        """Serialize the pattern as JSON (footprints are shareable data)."""
        import json

        return json.dumps({"events": sorted(self._events)})

    @classmethod
    def from_json(cls, text: str) -> "CommunicationPattern":
        """Rebuild a pattern serialized by :meth:`to_json`."""
        import json

        data = json.loads(text)
        return cls(tuple(e) for e in data["events"])

    # -- causality ---------------------------------------------------------

    def causal_reach(self, event: PatternEvent) -> Dict[int, int]:
        """Earliest round from which each node is causally influenced.

        For event ``e = (r, u, v)``: node ``v`` is influenced from round
        ``r + 1`` onward (it received the message at the end of round
        ``r``); influence then propagates along pattern events with
        non-decreasing rounds, matching the paper's chain definition.
        Returns a map ``node -> earliest round at which a send by that node
        can be causally influenced by e``.
        """
        if event not in self._events:
            raise ValueError(f"{event} is not an event of this pattern")
        r, _, v = event
        influenced: Dict[int, int] = {v: r + 1}
        for round_index in range(r + 1, self.length + 1):
            for rr, a, b in self._by_round.get(round_index, ()):
                if a in influenced and influenced[a] <= rr:
                    if b not in influenced or influenced[b] > rr + 1:
                        influenced[b] = rr + 1
        return influenced

    def causally_precedes(
        self, first: PatternEvent, second: PatternEvent
    ) -> bool:
        """Whether ``first`` causally precedes ``second`` in this pattern.

        Follows the paper's definition: there is a chain of events of the
        pattern, starting with ``first`` and ending with ``second``, where
        each event's sender received the previous event's message no later
        than the round in which it sends. An event precedes itself.
        """
        if first == second:
            return first in self._events
        if second not in self._events:
            raise ValueError(f"{second} is not an event of this pattern")
        r2, u2, _ = second
        influenced = self.causal_reach(first)
        return u2 in influenced and influenced[u2] <= r2

    def causal_pairs(self) -> Set[Tuple[PatternEvent, PatternEvent]]:
        """All ordered pairs ``(e, f)`` with ``e ≠ f`` and ``e`` preceding ``f``.

        Quadratic in the number of events — intended for validation on
        small patterns, not for production scheduling.
        """
        pairs: Set[Tuple[PatternEvent, PatternEvent]] = set()
        events = sorted(self._events)
        for e in events:
            influenced = self.causal_reach(e)
            for f in events:
                if f == e:
                    continue
                rf, uf, _ = f
                if uf in influenced and influenced[uf] <= rf:
                    pairs.add((e, f))
        return pairs


def time_expanded_graph(network: Network, span: int) -> nx.DiGraph:
    """Build the full time-expanded graph ``G × [span]`` (paper Section 2).

    Nodes are pairs ``(v, i)`` for ``i in 0..span``; there is a directed
    edge ``(v, i) -> (u, i+1)`` for every network edge ``{v, u}`` and every
    ``i``. A communication pattern of a ``T``-round algorithm is a subset
    of these edges.
    """
    if span < 0:
        raise ValueError("span must be non-negative")
    import networkx as nx

    graph = nx.DiGraph()
    for i in range(span + 1):
        for v in network.nodes:
            graph.add_node((v, i))
    for i in range(span):
        for u, v in network.edges:
            graph.add_edge((u, i), (v, i + 1))
            graph.add_edge((v, i), (u, i + 1))
    return graph


def retime_by_delay(delay: int) -> Callable[[PatternEvent], PatternEvent]:
    """The simulation mapping that delays a whole pattern by ``delay`` rounds.

    This is the mapping implicitly used by the random-delays technique
    (Theorem 1.1): every event moves ``delay`` rounds later, which trivially
    preserves causal precedence.
    """
    if delay < 0:
        raise ValueError("delay must be non-negative")

    def mapping(event: PatternEvent) -> PatternEvent:
        r, u, v = event
        return (r + delay, u, v)

    return mapping


def validate_simulation_mapping(
    source: CommunicationPattern,
    mapping: Mapping[PatternEvent, PatternEvent] | Callable[[PatternEvent], PatternEvent],
    span: int | None = None,
) -> CommunicationPattern:
    """Check that ``mapping`` is a valid simulation of ``source``.

    Per the paper's Section 2, a simulation of a ``T``-round algorithm into
    time span ``T'`` maps each pattern event to an event on the *same*
    directed network edge at a (possibly) different round so that causal
    precedence is preserved. Raises :class:`~repro.errors.ScheduleError` on
    violation; returns the image pattern on success.

    Quadratic in the number of events; meant for tests and validation.
    """
    get = mapping.__getitem__ if isinstance(mapping, Mapping) else mapping

    image_events: Dict[PatternEvent, PatternEvent] = {}
    for event in source.events:
        image = get(event)
        if image[1:] != event[1:]:
            raise ScheduleError(
                f"simulation moved event {event} to a different edge {image}"
            )
        if image[0] < 1:
            raise ScheduleError(f"simulation mapped {event} to round {image[0]} < 1")
        if span is not None and image[0] > span:
            raise ScheduleError(
                f"simulation mapped {event} past the time span {span}"
            )
        image_events[event] = image

    target = CommunicationPattern(image_events.values())
    if len(target) != len(source):
        raise ScheduleError("simulation mapping collided two events")

    for e, f in source.causal_pairs():
        if not target.causally_precedes(image_events[e], image_events[f]):
            raise ScheduleError(
                f"simulation broke causal precedence: {e} -> {f} mapped to "
                f"{image_events[e]} -> {image_events[f]}"
            )
    return target
