"""Wave groups: one copy of a BFS or broadcast stepped from flat state.

The paper's running examples, h-hop BFS and h-hop broadcast (§1, special
cases I–II), are *waves*: the source acts at start, and every other node
acts exactly once, on the first round its inbox is non-empty — it adopts
what arrived, forwards to the neighbours it did not hear from, and halts
— or halts unreached at the hop deadline. A :class:`HostGroup` pays a
``ProgramHost`` + ``NodeContext`` + ``NodeProgram`` per node to run
that; a :class:`WaveGroup` keeps one set of live nodes, one output dict
and a heap of truncation limits per copy, and touches a node only in a
round that brings it mail, plus once at the deadline.

A family opts in through :meth:`Algorithm.wave
<repro.congest.program.Algorithm.wave>`, returning a :class:`Wave` —
the two decisions of its ``NodeProgram`` as two methods
(:meth:`Wave.start`, :meth:`Wave.adopt`). The object program stays the
definition: a wave must step bit-identically to it — the same yields in
``nodes`` order, the same outboxes (a :class:`Broadcast` from the
source, per-neighbour lists from forwarders), the same payload sizing
and :class:`~repro.errors.BandwidthViolation`, the same ``host_steps`` /
``idle_skips`` — and ``tests/core/test_hint_erasure.py`` checks it
against the object path on every scheduler, transport and fault plan.
A family gets a wave only with that differential.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional
from typing import Sequence, Tuple, Union

from .message import check_payload
from .network import Network
from .program import Broadcast, HostGroup, Outbox

__all__ = ["StepGroup", "Wave", "WaveGroup"]


class Wave(ABC):
    """One wave algorithm, as the group stepper sees it.

    ``source`` acts at start; every node still live at algorithm-round
    ``hops`` (the deadline its program promises ``idle_until``) halts
    there. Subclasses say what the source and an adopting node output
    and send.
    """

    __slots__ = ("source", "hops")

    def __init__(self, source: int, hops: int):
        self.source = source
        self.hops = hops

    @abstractmethod
    def start(self) -> Tuple[Any, Any]:
        """``(output, payload)`` of the source's ``on_start``; payload
        ``None`` when it sends nothing, else it goes to every neighbour."""

    @abstractmethod
    def adopt(self, inbox: Mapping[int, Any]) -> Tuple[Any, Any]:
        """``(output, payload)`` of a node's first non-empty inbox;
        payload ``None`` when it forwards nothing, else it goes to every
        neighbour not in ``inbox``."""

    def group(
        self,
        nodes: Sequence[int],
        network: Network,
        message_bits: Optional[int] = None,
        limits: Optional[Mapping[int, int]] = None,
    ) -> "WaveGroup":
        """The stepper of one copy of this wave on ``nodes``."""
        return WaveGroup(self, nodes, network, message_bits, limits)


class WaveGroup:
    """The nodes of one wave copy, stepped together.

    Engine-facing like :class:`~repro.congest.program.HostGroup` —
    :meth:`start`, :meth:`step`, :attr:`live`, :meth:`finished`,
    :meth:`max_bits`, :meth:`output`, :meth:`outputs` and the stepping
    counters — with ``limits`` as there (the last algorithm-round each
    node steps, cluster copies). A round costs the nodes that have mail,
    plus one pass over the live nodes at the deadline.

    ``host_steps`` / ``idle_skips`` count live-node × round slots exactly
    as the object path does. ``hosts_built`` counts ``ProgramHost``
    objects, so it stays 0 here.
    """

    hosts_built = 0

    def __init__(
        self,
        wave: Wave,
        nodes: Sequence[int],
        network: Network,
        message_bits: Optional[int] = None,
        limits: Optional[Mapping[int, int]] = None,
    ):
        self.wave = wave
        self.nodes = nodes
        self.host_steps = self.idle_skips = 0
        self._network = network
        self._message_bits = message_bits
        self._limits = limits
        self._max_bits = 0
        #: Nodes that may still act (``None`` before :meth:`start`).
        self._live: Optional[set] = None
        self._position: Dict[int, int] = {}
        self._outputs: Dict[int, Any] = {}
        #: ``(limit, node)`` for nodes a truncation limit retires while
        #: they wait: the first round at or past it that brings no mail.
        self._expiry: List[Tuple[int, int]] = []

    def _sized(self, payload: Any) -> None:
        bits = check_payload(payload, self._message_bits)
        if bits > self._max_bits:
            self._max_bits = bits

    def start(self) -> Iterator[Tuple[int, Outbox]]:
        """Run the source's start, yielding its round-1 broadcast when it
        sends; :attr:`live` is valid once the iterator is exhausted."""
        if self._live is not None:
            raise RuntimeError("WaveGroup.start called twice")
        nodes = self.nodes
        self._position = dict(zip(nodes, range(len(nodes))))
        live = self._live = set(nodes)
        source = self.wave.source
        if source in live:
            live.discard(source)
            output, payload = self.wave.start()
            self._outputs[source] = output
            if payload is not None:
                self._sized(payload)
                neighbors = self._network.neighbors(source)
                if neighbors:
                    yield source, Broadcast(payload, neighbors)
        limits = self._limits
        if limits is not None:
            hops = self.wave.hops
            expiry = self._expiry
            for node in nodes:
                limit = limits[node]
                if limit < 1:
                    live.discard(node)
                elif limit < hops:
                    expiry.append((limit, node))
            heapq.heapify(expiry)

    def step(
        self,
        algo_round: int,
        inboxes: Mapping[int, Mapping[int, Any]],
        crashed: Optional[Callable[[int], bool]] = None,
    ) -> Iterator[Tuple[int, Outbox]]:
        """Run algorithm-round ``algo_round`` on the round's ``node ->
        inbox`` mapping, yielding ``(node, outbox)`` in ``nodes`` order
        for each node that sent. A node for which ``crashed(node)`` holds
        stays live and never acts."""
        live = self._live
        slots = len(live)
        deadline = algo_round >= self.wave.hops
        if deadline:
            acting = list(live)
        else:
            expiry = self._expiry
            while expiry and expiry[0][0] <= algo_round:
                node = heapq.heappop(expiry)[1]
                if node in live and not inboxes.get(node):
                    live.discard(node)
            if len(inboxes) > slots:
                acting = [node for node in live if inboxes.get(node)]
            else:
                acting = [
                    node for node, inbox in inboxes.items() if inbox and node in live
                ]
        if len(acting) > 1:
            acting.sort(key=self._position.__getitem__)
        wave = self.wave
        neighbors_of = self._network.neighbors
        steps = 0
        for node in acting:
            if crashed is not None and crashed(node):
                # A crashed host stays live even past its limit, and
                # leaves at its next round without mail.
                if not deadline and self._limits is not None and (
                    algo_round >= self._limits[node]
                ):
                    heapq.heappush(self._expiry, (algo_round + 1, node))
                continue
            steps += 1
            live.discard(node)
            inbox = inboxes.get(node)
            if not inbox:
                continue  # unreached at the deadline: halt, output None
            output, payload = wave.adopt(inbox)
            self._outputs[node] = output
            if payload is None:
                continue
            sends = [
                (neighbor, payload)
                for neighbor in neighbors_of(node)
                if neighbor not in inbox
            ]
            if sends:
                self._sized(payload)
                yield node, sends
        self.host_steps += steps
        self.idle_skips += slots - steps

    @property
    def live(self) -> List[int]:
        """The nodes that may still act, in ``nodes`` order."""
        live = self._live
        return [node for node in self.nodes if node in live] if live else []

    def finished(self, crashed: Optional[Callable[[int], bool]] = None) -> bool:
        """Whether no node will act again (as
        :meth:`HostGroup.finished <repro.congest.program.HostGroup.finished>`)."""
        live = self._live
        return not live or (
            crashed is not None and all(crashed(node) for node in live)
        )

    def max_bits(self) -> int:
        """Size in bits of the largest payload sent so far (0 for none)."""
        return self._max_bits

    def output(self, node: int) -> Any:
        """The output of ``node`` (``None`` before :meth:`start` or while
        undecided)."""
        return self._outputs.get(node)

    def outputs(self) -> Dict[int, Any]:
        """``node -> output`` for every node, in ``nodes`` order."""
        outputs = dict.fromkeys(self.nodes)
        outputs.update(self._outputs)
        return outputs


#: What :func:`~repro.congest.program.make_group` hands an engine.
StepGroup = Union[HostGroup, WaveGroup]
