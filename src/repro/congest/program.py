"""Node programs: the unit of distributed computation.

A distributed algorithm in the CONGEST model is, per the paper's Section 2,
a per-node state machine: "when this algorithm is run alone, in each round
each node knows what to send in the next round", as a function of its input,
its (pre-sampled) randomness, and the messages it has received so far.

We model this with two classes:

* :class:`Algorithm` — a factory describing one distributed algorithm
  (e.g. "BFS from node 7", "broadcast of token 12 up to 5 hops"). It builds
  one :class:`NodeProgram` per node.
* :class:`NodeProgram` — the per-node automaton. The *engine* owns time: it
  calls :meth:`NodeProgram.on_start` once, then :meth:`NodeProgram.on_round`
  once per algorithm-round with that round's inbox. Programs send by calling
  :meth:`NodeContext.send`, which buffers messages for the next round.

This pull-based design is what lets schedulers remap algorithm-rounds onto
arbitrary physical rounds (random start delays, big-rounds, truncated
cluster copies) without the algorithm noticing — the paper's requirement
that algorithms be scheduled as black boxes.

Randomness is exposed as ``ctx.rng``, a :class:`random.Random` seeded
deterministically from ``(master seed, algorithm id, node)``. The paper
treats each node's random bits as part of its input, fixed before the
execution starts; deterministic seeding reproduces exactly that: every copy
of an algorithm run by a scheduler draws the same random tape and therefore
behaves identically given identical inbox histories. The tape is
materialised on first access only, so a program that never reads
``ctx.rng`` never pays for the seed derivation or the generator state.

Stepping. Every engine gets the stepper of one algorithm copy from
:func:`make_group` and drives it as ``start()`` then ``step(algo_round,
inboxes, crashed)`` with the round's ``node -> inbox`` mapping. For a
*wave* — :meth:`Algorithm.wave` returns one for ``BFS`` and
``HopBroadcast``/``Flooding``, unless a subclass builds its own programs
— that is a :class:`~repro.congest.wave.WaveGroup`, which runs the copy
from flat per-copy state with no per-node objects and must step exactly
as the object programs do (``tests/core/test_hint_erasure.py`` compares
the two). Every other family, every group with ``on_error`` (the eager
baseline) and every user algorithm gets a :class:`HostGroup` (the hosts
of one algorithm copy), whose :meth:`HostGroup.step` makes one in-order
pass over the hosts that have not halted and runs ``on_round`` only for
those that *act*. A program opts out of being stepped with
:meth:`NodeProgram.idle_until`: until algorithm-round ``r``, an
``on_round`` with an **empty inbox** would be a no-op — no send, no halt,
no state or output change, no draw from ``ctx.rng``. The promise may be
re-declared from any ``on_start``/``on_round``; a non-empty inbox always
wakes the program; the default (``0``) steps every round, so unannotated,
wrapped and third-party programs behave as ever. A wrong promise changes
outputs: ``tests/core/test_hint_erasure.py`` runs every scheduler with the
hints erased and demands identical results, and is how a new annotation
is checked.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Mapping
from typing import Optional, Sequence, Tuple, Union

from ..errors import BandwidthViolation
from .._util import derive_seed
from .message import check_payload
from .network import Network

if TYPE_CHECKING:
    from .wave import StepGroup, Wave

__all__ = [
    "Broadcast",
    "NodeContext",
    "NodeProgram",
    "Algorithm",
    "HostGroup",
    "ProgramHost",
    "Send",
    "make_group",
]

#: A buffered outgoing message: ``(destination node, payload)``.
Send = Tuple[int, Any]


class Broadcast:
    """A compacted ``send_all``: one payload to every neighbour.

    Draining a round in which a node only called :meth:`NodeContext.send_all`
    yields one of these instead of ``len(neighbors)`` tuples. Iterating
    produces exactly the ``(neighbor, payload)`` pairs the per-neighbour
    path would have buffered (in neighbour order), so any consumer that
    loops over a drained outbox sees identical messages; transports that
    understand broadcasts read :attr:`payload`/:attr:`neighbors` directly
    and skip the per-message tuple objects entirely.
    """

    __slots__ = ("payload", "neighbors")

    def __init__(self, payload: Any, neighbors: Tuple[int, ...]):
        self.payload = payload
        self.neighbors = neighbors

    def __iter__(self) -> Iterator[Send]:
        payload = self.payload
        return iter([(neighbor, payload) for neighbor in self.neighbors])

    def __len__(self) -> int:
        return len(self.neighbors)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Broadcast({self.payload!r} -> {len(self.neighbors)} neighbours)"


#: What :meth:`NodeContext._drain` hands to the engine: the per-message
#: outbox, a compacted broadcast, or :data:`_NO_SENDS`.
Outbox = Union[Sequence[Send], Broadcast]

#: What a step that sent nothing drains: one shared immutable outbox.
_NO_SENDS: Tuple[Send, ...] = ()


class NodeContext:
    """Per-node execution context handed to a :class:`NodeProgram`.

    Provides the node's identity, its local view of the network (neighbours
    and the global parameter ``n``), its private random tape, and the
    :meth:`send` primitive. One context exists per (algorithm copy, node)
    and lives for the whole execution.

    The context owns a payload's size: :meth:`send` / :meth:`send_all`
    size it once per call (budget or not) and keep the largest seen in
    :attr:`max_bits`; transports move payloads without looking at them.
    The outbox exists only from a round's first :meth:`send` to its drain.

    ``seed`` is the tape's integer seed, or a ``(master_seed, tape_id)``
    pair handed to :meth:`ProgramHost.seed_for` when :attr:`rng` is read.
    """

    __slots__ = (
        "node",
        "num_nodes",
        "neighbors",
        "round",
        "_seed",
        "_rng",
        "_message_bits",
        "max_bits",
        "_outbox",
        "_sent_to",
        "_sent_all",
        "_broadcast",
    )

    def __init__(
        self,
        node: int,
        network: Network,
        seed: Union[int, Tuple[int, Any]],
        message_bits: Optional[int] = None,
    ):
        self.node = node
        self.num_nodes = network.num_nodes
        self.neighbors: Tuple[int, ...] = network.neighbors(node)
        self._seed = seed
        self._rng: Optional[random.Random] = None
        #: Current algorithm-round (0 before the first round).
        self.round = 0
        self._message_bits = message_bits
        #: Size in bits of the largest payload sent so far.
        self.max_bits = 0
        # This round's individual sends and their destinations; ``None``
        # (and ``_sent_to`` stale) until the round's first ``send``.
        self._outbox: Optional[List[Send]] = None
        self._sent_to: Optional[set] = None
        self._sent_all = False
        self._broadcast: Any = None

    @property
    def rng(self) -> random.Random:
        """The node's private random tape (materialised on first access)."""
        rng = self._rng
        if rng is None:
            seed = self._seed
            if type(seed) is tuple:
                seed = ProgramHost.seed_for(seed[0], seed[1], self.node)
            rng = self._rng = random.Random(seed)
        return rng

    def send(self, neighbor: int, payload: Any) -> None:
        """Buffer one message to ``neighbor``, delivered next round.

        Enforces the CONGEST constraints: the destination must be a
        neighbour, at most one message per neighbour per round, and the
        payload must fit the per-message bit budget (when one is set).
        """
        outbox = self._outbox
        if self._sent_all or (outbox is not None and neighbor in self._sent_to):
            raise self._twice(neighbor)
        if neighbor not in self.neighbors:
            raise BandwidthViolation(
                f"node {self.node} tried to send to non-neighbour {neighbor}",
                node=self.node,
                round=self.round,
            )
        bits = check_payload(payload, self._message_bits)
        if bits > self.max_bits:
            self.max_bits = bits
        if outbox is None:
            self._outbox = [(neighbor, payload)]
            self._sent_to = {neighbor}
        else:
            outbox.append((neighbor, payload))
            self._sent_to.add(neighbor)

    def send_all(self, payload: Any) -> None:
        """Send the same payload to every neighbour.

        When nothing has been sent yet this round, the CONGEST checks
        collapse: every destination is a neighbour by construction, no
        duplicates are possible, and one payload check covers all
        copies (the ``_sent_all`` flag stands in for the per-neighbour
        duplicate set). The round then drains as a single
        :class:`Broadcast` object instead of per-neighbour tuples.
        Mixed with prior sends, each neighbour still gets :meth:`send`'s
        duplicate check, and the payload is sized once, before the first
        copy is buffered.
        """
        if self._outbox is not None or self._sent_all:
            bits = -1
            for neighbor in self.neighbors:
                if self._sent_all or neighbor in self._sent_to:
                    raise self._twice(neighbor)
                if bits < 0:
                    bits = check_payload(payload, self._message_bits)
                    if bits > self.max_bits:
                        self.max_bits = bits
                self._outbox.append((neighbor, payload))
                self._sent_to.add(neighbor)
            return
        bits = check_payload(payload, self._message_bits)
        if bits > self.max_bits:
            self.max_bits = bits
        self._sent_all = True
        self._broadcast = payload

    def _twice(self, neighbor: int) -> BandwidthViolation:
        return BandwidthViolation(
            f"node {self.node} sent twice to {neighbor} in round {self.round}",
            node=self.node,
            round=self.round,
            edge=(self.node, neighbor),
        )

    def _drain(self) -> Outbox:
        if self._sent_all:
            self._sent_all = False
            payload, self._broadcast = self._broadcast, None
            return Broadcast(payload, self.neighbors)
        out = self._outbox
        if out is None:
            return _NO_SENDS
        self._outbox = None
        return out


class NodeProgram(ABC):
    """The per-node behaviour of one distributed algorithm.

    Subclasses implement :meth:`on_round` (and optionally
    :meth:`on_start`), call ``ctx.send`` to communicate, :meth:`halt` when
    locally finished, and expose their result via :meth:`output`.

    A program that has halted receives no further ``on_round`` calls; any
    messages still addressed to it are dropped by the engine.
    """

    #: See :meth:`idle_until` (a class default: subclasses may skip
    #: ``super().__init__()``).
    _idle_until = 0

    def __init__(self) -> None:
        self._halted = False

    # -- lifecycle -----------------------------------------------------

    def on_start(self, ctx: NodeContext) -> None:
        """Called once before round 1. Sends here are delivered in round 1.

        What it does — sends, halting, state, the :meth:`idle_until`
        promise — must be a function of the node, its network view
        (``ctx.neighbors``, ``ctx.num_nodes``), its tape (``ctx.rng``) and
        the message budget only: the paper's randomness-as-input (§4).
        """

    @abstractmethod
    def on_round(self, ctx: NodeContext, inbox: Mapping[int, Any]) -> None:
        """Process the inbox of one algorithm-round and buffer next sends.

        ``inbox`` maps sender node id to payload for every message that
        traversed an incident edge toward this node during round
        ``ctx.round``.
        """

    def halt(self) -> None:
        """Mark this node as locally finished."""
        self._halted = True

    def idle_until(self, round: int) -> None:
        """Promise that empty-inbox rounds before ``round`` are no-ops.

        Until algorithm-round ``round``, an :meth:`on_round` with an empty
        inbox would send nothing, not halt, change no state or output and
        draw nothing from ``ctx.rng`` — so the engine may skip it. A
        non-empty inbox always wakes the program; the promise can be
        re-declared from any ``on_start``/``on_round`` (default ``0``:
        step every round).
        """
        self._idle_until = round

    @property
    def halted(self) -> bool:
        """Whether this node has locally finished."""
        return self._halted

    def output(self) -> Any:
        """The node's output value (``None`` until decided)."""
        return None


class Algorithm(ABC):
    """A distributed algorithm: a factory of per-node programs.

    Instances carry the algorithm's *global* parameters (source node, hop
    bound, weight function, ...). The distributed-algorithm-scheduling
    machinery identifies algorithms by the index they get in a workload; the
    :attr:`name` is purely cosmetic.
    """

    @property
    def name(self) -> str:
        """Human-readable algorithm name (defaults to the class name)."""
        return type(self).__name__

    @abstractmethod
    def make_program(self, node: int, ctx: NodeContext) -> NodeProgram:
        """Create this algorithm's program for ``node``."""

    def max_rounds(self, network: Network) -> int:
        """Safety cap on solo running time (engine raises past this)."""
        return 4 * network.num_nodes + 16

    def wave(self) -> Optional["Wave"]:
        """This algorithm as a :class:`~repro.congest.wave.Wave`, or
        ``None`` (the default) to step it through its programs.

        A wave's copies run on a :class:`~repro.congest.wave.WaveGroup`,
        which must step exactly as :meth:`make_program`'s programs do.
        Override it only together with a differential against them.
        """
        return None


def make_group(
    algorithm: Algorithm,
    nodes: Sequence[int],
    network: Network,
    master_seed: int,
    tape_id: Any,
    message_bits: Optional[int] = None,
    limits: Optional[Mapping[int, int]] = None,
    on_error: Optional[Callable[[int, Exception], None]] = None,
) -> "StepGroup":
    """The stepper of one copy of ``algorithm`` on ``nodes`` (arguments
    as in :class:`HostGroup`): a wave group when the algorithm is a
    :meth:`~Algorithm.wave` and no ``on_error`` asks for the confused
    programs of the eager baseline, else a :class:`HostGroup`."""
    wave = None if on_error is not None else algorithm.wave()
    if wave is not None:
        return wave.group(nodes, network, message_bits, limits)
    return HostGroup(
        algorithm, nodes, network, master_seed, tape_id, message_bits,
        limits, on_error,
    )


class ProgramHost:
    """Drives one (algorithm, node) program: its context plus its automaton.

    Engines never touch :class:`NodeProgram` directly, nor hosts one by
    one: they build a :class:`HostGroup` per algorithm copy, which applies
    the driving protocol — :meth:`start` once, then one ``on_round`` per
    algorithm-round — to every participating node, so an algorithm sees
    the same protocol however it is scheduled. ``seed`` as in
    :class:`NodeContext`.
    """

    __slots__ = ("node", "ctx", "program", "_started")

    def __init__(
        self,
        algorithm: Algorithm,
        node: int,
        network: Network,
        seed: Union[int, Tuple[int, Any]],
        message_bits: Optional[int] = None,
    ):
        self.node = node
        self.ctx = NodeContext(node, network, seed, message_bits)
        self.program = algorithm.make_program(node, self.ctx)
        self._started = False

    @classmethod
    def seed_for(cls, master_seed: int, algorithm_id: Any, node: int) -> int:
        """The canonical per-(algorithm, node) seed derivation."""
        return derive_seed(master_seed, "node-program", algorithm_id, node)

    def start(self) -> Outbox:
        """Run ``on_start``; return sends to be delivered in round 1."""
        if self._started:
            raise RuntimeError("ProgramHost.start called twice")
        self._started = True
        self.ctx.round = 0
        if not self.program.halted:
            self.program.on_start(self.ctx)
        return self.ctx._drain()

    def step(self, algo_round: int, inbox: Mapping[int, Any]) -> Outbox:
        """Run one algorithm-round; return sends for the following round.

        ``algo_round`` is the algorithm-local round number (1-based) whose
        inbox is being delivered. Halted programs ignore the call.
        """
        if not self._started:
            raise RuntimeError("ProgramHost.step before start")
        program = self.program
        if program._halted:
            return []
        ctx = self.ctx
        ctx.round = algo_round
        program.on_round(ctx, inbox)
        return ctx._drain()

    @property
    def halted(self) -> bool:
        """Whether the underlying program has halted."""
        return self.program.halted

    def output(self) -> Any:
        """The underlying program's output."""
        return self.program.output()


class HostGroup:
    """The hosts of one algorithm copy, stepped together.

    The object-path stepper behind the solo simulator and every scheduler
    engine (:func:`make_group` picks it for every algorithm that is not a
    wave): it owns host construction (tapes are ``ProgramHost.seed_for(
    master_seed, tape_id, node)``, materialised lazily), the set of hosts
    that may still act, and the :meth:`NodeProgram.idle_until` skipping;
    engines keep the scheduling decisions and the message transport.
    ``limits`` (cluster copies, Lemma 4.4) maps every node to the last
    algorithm-round it steps. ``on_error(node, exc)`` makes a raising
    ``on_round`` non-fatal: the round's sends stay undrained and the pass
    continues (the eager baseline's "confused program" semantics).
    """

    def __init__(
        self,
        algorithm: Algorithm,
        nodes: Sequence[int],
        network: Network,
        master_seed: int,
        tape_id: Any,
        message_bits: Optional[int] = None,
        limits: Optional[Mapping[int, int]] = None,
        on_error: Optional[Callable[[int, Exception], None]] = None,
    ):
        self.algorithm = algorithm
        self.nodes = nodes
        #: Hosts that may still act, in ``nodes`` order: started, not
        #: halted, not past their limit. Crashed and idle hosts stay.
        self.live: List[ProgramHost] = []
        #: Live-host × round slots that ran ``on_round`` / that were
        #: skipped (idle promise or crash-stop).
        self.host_steps = self.idle_skips = 0
        #: Hosts constructed (all of them, at :meth:`start`).
        self.hosts_built = 0
        self._host_args = (network, (master_seed, tape_id), message_bits)
        self._limits = limits
        self._on_error = on_error
        self._hosts: Optional[List[ProgramHost]] = None
        self._position: Dict[int, int] = {}

    def start(self) -> Iterator[Tuple[int, Outbox]]:
        """Build the hosts and run every ``on_start``, yielding ``(node,
        outbox)`` for each host that sent (its round-1 messages);
        :attr:`live` is valid once the iterator is exhausted."""
        if self._hosts is not None:
            raise RuntimeError("HostGroup.start called twice")
        self._position = dict(zip(self.nodes, range(len(self.nodes))))
        hosts = self._hosts = [
            ProgramHost(self.algorithm, node, *self._host_args)
            for node in self.nodes
        ]
        self.hosts_built = len(hosts)
        for host in hosts:
            outbox = host.start()
            if outbox:
                yield host.node, outbox
        limits = self._limits
        self.live = [
            host
            for host in hosts
            if not host.program._halted
            and (limits is None or limits[host.node] >= 1)
        ]

    def step(
        self,
        algo_round: int,
        inboxes: Mapping[int, Mapping[int, Any]],
        crashed: Optional[Callable[[int], bool]] = None,
    ) -> Iterator[Tuple[int, Outbox]]:
        """Run algorithm-round ``algo_round``: one in-order pass over
        :attr:`live`, yielding ``(node, outbox)`` for each host that sent.

        ``inboxes`` maps a node to its inbox (absent or falsy when nothing
        arrived). A host with an empty inbox whose program promised
        :meth:`~NodeProgram.idle_until` a later round is skipped outright;
        so is one for which ``crashed(node)`` holds (it stays live but
        never acts again). Hosts that halt or reach their limit leave
        :attr:`live`, which is updated once the iterator is exhausted.
        """
        limits = self._limits
        on_error = self._on_error
        inbox_of = inboxes.get
        kept: List[ProgramHost] = []
        keep = kept.append
        steps = 0
        for host in self.live:
            node = host.node
            program = host.program
            inbox = inbox_of(node)
            if not inbox:
                if algo_round < program._idle_until:
                    if limits is None or algo_round < limits[node]:
                        keep(host)
                    continue
                inbox = {}
            if crashed is not None and crashed(node):
                keep(host)
                continue
            steps += 1
            ctx = host.ctx
            ctx.round = algo_round
            outbox: Outbox = _NO_SENDS
            try:
                program.on_round(ctx, inbox)
                outbox = ctx._drain()
            except Exception as exc:
                if on_error is None:
                    raise
                on_error(node, exc)
            if not program._halted and (
                limits is None or algo_round < limits[node]
            ):
                keep(host)
            if outbox:
                yield node, outbox
        self.host_steps += steps
        self.idle_skips += len(self.live) - steps
        self.live = kept

    def finished(self, crashed: Optional[Callable[[int], bool]] = None) -> bool:
        """Whether no host will act again: each has halted, passed its
        limit or (crash-stop is permanent) satisfies ``crashed(node)``."""
        return not self.live or (
            crashed is not None and all(crashed(host.node) for host in self.live)
        )

    def max_bits(self) -> int:
        """Size in bits of the largest payload sent so far (0 for none)."""
        return max((host.ctx.max_bits for host in self._hosts or ()), default=0)

    def output(self, node: int) -> Any:
        """The output of ``node`` alone (``None`` before :meth:`start`)."""
        if self._hosts is None:
            return None
        return self._hosts[self._position[node]].program.output()

    def outputs(self) -> Dict[int, Any]:
        """``node -> output`` for every node (``None`` before :meth:`start`)."""
        if self._hosts is None:
            return dict.fromkeys(self.nodes)
        return {host.node: host.program.output() for host in self._hosts}
