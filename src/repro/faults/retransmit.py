"""ACK-based retransmission: making black-box algorithms loss-tolerant.

:class:`ResilientAlgorithm` wraps any :class:`~repro.congest.program.Algorithm`
in a reliable-delivery transport. Each *inner* algorithm-round is widened
into a fixed **window** of ``W`` outer rounds during which every inner
message is sent, acknowledged, and — when the ACK does not come back —
retransmitted with exponentially growing gaps (offsets ``1, 3, 7, …``
inside the window), up to ``max_retries`` retransmissions. Because the
window schedule is a fixed function of ``max_retries``, all nodes advance
their inner rounds in lockstep without any coordination, and the wrapper
remains a plain CONGEST algorithm: one message per edge direction per
outer round, with a constant number of extra fields per message (data
window, ACK window) piggybacked onto the payload.

Guarantees:

* **Transparency** — on a fault-free network the wrapped algorithm
  produces exactly the inner algorithm's solo outputs (every message is
  acknowledged on the first attempt; the inner program consumes the same
  random tape via the shared ``ctx.rng``).
* **Bounded-loss tolerance** — a message survives as long as one of its
  ``max_retries + 1`` attempts and the matching ACK both get through; for
  independent per-message loss ``p`` that fails with probability
  ``≈ (2p)^(max_retries+1)`` per message.
* **Fail-fast** — when the retry budget is exhausted the wrapper raises
  :class:`~repro.errors.RetransmitExhausted` (a
  :class:`~repro.errors.ScheduleError`) naming the sender, the dead edge
  and the inner round, instead of hanging; schedulers running under
  :meth:`~repro.core.base.Scheduler.run_resilient` convert it into a
  structured partial-failure result.

Termination caveat: a node whose inner program has halted keeps
acknowledging incoming data for ``linger_windows`` windows before halting
itself. An algorithm that sends to a long-silent, already-halted
neighbour after that grace period will exhaust its retries — a clear
error by design, since the synchronous engines need halting for
termination and "halted forever but still ACKing" is not expressible.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

from ..congest.program import Algorithm, NodeContext, NodeProgram, Send
from ..errors import BandwidthViolation, RetransmitExhausted

__all__ = ["ResilientAlgorithm", "wrap_workload"]

#: Marker for "no data" / "no ACK" slots in the combined message tuple.
_NONE = -1


def _resend_offsets(max_retries: int) -> Tuple[int, ...]:
    """Window offsets at which unacknowledged data is retransmitted.

    Attempt ``a`` (1-based) is buffered at offset ``2^a - 1``, doubling
    the gap between consecutive attempts — the exponential backoff.
    """
    return tuple((1 << attempt) - 1 for attempt in range(1, max_retries + 1))


def window_rounds(max_retries: int) -> int:
    """Outer rounds per inner round: last ACK offset plus the feed slot."""
    return (1 << max_retries) + 2


class _InnerContext:
    """The context handed to the wrapped program.

    Shares the outer context's identity and random tape (so the inner
    algorithm draws exactly its solo tape) but captures sends locally;
    the wrapper turns them into acknowledged transport messages. CONGEST
    sanity checks mirror :class:`~repro.congest.program.NodeContext`; the
    bit budget is enforced on the combined wire message by the outer
    context.
    """

    __slots__ = ("node", "num_nodes", "neighbors", "round", "_outer", "_outbox", "_sent_to")

    def __init__(self, outer: NodeContext):
        self.node = outer.node
        self.num_nodes = outer.num_nodes
        self.neighbors = outer.neighbors
        self.round = 0
        self._outer = outer
        self._outbox: List[Send] = []
        self._sent_to: set = set()

    @property
    def rng(self):
        """The outer context's tape (materialised on first access)."""
        return self._outer.rng

    def send(self, neighbor: int, payload: Any) -> None:
        """Buffer one inner message (same constraints as the real context)."""
        if neighbor in self._sent_to:
            raise BandwidthViolation(
                f"node {self.node} sent twice to {neighbor} in round {self.round}",
                node=self.node,
                round=self.round,
                edge=(self.node, neighbor),
            )
        if neighbor not in self.neighbors:
            raise BandwidthViolation(
                f"node {self.node} tried to send to non-neighbour {neighbor}",
                node=self.node,
                round=self.round,
            )
        self._sent_to.add(neighbor)
        self._outbox.append((neighbor, payload))

    def send_all(self, payload: Any) -> None:
        """Send the same payload to every neighbour."""
        for neighbor in self.neighbors:
            self.send(neighbor, payload)

    def _drain(self) -> List[Send]:
        out, self._outbox = self._outbox, []
        self._sent_to.clear()
        return out


class _ResilientProgram(NodeProgram):
    """Per-node reliable transport driving one inner program."""

    def __init__(
        self,
        algorithm: "ResilientAlgorithm",
        node: int,
        ctx: NodeContext,
    ):
        super().__init__()
        self._inner_ctx = _InnerContext(ctx)
        self._inner = algorithm.inner.make_program(node, self._inner_ctx)
        self._window_size = algorithm.window_rounds
        self._resend_at = frozenset(_resend_offsets(algorithm.max_retries))
        self._linger = algorithm.linger_windows
        self._name = algorithm.inner.name
        #: Inner round whose data is currently in flight.
        self._window = 0
        #: Unacknowledged data of the current window: neighbour -> payload.
        self._pending: Dict[int, Any] = {}
        #: Data received for the current window: sender -> payload.
        self._received: Dict[int, Any] = {}
        self._window_had_data = False
        self._idle_windows = 0
        #: Total retransmissions performed (observability for tests).
        self.retransmissions = 0

    # -- lifecycle -----------------------------------------------------

    def on_start(self, ctx: NodeContext) -> None:
        """Run the inner ``on_start``; ship its round-1 sends (attempt 0)."""
        self._inner_ctx.round = 0
        if not self._inner.halted:
            self._inner.on_start(self._inner_ctx)
        self._window = 1
        self._pending = dict(self._inner_ctx._drain())
        for neighbor, payload in self._pending.items():
            ctx.send(neighbor, ("M", self._window, payload, _NONE))

    def on_round(self, ctx: NodeContext, inbox: Mapping[int, Any]) -> None:
        """One outer round: parse, maybe retransmit, maybe advance."""
        offset = (ctx.round - 1) % self._window_size
        acks_out: Dict[int, int] = {}
        data_out: Dict[int, Any] = {}
        data_window = self._window

        # 1. Parse the inbox: collect data, clear ACKed sends, queue ACKs.
        for sender, message in inbox.items():
            tag, in_window, payload, ack_window = message
            if tag != "M":  # pragma: no cover - foreign traffic guard
                continue
            if ack_window == self._window:
                self._pending.pop(sender, None)
            if in_window != _NONE:
                # Any received data (current or a stale duplicate) is
                # (re-)acknowledged so the sender stops retransmitting.
                acks_out[sender] = in_window
                self._window_had_data = True
                if in_window == self._window and not self._inner.halted:
                    self._received.setdefault(sender, payload)

        # 2. Retransmit unacknowledged data at the backoff offsets.
        if offset in self._resend_at and self._pending:
            self.retransmissions += len(self._pending)
            data_out.update(self._pending)

        # 3. Window boundary: enforce the budget, feed the inner program.
        if offset == self._window_size - 1:
            if self._pending:
                dead = sorted(self._pending)
                raise RetransmitExhausted(
                    f"{self._name}: node {ctx.node} exhausted "
                    f"{len(self._resend_at)} retransmissions for inner round "
                    f"{self._window} toward neighbour(s) {dead}",
                    node=ctx.node,
                    round=self._window,
                    edge=(ctx.node, dead[0]),
                    algorithm=self._name,
                )
            if self._inner.halted:
                if self._window_had_data:
                    self._idle_windows = 0
                else:
                    self._idle_windows += 1
                    if self._idle_windows >= self._linger:
                        self.halt()
            else:
                # Deliver the accumulated inbox in ascending sender order —
                # the same order the solo engine builds its inboxes in.
                inner_inbox = {
                    sender: self._received[sender]
                    for sender in sorted(self._received)
                }
                self._inner_ctx.round = self._window
                self._inner.on_round(self._inner_ctx, inner_inbox)
                self._pending = dict(self._inner_ctx._drain())
                data_window = self._window + 1
                data_out.update(self._pending)
            self._window += 1
            self._received = {}
            self._window_had_data = False

        # 4. Emit combined wire messages (one per neighbour per round).
        for neighbor in data_out.keys() | acks_out.keys():
            has_data = neighbor in data_out
            ctx.send(
                neighbor,
                (
                    "M",
                    data_window if has_data else _NONE,
                    data_out.get(neighbor),
                    acks_out.get(neighbor, _NONE),
                ),
            )

    def output(self) -> Any:
        """The inner program's output (the wrapper adds nothing)."""
        return self._inner.output()


class ResilientAlgorithm(Algorithm):
    """Reliable-delivery wrapper around a black-box algorithm.

    Parameters
    ----------
    inner:
        The algorithm to protect.
    max_retries:
        Retransmissions per message after the initial attempt. The window
        (outer rounds per inner round) is ``2^max_retries + 2``.
    linger_windows:
        Windows a node keeps acknowledging after its inner program halts,
        before halting itself (see the module docstring caveat).
    """

    def __init__(self, inner: Algorithm, max_retries: int = 3, linger_windows: int = 4):
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if linger_windows < 1:
            raise ValueError("linger_windows must be at least 1")
        self.inner = inner
        self.max_retries = max_retries
        self.linger_windows = linger_windows
        self.window_rounds = window_rounds(max_retries)

    @property
    def name(self) -> str:
        """``resilient(<inner>)`` — cosmetic, like every algorithm name."""
        return f"resilient({self.inner.name})"

    def make_program(self, node: int, ctx: NodeContext) -> NodeProgram:
        """Create the transport program driving the inner node program."""
        return _ResilientProgram(self, node, ctx)

    def max_rounds(self, network) -> int:
        """Inner cap stretched by the window size plus the linger grace."""
        inner_cap = self.inner.max_rounds(network)
        return self.window_rounds * (inner_cap + self.linger_windows + 2) + 2


def wrap_workload(workload, max_retries: int = 3, linger_windows: int = 4):
    """A copy of ``workload`` with every algorithm wrapped for resilience.

    AIDs, the master seed, and the message-bit budget are preserved, so
    each inner algorithm draws the same random tape as in the unwrapped
    workload; on a fault-free network the wrapped workload's solo outputs
    equal the unwrapped ones.
    """
    from ..core.workload import Workload

    return Workload(
        workload.network,
        [
            ResilientAlgorithm(
                algorithm, max_retries=max_retries, linger_windows=linger_windows
            )
            for algorithm in workload.algorithms
        ],
        master_seed=workload.master_seed,
        message_bits=workload.message_bits,
    )
