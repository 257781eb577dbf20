"""The transport layer: message movement split from scheduling decisions.

Every engine in this package makes two kinds of moves each round:
*scheduling decisions* (which algorithm advances, which copy starts,
when a phase ends) and *message transport* (buffer this send, deliver
that inbox, account the per-edge load).  Historically both were fused in
the engine loops, one Python object per message — which is why
bench_e19 measured an 8× round-count win turning into a 0.98× wall-clock
"win" (ROADMAP item 1).

This module is the seam between the two: a :class:`Transport` builds
the solo and phase *channels* that own message buffering, fault
routing, trace recording and load accounting, while the engines keep
every decision.  Two implementations exist:

* :class:`ReferenceTransport` (here) — the original object-per-message
  code paths, moved behind the channel interface **verbatim**.  It is
  the golden reference: every other backend must be bit-identical to it
  (outputs, traces, load histograms, telemetry counters), and it is the
  fault path of both backends.
* ``NumpyTransport`` (:mod:`repro.core.transport_numpy`) — a
  struct-of-arrays backend batching per-round edge/load columns and
  delivery buffers.  The default.

The phase channels serve the one big-round loop,
:func:`~repro.core.phase_engine.run_copies`, as does the cluster
engine's channel (its shared pool, dedup registry and truncation gates
are Lemma 4.4's scheduling decisions, so it lives in
:mod:`repro.core.cluster_engine` with one implementation).  All three
account per-edge loads in :class:`LoadWindow`.

Backend selection
-----------------
A :class:`~repro.core.workload.Workload` carries the choice
(``Workload(transport=…)``); every engine that executes the workload
reads it from there, and :class:`~repro.congest.simulator.Simulator`
takes its own ``transport=`` for solo runs.  :func:`resolve_transport`
turns a spec into a backend:

* ``None`` or ``"auto"`` — the numpy backend;
* ``"reference"`` / ``"numpy"`` — that backend;
* a :class:`Transport` instance — used as-is.

Because results are bit-identical across backends, the transport is
**not** part of any cache key (see
:class:`repro.parallel.cache.SoloRunCache`) and never changes tape ids,
fault fates or telemetry values — only how fast the messages move.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from ..congest.trace import ExecutionTrace
from ..faults import FaultInjector

if TYPE_CHECKING:
    from .phase_engine import Copy

__all__ = [
    "ReferenceTransport",
    "Transport",
    "resolve_transport",
]

#: A buffered send: ``(receiver, payload)`` (matches ``NodeContext``).
Send = Tuple[int, Any]
#: Inboxes for one round: ``receiver -> {sender: payload}``.
Inboxes = Dict[int, Dict[int, Any]]


class Transport:
    """Factory of the solo and phase message channels.

    Subclasses implement both ``*_channel`` constructors.  Instances
    are stateless (all state lives in the channels they build), cheap to
    share, and picklable — a :class:`~repro.core.workload.Workload`
    carries one across process boundaries.
    """

    #: Short machine name (``"reference"`` / ``"numpy"``), used in
    #: telemetry attributes and error messages.
    name = "abstract"

    def solo_channel(
        self, injector: FaultInjector, stream: Any
    ) -> "ReferenceSoloChannel":
        """Channel for the solo :class:`~repro.congest.simulator.Simulator`.

        ``stream`` is the fault-injector stream id (the algorithm id).
        """
        raise NotImplementedError

    def phase_channel(
        self, k: int, injector: FaultInjector
    ) -> "ReferencePhaseChannel":
        """Channel for :func:`~repro.core.phase_engine.run_delayed_phases`."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


# ---------------------------------------------------------------------------
# Reference channels: the original per-message code paths, verbatim.
# ---------------------------------------------------------------------------


class ReferenceSoloChannel:
    """Object-per-message transport for the solo simulator.

    Semantics (pinned by the identity tests): a send *occupies the edge*
    (and the trace) in its traversal round even when the fault injector
    subsequently drops or delays it; late duplicates lose to any fresher
    same-sender message; undelivered final sends still count toward the
    trace. Payloads are moved, never sized: the sending
    :class:`~repro.congest.program.NodeContext` owns the bit count.
    """

    __slots__ = ("trace", "_injector", "_faults", "_stream", "_pending",
                 "_delayed")

    def __init__(self, injector: FaultInjector, stream: Any):
        self.trace = ExecutionTrace()
        self._injector = injector
        self._faults = injector.enabled
        self._stream = stream
        # Sends buffered for the upcoming round: receiver -> {sender: payload}.
        self._pending: Inboxes = {}
        # Fault-delayed deliveries: round -> receiver -> {sender: payload}.
        self._delayed: Dict[int, Inboxes] = {}

    def push(self, sender: int, sends: List[Send], round_index: int) -> None:
        """Buffer ``sends`` traversing edges during ``round_index``."""
        trace = self.trace
        pending = self._pending
        if self._faults:
            injector = self._injector
            delayed = self._delayed
            stream = self._stream
            for receiver, payload in sends:
                offsets = injector.deliveries(
                    round_index, sender, receiver, stream=stream
                )
                trace.record(round_index, sender, receiver)
                for offset in offsets:
                    if offset == 0:
                        pending.setdefault(receiver, {})[sender] = payload
                    else:
                        delayed.setdefault(
                            round_index + offset, {}
                        ).setdefault(receiver, {})[sender] = payload
        else:
            for receiver, payload in sends:
                pending.setdefault(receiver, {})[sender] = payload
                trace.record(round_index, sender, receiver)

    def deliver(self, round_index: int) -> Inboxes:
        """Pop the inboxes delivered during ``round_index``."""
        deliveries, self._pending = self._pending, {}
        if self._faults and self._delayed:
            # Late duplicates lose to any fresher same-sender message.
            for receiver, stale in self._delayed.pop(round_index, {}).items():
                box = deliveries.setdefault(receiver, {})
                for sender, payload in stale.items():
                    box.setdefault(sender, payload)
        return deliveries

    @property
    def message_count(self) -> int:
        """Messages recorded so far (mid-run telemetry sampling)."""
        return self.trace.num_messages

    def has_delayed(self) -> bool:
        """Whether fault-delayed deliveries are still in flight."""
        return bool(self._delayed)

    def delayed_horizon(self) -> int:
        """Largest round a delayed delivery is due at (0 if none)."""
        return max(self._delayed) if self._delayed else 0

    def delayed_message_count(self) -> int:
        """Number of in-flight delayed messages (late-delivery counter)."""
        return sum(
            len(box)
            for by_recv in self._delayed.values()
            for box in by_recv.values()
        )

    def clear_delayed(self) -> None:
        """Discard remaining delayed messages (end of run, accounted)."""
        self._delayed.clear()

    def finalize(self) -> ExecutionTrace:
        """Seal the channel and return the trace (already complete here)."""
        return self.trace


class LoadWindow:
    """Per-(directed edge, big-round) load accounting of one channel.

    A big-round's sends land in one of two windows, one edge key per
    message: start sends traverse the big-round being walked
    (``current_edges``), step sends the next one (``next_edges``).
    :meth:`end_phase` folds the current window into the max / histogram
    with one ``Counter``; :meth:`begin_phase` rolls the next one in.
    """

    __slots__ = ("phase", "max_load", "histogram", "current_edges",
                 "next_edges")

    def __init__(self) -> None:
        #: The big-round being walked (set by :meth:`begin_phase`).
        self.phase = -1
        self.max_load = 0
        #: Load value -> number of (directed edge, big-round) pairs.
        self.histogram: Counter = Counter()
        self.current_edges: List[Any] = []
        self.next_edges: List[Any] = []

    def begin_phase(self, phase: int) -> None:
        """Roll the load window: next big-round's traffic becomes current."""
        self.phase = phase
        self.current_edges, self.next_edges = self.next_edges, []

    def next_phase_empty(self) -> bool:
        """True when nothing traverses the next big-round (fast-forward)."""
        return not self.next_edges

    def end_phase(self) -> Tuple[int, int]:
        """Close the current big-round; returns ``(messages, top load)``.

        A ``(0, 0)`` return means the big-round was silent.
        """
        edges = self.current_edges
        if not edges:
            return 0, 0
        loads = Counter(edges).values()
        top = max(loads)
        if top > self.max_load:
            self.max_load = top
        self.histogram.update(loads)
        return len(edges), top


class ReferencePhaseChannel(LoadWindow):
    """Object-per-message transport for the phase engine's copies.

    Owns per-algorithm pending/delayed inboxes; the inherited
    :class:`LoadWindow` accounts the per-phase directed-edge loads.  A
    dropped or delayed message still occupies its traversal phase in the
    load profile.
    """

    __slots__ = ("messages", "_injector", "_pending", "_delayed")

    def __init__(self, k: int, injector: FaultInjector):
        super().__init__()
        self.messages = 0
        self._injector = injector
        # Inboxes waiting to be processed: _pending[aid][node] = {sender: payload}.
        self._pending: List[Inboxes] = [dict() for _ in range(k)]
        # Fault-delayed: _delayed[aid][phase][node] = {sender: payload}.
        self._delayed: List[Dict[int, Inboxes]] = [dict() for _ in range(k)]

    def push(
        self,
        copy: "Copy",
        sender: int,
        sends: List[Send],
        msg_round: int,
        into_current: bool,
    ) -> None:
        """Buffer ``sends`` of ``copy``'s algorithm.

        ``into_current`` selects the traversal phase: start-of-phase
        sends traverse the current phase, step sends the next one.
        """
        if into_current:
            edges, traverse = self.current_edges, self.phase
        else:
            edges, traverse = self.next_edges, self.phase + 1
        aid = copy.aid
        box = self._pending[aid]
        delayed = self._delayed[aid]
        deliveries = self._injector.deliveries
        for receiver, payload in sends:
            for offset in deliveries(traverse + 1, sender, receiver, stream=aid):
                if offset == 0:
                    box.setdefault(receiver, {})[sender] = payload
                else:
                    delayed.setdefault(
                        traverse + offset, {}
                    ).setdefault(receiver, {})[sender] = payload
            edges.append((sender, receiver))
        self.messages += len(sends)

    def deliver(self, copy: "Copy", algo_round: int) -> Inboxes:
        """Pop ``copy``'s inboxes delivered during the current phase."""
        aid = copy.aid
        deliveries, self._pending[aid] = self._pending[aid], {}
        delayed = self._delayed[aid]
        if delayed:
            # Late duplicates lose to any fresher same-sender message.
            for receiver, stale in delayed.pop(self.phase, {}).items():
                box = deliveries.setdefault(receiver, {})
                for sender, payload in stale.items():
                    box.setdefault(sender, payload)
        return deliveries

    def idle(self, copy: "Copy") -> bool:
        """True when ``copy``'s algorithm has nothing buffered or in flight."""
        return not self._pending[copy.aid] and not self._delayed[copy.aid]


class ReferenceTransport(Transport):
    """The golden object-per-message transport (original engine code)."""

    name = "reference"

    def solo_channel(
        self, injector: FaultInjector, stream: Any
    ) -> ReferenceSoloChannel:
        return ReferenceSoloChannel(injector, stream)

    def phase_channel(
        self, k: int, injector: FaultInjector
    ) -> ReferencePhaseChannel:
        return ReferencePhaseChannel(k, injector)


#: Shared stateless instance (channels carry all state).
REFERENCE_TRANSPORT = ReferenceTransport()


def resolve_transport(spec: Any = None) -> Transport:
    """Resolve a transport spec (see module docstring) to an instance:
    ``None`` and ``"auto"`` are the numpy backend."""
    if isinstance(spec, Transport):
        return spec
    if spec is None:
        spec = "auto"
    if not isinstance(spec, str):
        raise ValueError(
            f"transport must be a Transport, a name, or None; got {spec!r}"
        )
    name = spec.strip().lower()
    if name == "reference":
        return REFERENCE_TRANSPORT
    if name in ("auto", "numpy"):
        # Imported here: the numpy backend builds on this module.
        from .transport_numpy import NUMPY_TRANSPORT

        return NUMPY_TRANSPORT
    raise ValueError(
        f"unknown transport {spec!r}; expected 'auto', 'reference' or 'numpy'"
    )
