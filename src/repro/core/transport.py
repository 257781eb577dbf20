"""The transport layer: message movement split from scheduling decisions.

Every engine in this package makes two kinds of moves each round:
*scheduling decisions* (which algorithm advances, which copy starts,
when a phase ends) and *message transport* (buffer this send, deliver
that inbox, account the per-edge load).  Historically both were fused in
the engine loops, one Python object per message — which is why
bench_e19 measured an 8× round-count win turning into a 0.98× wall-clock
"win" (ROADMAP item 1).

This module is the seam between the two: a :class:`Transport` builds
per-engine *channels* (solo / phase / cluster / eager) that own all
message buffering, fault routing, trace recording and load accounting,
while the engines keep every decision.  Two implementations exist:

* :class:`ReferenceTransport` (here) — the original object-per-message
  code paths, moved behind the channel interface **verbatim**.  It is
  the golden reference: every other backend must be bit-identical to it
  (outputs, traces, load histograms, telemetry counters).
* ``NumpyTransport`` (:mod:`repro.core.transport_numpy`) — a
  struct-of-arrays backend batching per-round edge/load columns and
  delivery buffers.  Selected automatically when numpy is importable.

Backend selection
-----------------
Every entry point (``Simulator``, ``run_delayed_phases``,
``run_cluster_copies``, ``Workload``, the schedulers and the service)
accepts ``transport=`` and resolves it with :func:`resolve_transport`:

* ``None`` — consult the ``REPRO_TRANSPORT`` environment variable, then
  fall back to ``"auto"``;
* ``"auto"`` — numpy backend when numpy is importable, else reference;
* ``"reference"`` / ``"numpy"`` — force a backend (``"numpy"`` raises a
  helpful error when numpy is missing);
* a :class:`Transport` instance — used as-is.

Because results are bit-identical across backends, the transport is
**not** part of any cache key (see
:class:`repro.parallel.cache.SoloRunCache`) and never changes tape ids,
fault fates or telemetry values — only how fast the messages move.
"""

from __future__ import annotations

import os
from collections import Counter, deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..congest.trace import ExecutionTrace
from ..faults import FaultInjector

__all__ = [
    "ReferenceTransport",
    "Transport",
    "TRANSPORT_ENV",
    "available_transports",
    "resolve_transport",
]

#: Environment variable consulted when no explicit transport is given.
TRANSPORT_ENV = "REPRO_TRANSPORT"

#: A buffered send: ``(receiver, payload)`` (matches ``NodeContext``).
Send = Tuple[int, Any]
#: Inboxes for one round: ``receiver -> {sender: payload}``.
Inboxes = Dict[int, Dict[int, Any]]


class Transport:
    """Factory of per-engine message channels.

    Subclasses implement the four ``*_channel`` constructors.  Instances
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
        self, k: int, injector: FaultInjector, collect_histogram: bool
    ) -> "ReferencePhaseChannel":
        """Channel for :func:`~repro.core.phase_engine.run_delayed_phases`."""
        raise NotImplementedError

    def cluster_load_channel(self) -> "ReferenceClusterLoadChannel":
        """Load accounting for the cluster-copies engine.

        The cluster engine keeps its shared message pool and dedup
        registry (those *are* scheduling decisions — see Lemma 4.4);
        only the per-big-round directed-edge load accounting moves here.
        """
        raise NotImplementedError

    def eager_channel(self) -> "ReferenceEagerChannel":
        """FIFO edge queues for the eager (unsafe) scheduler."""
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


class ReferencePhaseChannel:
    """Object-per-message transport for the big-round phase engine.

    Owns per-algorithm pending/delayed inboxes and the per-phase
    directed-edge load accounting (current phase vs. next phase, swapped
    by :meth:`begin_phase`).  A dropped or delayed message still occupies
    its traversal phase in the load profile.
    """

    __slots__ = ("messages", "max_load", "_injector", "_faults",
                 "_collect_histogram", "_histogram", "_pending", "_delayed",
                 "_current_loads", "_next_loads")

    def __init__(
        self, k: int, injector: FaultInjector, collect_histogram: bool
    ):
        self.messages = 0
        self.max_load = 0
        self._injector = injector
        self._faults = injector.enabled
        self._collect_histogram = collect_histogram
        self._histogram: Counter = Counter()
        # Inboxes waiting to be processed: _pending[aid][node] = {sender: payload}.
        self._pending: List[Inboxes] = [dict() for _ in range(k)]
        # Fault-delayed: _delayed[aid][phase][node] = {sender: payload}.
        self._delayed: List[Dict[int, Inboxes]] = [dict() for _ in range(k)]
        # Loads of messages traversing during the current / next phase.
        self._current_loads: Counter = Counter()
        self._next_loads: Counter = Counter()

    def begin_phase(self) -> None:
        """Roll the load window: next phase's traffic becomes current."""
        self._current_loads, self._next_loads = self._next_loads, Counter()

    def push(
        self,
        aid: int,
        sender: int,
        sends: List[Send],
        traverse: int,
        into_current: bool,
    ) -> None:
        """Buffer ``sends`` of algorithm ``aid`` traversing phase ``traverse``.

        ``into_current`` selects the load window: start-of-phase sends
        traverse the current phase, step sends the next one.
        """
        loads = self._current_loads if into_current else self._next_loads
        box = self._pending[aid]
        messages = self.messages
        if self._faults:
            injector = self._injector
            delayed = self._delayed[aid]
            for receiver, payload in sends:
                offsets = injector.deliveries(
                    traverse + 1, sender, receiver, stream=aid
                )
                for offset in offsets:
                    if offset == 0:
                        box.setdefault(receiver, {})[sender] = payload
                    else:
                        delayed.setdefault(
                            traverse + offset, {}
                        ).setdefault(receiver, {})[sender] = payload
                loads[(sender, receiver)] += 1
                messages += 1
        else:
            for receiver, payload in sends:
                box.setdefault(receiver, {})[sender] = payload
                loads[(sender, receiver)] += 1
                messages += 1
        self.messages = messages

    def deliver(self, aid: int, phase: int) -> Inboxes:
        """Pop algorithm ``aid``'s inboxes delivered during ``phase``."""
        deliveries, self._pending[aid] = self._pending[aid], {}
        delayed = self._delayed[aid]
        if self._faults and delayed:
            # Late duplicates lose to any fresher same-sender message.
            for receiver, stale in delayed.pop(phase, {}).items():
                box = deliveries.setdefault(receiver, {})
                for sender, payload in stale.items():
                    box.setdefault(sender, payload)
        return deliveries

    def idle(self, aid: int) -> bool:
        """True when algorithm ``aid`` has nothing buffered or in flight."""
        return not self._pending[aid] and not self._delayed[aid]

    def next_phase_empty(self) -> bool:
        """True when nothing traverses during the next phase (fast-forward)."""
        return not self._next_loads

    def end_phase(self) -> Tuple[int, int]:
        """Close the current phase; returns ``(messages, top load)``.

        Folds the phase's load profile into the histogram/max tracking.
        A ``(0, 0)`` return means the phase was silent.
        """
        loads = self._current_loads
        if not loads:
            return 0, 0
        top = max(loads.values())
        if top > self.max_load:
            self.max_load = top
        if self._collect_histogram:
            self._histogram.update(loads.values())
        return sum(loads.values()), top

    def histogram(self) -> Counter:
        """Load value -> number of (directed edge, phase) pairs."""
        return self._histogram


class ReferenceClusterLoadChannel:
    """Directed-edge load accounting for the cluster-copies engine.

    The engine keeps the shared pool, dedup registry and truncation
    gates (they encode Lemma 4.4's scheduling decisions); the channel
    counts, per big-round, the messages actually transmitted.
    """

    __slots__ = ("max_load", "_histogram", "_current", "_next")

    def __init__(self) -> None:
        self.max_load = 0
        self._histogram: Counter = Counter()
        self._current: Counter = Counter()
        self._next: Counter = Counter()

    def begin_round(self) -> None:
        """Roll the load window: next big-round's traffic becomes current."""
        self._current, self._next = self._next, Counter()

    def count(self, sender: int, receiver: int, into_current: bool) -> None:
        """Account one transmitted message on ``sender -> receiver``."""
        if into_current:
            self._current[(sender, receiver)] += 1
        else:
            self._next[(sender, receiver)] += 1

    def next_round_empty(self) -> bool:
        """True when nothing traverses the next big-round (fast-forward)."""
        return not self._next

    def end_round(self) -> Tuple[int, int]:
        """Close the current big-round; returns ``(messages, top load)``."""
        loads = self._current
        if not loads:
            return 0, 0
        top = max(loads.values())
        if top > self.max_load:
            self.max_load = top
        self._histogram.update(loads.values())
        return sum(loads.values()), top

    def drain_next(self) -> Tuple[int, int]:
        """Account final emissions that never traversed; ``(messages, top)``.

        Mirrors the engine's closing ``if carried:`` block: sends emitted
        in the last big-round still occupied the following one.
        """
        carried = self._next
        if not carried:
            return 0, 0
        top = max(carried.values())
        if top > self.max_load:
            self.max_load = top
        self._histogram.update(carried.values())
        return sum(carried.values()), top

    def histogram(self) -> Counter:
        """Load value -> number of (directed edge, big-round) pairs."""
        return self._histogram


class ReferenceEagerChannel:
    """Per-directed-edge FIFO queues for the eager (unsafe) scheduler.

    Kept object-per-message in every backend: the eager engine's inbox
    construction order (queue-dict insertion order) is output-visible —
    a confused program may read "the first message" of a corrupted inbox
    — so any reordering would change the (honestly wrong) outputs.
    """

    __slots__ = ("in_flight", "_queues")

    def __init__(self) -> None:
        self.in_flight = 0
        # One FIFO per directed edge, shared across algorithms: entries
        # are (aid, sender, receiver, payload).
        self._queues: Dict[Tuple[int, int], Deque] = {}

    def push(self, aid: int, sender: int, sends: List[Send]) -> None:
        """Append ``sends`` to their edges' FIFO queues."""
        queues = self._queues
        for receiver, payload in sends:
            queues.setdefault((sender, receiver), deque()).append(
                (aid, sender, receiver, payload)
            )
            self.in_flight += 1

    def transmit(self) -> Tuple[Dict[Tuple[int, int], Dict[int, Any]], int, int]:
        """Move one message per directed edge; returns
        ``(inboxes, overwrites, delivered)`` where inboxes is keyed
        ``(aid, receiver) -> {sender: payload}``."""
        inboxes: Dict[Tuple[int, int], Dict[int, Any]] = {}
        overwrites = 0
        delivered = 0
        for queue in self._queues.values():
            if not queue:
                continue
            aid, sender, receiver, payload = queue.popleft()
            self.in_flight -= 1
            delivered += 1
            box = inboxes.setdefault((aid, receiver), {})
            if sender in box:
                overwrites += 1
            box[sender] = payload
        return inboxes, overwrites, delivered


class ReferenceTransport(Transport):
    """The golden object-per-message transport (original engine code)."""

    name = "reference"

    def solo_channel(
        self, injector: FaultInjector, stream: Any
    ) -> ReferenceSoloChannel:
        return ReferenceSoloChannel(injector, stream)

    def phase_channel(
        self, k: int, injector: FaultInjector, collect_histogram: bool
    ) -> ReferencePhaseChannel:
        return ReferencePhaseChannel(k, injector, collect_histogram)

    def cluster_load_channel(self) -> ReferenceClusterLoadChannel:
        return ReferenceClusterLoadChannel()

    def eager_channel(self) -> ReferenceEagerChannel:
        return ReferenceEagerChannel()


#: Shared stateless instance (channels carry all state).
REFERENCE_TRANSPORT = ReferenceTransport()

_NUMPY_TRANSPORT: Optional[Transport] = None
_NUMPY_ERROR: Optional[str] = None


def _numpy_transport() -> Optional[Transport]:
    """Build (once) the numpy transport, or remember why we can't."""
    global _NUMPY_TRANSPORT, _NUMPY_ERROR
    if _NUMPY_TRANSPORT is None and _NUMPY_ERROR is None:
        try:
            from .transport_numpy import NumpyTransport
        except ImportError as exc:  # numpy (or the module) unavailable
            _NUMPY_ERROR = str(exc)
        else:
            _NUMPY_TRANSPORT = NumpyTransport()
    return _NUMPY_TRANSPORT


def available_transports() -> Tuple[str, ...]:
    """Names of the backends usable right now (always includes reference)."""
    names = ["reference"]
    if _numpy_transport() is not None:
        names.append("numpy")
    return tuple(names)


def resolve_transport(spec: Any = None) -> Transport:
    """Resolve a transport spec (see module docstring) to an instance.

    ``None`` consults the ``REPRO_TRANSPORT`` environment variable and
    falls back to ``"auto"``; ``"auto"`` prefers numpy when importable
    and degrades gracefully to the reference backend otherwise.
    """
    if spec is None:
        spec = os.environ.get(TRANSPORT_ENV) or "auto"
    if isinstance(spec, Transport):
        return spec
    if not isinstance(spec, str):
        raise ValueError(
            f"transport must be a Transport, a name, or None; got {spec!r}"
        )
    name = spec.strip().lower()
    if name == "auto":
        return _numpy_transport() or REFERENCE_TRANSPORT
    if name == "reference":
        return REFERENCE_TRANSPORT
    if name == "numpy":
        transport = _numpy_transport()
        if transport is None:
            raise ValueError(
                f"transport 'numpy' requested but unavailable: {_NUMPY_ERROR}"
            )
        return transport
    raise ValueError(
        f"unknown transport {spec!r}; expected 'auto', 'reference' or 'numpy'"
    )
