"""Struct-of-arrays message transport backed by numpy.

The reference transport (:mod:`repro.core.transport`) pays two Python
dict/object operations *per message*: the trace's incremental indices
and the pending-inbox ``setdefault``.  Profiling the solo engine shows
``ExecutionTrace.record`` alone is half the per-message cost.  This
backend replaces both with columnar buffers (neither backend sizes a
payload: the sending ``NodeContext`` does, once per ``send`` /
``send_all``):

* sends are buffered per round as two parallel lists, senders and
  drained outboxes — two appends per *push*, not per message, and no
  object made per push — and a
  :class:`~repro.congest.program.Broadcast` outbox (a ``send_all``)
  stays one object end to end: one sender, one count, no per-neighbour
  tuples;
* the trace is an :class:`ArrayTrace` storing each round
  **run-length-encoded** as ``array('i')`` columns: senders and counts
  (one entry per run) plus one receiver column, converted from the
  channel's lists once, at delivery time (a full flood round is three
  int32 buffers — 4 bytes a receiver, pickled as raw bytes — not
  ``2·|E|`` event tuples or int objects: nothing in it for the cycle
  collector to walk). Load/congestion indices (``directed_loads``,
  ``edge_round_counts``, ``max_edge_rounds``, …) are built lazily on
  the first query instead of per-message dict updates, with vectorised
  ``numpy`` kernels over ``np.frombuffer`` views of the columns, a
  batch of whole rounds at a time (``np.repeat`` expansion, packed
  ``sender << 32 | receiver`` int64 keys, ``np.unique`` and stable-sort
  folds). The per-edge round counts every scheduler's parameters read
  are the one exception: a trace of fewer than
  :data:`NUMPY_MIN_MESSAGES` messages counts them by a Python walk of
  its columns, where numpy's fixed cost per call outweighs the walk;
* per-phase edge loads go into the shared
  :class:`~repro.core.transport.LoadWindow` as packed
  ``sender << 32 | receiver`` int keys, a broadcast's from a per-sender
  cache (the reference channels append ``(sender, receiver)`` tuples).
  The cluster engine's channel has one implementation: its pushes are
  gated message by message either way.

Bit-identity
------------
Every observable — outputs, trace events and queries, load histograms,
``max_message_bits``, telemetry counters — is identical to the reference
backend; ``tests/core/test_transport_identity.py`` pins this.  Two
consequences shape the implementation:

* **Inbox order is preserved.**  Programs may iterate their inbox, so
  delivery rebuilds each ``{sender: payload}`` dict in exact push order
  (same insertion order, same overwrite semantics as the reference
  ``setdefault`` path).
* **Faulted channels fall back to the reference implementation.**  The
  fault injector decides each message's fate with an independent seeded
  hash per ``(round, edge, stream)``; those per-message decisions cannot
  be batched without re-deriving them message-by-message anyway, so
  fault-injected runs (a tiny fraction of real workloads) simply use the
  golden code path — identical by construction.
* **The eager channel stays object-per-message**: it has one
  implementation, :class:`~repro.core.transport.ReferenceEagerChannel`,
  since its FIFO drain order is output-visible (see its docstring).

Node ids are assumed to fit in 31 bits (they are dense ``0 .. n-1``
indices everywhere in this codebase), which lets the trace hold them in
int32 columns and a directed edge pack into one non-negative int64 key.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import chain, repeat
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Set, Tuple

from ..congest.program import Broadcast, Outbox
from ..congest.trace import ExecutionTrace
from ..faults import FaultInjector
from .transport import (
    Inboxes,
    LoadWindow,
    ReferencePhaseChannel,
    ReferenceSoloChannel,
    Transport,
)

if TYPE_CHECKING:
    import numpy as np

    from .phase_engine import Copy

__all__ = ["ArrayTrace", "NumpyTransport"]

_KEY_BITS = 32
_KEY_MASK = (1 << _KEY_BITS) - 1

#: An :class:`ArrayTrace` with at least this many messages builds its
#: per-edge round counts (``edge_round_counts`` / ``max_edge_rounds``)
#: with numpy kernels; a smaller one walks its columns in Python. The
#: two tie between 512 and 600 messages on the box measured in
#: ``docs/PERFORMANCE.md`` ("Fixed per-run costs"): the walk is ~4×
#: faster at 18 messages, where numpy's fixed cost per call dominates,
#: and ~2× slower at 5 000. numpy itself is imported only by the kernels,
#: so a process whose traces all stay below this never loads it.
NUMPY_MIN_MESSAGES = 512

#: The numpy kernels fold an :class:`ArrayTrace` a batch of whole rounds
#: at a time, each batch holding at most this many messages unless one
#: round alone has more. A batch needs about 45 bytes a message of
#: scratch (int32 columns, int64 keys, a sort order), so a query peaks
#: near 3 MB above its result, and a trace up to this size is folded in
#: one pass, paying numpy's fixed cost per call once. The sizes measured
#: against it are in ``docs/PERFORMANCE.md`` ("Message plane").
_BATCH_MESSAGES = 1 << 16


def _pack_counter(keys: np.ndarray, counts: np.ndarray) -> Counter:
    """Unpack ``sender << 32 | receiver`` keys into an edge Counter."""
    edges = zip((keys >> _KEY_BITS).tolist(), (keys & _KEY_MASK).tolist())
    return Counter(dict(zip(edges, counts.tolist())))


def _sum_tallies(
    tallies: Iterator[Tuple[np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Fold ``(sorted unique keys, counts)`` tallies, one per batch, into
    one, summing a key's counts across batches. The running tally holds
    one entry per key, never one per batch and key."""
    import numpy as np

    keys, counts = next(tallies)
    for more_keys, more_counts in tallies:
        keys, where = np.unique(
            np.concatenate((keys, more_keys)), return_inverse=True
        )
        totals = np.zeros(len(keys), np.int64)
        np.add.at(totals, where, np.concatenate((counts, more_counts)))
        counts = totals
    return keys, counts


class ArrayTrace(ExecutionTrace):
    """An :class:`~repro.congest.trace.ExecutionTrace` stored columnar.

    Each round is a receiver column plus run-length-encoded senders (a
    senders column and a counts column, one entry per push — engines
    push one sender's whole outbox at a time), all ``array('i')``: 4
    bytes per entry, pickled as raw bytes. The derived indices —
    directed loads, per-edge round sets/counts — are built lazily on
    first query and invalidated by further recording. The numpy kernels
    read the columns as ``np.frombuffer`` views, folded a batch of whole
    rounds at a time so no query expands the whole trace; per-edge round
    counts below :data:`NUMPY_MIN_MESSAGES` messages are a walk of the
    columns instead. Every query returns exactly what the incremental
    reference implementation returns.
    """

    def __init__(self) -> None:
        # Deliberately *not* calling super().__init__: the base class
        # allocates the per-message incremental indices this subclass
        # exists to avoid. _num_messages/_last_round keep their base
        # meaning so inherited __repr__/__len__ keep working.
        self._round_senders: List[array] = []
        self._round_counts: List[array] = []
        self._round_receivers: List[array] = []
        self._num_messages = 0
        self._last_round = 0
        self._invalidate()

    # -- recording -----------------------------------------------------

    def _invalidate(self) -> None:
        """Drop the lazy caches (``None`` until the next query)."""
        self._loads_cache: Optional[Counter] = None
        self._edge_round_counts_cache: Optional[Counter] = None
        self._edge_rounds_cache: Optional[Dict[Tuple[int, int], Set[int]]] = None
        self._max_edge_rounds_cache: Optional[int] = None

    def _reserve(self, round_index: int) -> None:
        if round_index < 1:
            raise ValueError("round indices are 1-based")
        while len(self._round_receivers) < round_index:
            self._round_senders.append(array("i"))
            self._round_counts.append(array("i"))
            self._round_receivers.append(array("i"))

    def record(self, round_index: int, sender: int, receiver: int) -> None:
        """Record a message traversing ``sender -> receiver`` in a round."""
        self._reserve(round_index)
        slot = round_index - 1
        senders = self._round_senders[slot]
        if senders and senders[-1] == sender:
            self._round_counts[slot][-1] += 1
        else:
            senders.append(sender)
            self._round_counts[slot].append(1)
        self._round_receivers[slot].append(receiver)
        self._num_messages += 1
        if round_index > self._last_round:
            self._last_round = round_index
        self._invalidate()

    def record_round(
        self, round_index: int, sends: List[Tuple[int, int]]
    ) -> None:
        """Record a whole round (reserving the slot even when silent)."""
        self._reserve(round_index)
        for sender, receiver in sends:
            self.record(round_index, sender, receiver)

    def adopt_round(
        self,
        round_index: int,
        senders: List[int],
        counts: List[int],
        receivers: List[int],
    ) -> None:
        """Adopt a whole round's columns (channel internal).

        ``senders[i]`` sent to the next ``counts[i]`` entries of
        ``receivers``. The lists are converted to ``array('i')`` once,
        here; the round slot must not already contain messages. Empty
        columns are not recorded (the reference ``record``-only path
        never materialises silent rounds).
        """
        if not receivers:
            return
        self._reserve(round_index)
        slot = round_index - 1
        if self._round_receivers[slot]:  # pragma: no cover - channel misuse
            raise ValueError(f"round {round_index} already has messages")
        self._round_senders[slot] = array("i", senders)
        self._round_counts[slot] = array("i", counts)
        self._round_receivers[slot] = array("i", receivers)
        self._num_messages += len(receivers)
        if round_index > self._last_round:
            self._last_round = round_index
        self._invalidate()

    # -- queries -------------------------------------------------------

    def _expand(self, slot: int) -> Iterator[int]:
        """Iterate one round's senders message by message."""
        return chain.from_iterable(
            map(repeat, self._round_senders[slot], self._round_counts[slot])
        )

    def events_at(self, round_index: int) -> List[Tuple[int, int]]:
        """The directed sends of one round."""
        if not 1 <= round_index <= len(self._round_receivers):
            return []
        slot = round_index - 1
        return list(zip(self._expand(slot), self._round_receivers[slot]))

    def events(self) -> Iterator[Tuple[int, int, int]]:
        """Iterate all events as ``(round, sender, receiver)``."""
        for slot, receivers in enumerate(self._round_receivers):
            for sender, receiver in zip(self._expand(slot), receivers):
                yield (slot + 1, sender, receiver)

    def _batches(self) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The messages as ``(senders, receivers, rounds)`` int32 arrays,
        a batch of consecutive whole rounds at a time.

        A batch takes rounds until the next would carry it past
        :data:`_BATCH_MESSAGES` messages (one round alone may exceed
        it), so a mid-size trace is one batch — numpy's fixed cost paid
        once — and a large one is never expanded whole. There is always
        at least one batch.
        """
        import numpy as np

        def joined(columns: List[array]) -> np.ndarray:
            return np.frombuffer(b"".join(columns), np.intc)

        def batch(slots: List[int]) -> Tuple[np.ndarray, ...]:
            receivers = joined([self._round_receivers[s] for s in slots])
            senders = np.repeat(
                joined([self._round_senders[s] for s in slots]),
                joined([self._round_counts[s] for s in slots]),
            )
            rounds = np.repeat(
                np.array(slots, np.intc) + 1,
                [len(self._round_receivers[s]) for s in slots],
            )
            return senders, receivers, rounds

        slots: List[int] = []
        size = 0
        for slot, receivers in enumerate(self._round_receivers):
            if receivers:
                if slots and size + len(receivers) > _BATCH_MESSAGES:
                    yield batch(slots)
                    slots, size = [], 0
                slots.append(slot)
                size += len(receivers)
        yield batch(slots)  # empty only when the trace is

    def directed_loads(self) -> Counter:
        """Message count per directed edge."""
        if self._loads_cache is None:
            import numpy as np

            tallies = (
                np.unique(
                    (senders.astype(np.int64) << _KEY_BITS) | receivers,
                    return_counts=True,
                )
                for senders, receivers, _ in self._batches()
            )
            self._loads_cache = _pack_counter(*_sum_tallies(tallies))
        return Counter(self._loads_cache)

    def _edge_pairs(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Per batch, its distinct ``(undirected edge key, round)`` pairs,
        edge-sorted and, within an edge, in round order. Batches hold
        disjoint rounds, in order, so no pair is in two of them."""
        import numpy as np

        for senders, receivers, rounds in self._batches():
            lo = np.minimum(senders, receivers).astype(np.int64)
            keys = (lo << _KEY_BITS) | np.maximum(senders, receivers)
            # A batch lists its rounds in order, so a stable sort by edge
            # leaves each edge's rounds ascending.
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            rounds = rounds[order]
            fresh = np.ones(len(keys), dtype=bool)
            np.logical_or(
                keys[1:] != keys[:-1], rounds[1:] != rounds[:-1], out=fresh[1:]
            )
            yield keys[fresh], rounds[fresh]

    def edge_rounds(self) -> Dict[Tuple[int, int], Set[int]]:
        """For each undirected edge, the set of rounds with any traffic."""
        if self._edge_rounds_cache is None:
            import numpy as np

            result: Dict[Tuple[int, int], Set[int]] = {}
            for keys, rounds in self._edge_pairs():
                if not len(keys):
                    continue
                boundaries = np.flatnonzero(keys[1:] != keys[:-1]) + 1
                starts = [0, *boundaries.tolist(), len(keys)]
                key_list = keys.tolist()
                round_list = rounds.tolist()
                for begin, end in zip(starts, starts[1:]):
                    key = key_list[begin]
                    edge = (key >> _KEY_BITS, key & _KEY_MASK)
                    result.setdefault(edge, set()).update(round_list[begin:end])
            self._edge_rounds_cache = result
        return {
            edge: set(rounds) for edge, rounds in self._edge_rounds_cache.items()
        }

    def edge_round_counts(self) -> Counter:
        """``c_i(e)`` for each undirected edge, as a Counter."""
        if self._edge_round_counts_cache is None:
            if self._num_messages < NUMPY_MIN_MESSAGES:
                # One count per round in which an undirected edge is used.
                counts: Counter = Counter()
                for slot, receivers in enumerate(self._round_receivers):
                    counts.update({
                        (s, r) if s <= r else (r, s)
                        for s, r in zip(self._expand(slot), receivers)
                    })
                top = max(counts.values(), default=0)
            else:
                import numpy as np

                tallies = (
                    np.unique(keys, return_counts=True)
                    for keys, _ in self._edge_pairs()
                )
                unique, runs = _sum_tallies(tallies)
                counts = _pack_counter(unique, runs)
                top = int(runs.max()) if len(runs) else 0
            self._edge_round_counts_cache = counts
            self._max_edge_rounds_cache = top
        return Counter(self._edge_round_counts_cache)

    def max_edge_rounds(self) -> int:
        """``max_e c_i(e)`` — this algorithm's own worst edge usage."""
        if self._max_edge_rounds_cache is None:
            self.edge_round_counts()
        return self._max_edge_rounds_cache

    # -- pickling ------------------------------------------------------

    def __getstate__(self) -> Dict[str, Any]:
        """Ship only the columns; caches rebuild on demand."""
        return {
            "_round_senders": self._round_senders,
            "_round_counts": self._round_counts,
            "_round_receivers": self._round_receivers,
            "_num_messages": self._num_messages,
            "_last_round": self._last_round,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._invalidate()


class NumpySoloChannel:
    """Columnar solo-simulator channel (fault-free runs only).

    :meth:`push` is O(1) and allocates nothing: it appends the sender and
    the engine's drained outbox (adopted *by reference*) to the round's
    two parallel lists. Delivery walks them in a single pass, building
    inboxes in push order (preserving the reference backend's dict
    insertion/overwrite semantics exactly) while emitting the counts and
    receiver columns as plain lists (``list.extend`` of a broadcast's
    neighbours is several times faster than ``array.extend``); the
    :class:`ArrayTrace` converts those and the senders list to int32
    arrays once per round.
    """

    __slots__ = ("trace", "_buffers")

    def __init__(self) -> None:
        self.trace = ArrayTrace()
        # round -> (senders, their drained outboxes), push order.
        self._buffers: Dict[int, Tuple[List[int], List[Outbox]]] = {}

    def push(self, sender: int, sends: Outbox, round_index: int) -> None:
        """Buffer ``sends`` traversing edges during ``round_index``.

        Takes ownership of ``sends`` (engines hand over the freshly
        drained outbox and never mutate it afterwards).
        """
        if not sends:
            return
        buf = self._buffers.get(round_index)
        if buf is None:
            buf = self._buffers[round_index] = ([], [])
        buf[0].append(sender)
        buf[1].append(sends)

    def deliver(self, round_index: int) -> Inboxes:
        """Pop the inboxes delivered during ``round_index``."""
        buf = self._buffers.pop(round_index, None)
        deliveries: Inboxes = {}
        if buf is None:
            return deliveries
        senders, outboxes = buf
        counts: List[int] = []
        receivers_col: List[int] = []
        counts_append = counts.append
        col_append = receivers_col.append
        col_extend = receivers_col.extend
        get = deliveries.get
        for sender, sends in zip(senders, outboxes):
            if type(sends) is Broadcast:
                payload = sends.payload
                neighbors = sends.neighbors
                counts_append(len(neighbors))
                col_extend(neighbors)
                for receiver in neighbors:
                    box = get(receiver)
                    if box is None:
                        deliveries[receiver] = {sender: payload}
                    else:
                        box[sender] = payload
                continue
            counts_append(len(sends))
            for receiver, payload in sends:
                col_append(receiver)
                box = get(receiver)
                if box is None:
                    deliveries[receiver] = {sender: payload}
                else:
                    box[sender] = payload
        # The buffers' job as delivery queues is done; the trace adopts
        # the senders, counts and receiver columns.
        self.trace.adopt_round(round_index, senders, counts, receivers_col)
        return deliveries

    @property
    def message_count(self) -> int:
        """Messages recorded so far (mid-run telemetry sampling).

        Counts at *push* time, like the reference channel's
        ``trace.record``-at-push — in-flight sends are already counted,
        by a walk over the pending pushes, so sample it once per round.
        """
        return self.trace.num_messages + sum(
            sum(map(len, outboxes)) for _senders, outboxes in self._buffers.values()
        )

    # Fault-delayed bookkeeping: this channel never handles faults (the
    # transport builds a reference channel when the injector is live).

    def has_delayed(self) -> bool:
        return False

    def delayed_horizon(self) -> int:  # pragma: no cover - never delayed
        return 0

    def delayed_message_count(self) -> int:  # pragma: no cover
        return 0

    def clear_delayed(self) -> None:  # pragma: no cover - never delayed
        pass

    def finalize(self) -> ArrayTrace:
        """Seal the channel: flush undelivered sends into the trace (as
        deliveries nobody reads — the final sends of a run, at most)."""
        for round_index in sorted(self._buffers):
            self.deliver(round_index)
        return self.trace


class NumpyPhaseChannel(LoadWindow):
    """Columnar phase-engine channel (fault-free runs only).

    Pending sends are per-algorithm columns, as in
    :class:`NumpySoloChannel`; the :class:`LoadWindow` holds packed
    ``sender << 32 | receiver`` int keys, and a broadcast's keys come
    from a per-sender cache.
    """

    __slots__ = ("messages", "_senders", "_outboxes", "_key_cache")

    def __init__(self, k: int) -> None:
        super().__init__()
        self.messages = 0
        # Per algorithm, the senders and their drained outboxes awaiting
        # delivery: two parallel lists, push order.
        self._senders: List[List[int]] = [[] for _ in range(k)]
        self._outboxes: List[List[Outbox]] = [[] for _ in range(k)]
        # sender -> packed keys of its full neighbour set (broadcasts
        # always cover exactly the neighbours, so this is stable).
        self._key_cache: Dict[int, List[int]] = {}

    def push(
        self,
        copy: Copy,
        sender: int,
        sends: Outbox,
        msg_round: int,
        into_current: bool,
    ) -> None:
        """Buffer ``sends`` of ``copy``'s algorithm; see :class:`LoadWindow`.

        ``sends`` is non-empty: the engine pushes what
        :meth:`~repro.congest.program.HostGroup.start` / ``step`` yield,
        and they yield only outboxes that hold a message.
        """
        aid = copy.aid
        self._senders[aid].append(sender)
        self._outboxes[aid].append(sends)
        keys = self.current_edges if into_current else self.next_edges
        if type(sends) is Broadcast:
            cached = self._key_cache.get(sender)
            if cached is None:
                base = sender << _KEY_BITS
                cached = self._key_cache[sender] = [
                    base | receiver for receiver in sends.neighbors
                ]
            keys.extend(cached)
            self.messages += len(sends.neighbors)
            return
        base = sender << _KEY_BITS
        keys.extend([base | receiver for receiver, _payload in sends])
        self.messages += len(sends)

    def deliver(self, copy: Copy, algo_round: int) -> Inboxes:
        """Pop ``copy``'s inboxes delivered during the current phase."""
        aid = copy.aid
        senders = self._senders[aid]
        deliveries: Inboxes = {}
        if not senders:
            return deliveries
        outboxes = self._outboxes[aid]
        self._senders[aid] = []
        self._outboxes[aid] = []
        get = deliveries.get
        for sender, sends in zip(senders, outboxes):
            if type(sends) is Broadcast:
                payload = sends.payload
                for receiver in sends.neighbors:
                    box = get(receiver)
                    if box is None:
                        deliveries[receiver] = {sender: payload}
                    else:
                        box[sender] = payload
                continue
            for receiver, payload in sends:
                box = get(receiver)
                if box is None:
                    deliveries[receiver] = {sender: payload}
                else:
                    box[sender] = payload
        return deliveries

    def idle(self, copy: Copy) -> bool:
        """True when ``copy``'s algorithm has nothing buffered or in flight."""
        return not self._senders[copy.aid]


class NumpyTransport(Transport):
    """Struct-of-arrays transport; bit-identical to the reference.

    Fault-injected channels delegate to the reference implementations
    (see the module docstring for why).
    """

    name = "numpy"

    def solo_channel(self, injector: FaultInjector, stream: Any):
        if injector.enabled:
            return ReferenceSoloChannel(injector, stream)
        return NumpySoloChannel()

    def phase_channel(self, k: int, injector: FaultInjector):
        if injector.enabled:
            return ReferencePhaseChannel(k, injector)
        return NumpyPhaseChannel(k)


#: Shared stateless instance (channels carry all state).
NUMPY_TRANSPORT = NumpyTransport()
