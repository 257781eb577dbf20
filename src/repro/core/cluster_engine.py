"""Per-cluster copy execution with truncation and de-duplication (Lemma 4.4).

The private-randomness scheduler runs **a copy of every algorithm in every
cluster of every layer**. Within one copy:

* only the cluster's members participate, and node ``v`` emits only its
  first ``h'(v) + 1`` algorithm-rounds of messages (``h'`` is its
  contained radius from Lemma 4.2), discarding later sends and any send
  crossing the cluster boundary — the paper's truncation. The ``+ 1``
  matters: a message sent in round ``t`` first influences nodes at
  distance ``≥ 1``, so node ``w``'s output depends on neighbour ``u``'s
  sends up to round ``dilation``, and ``u`` only has
  ``h'(u) ≥ h'(w) - 1 = dilation - 1``;
* the copy starts after a delay of ``δ(layer, cluster, algorithm)``
  big-rounds, where the delay is derived from the cluster's *shared*
  randomness so all members agree on it, and advances one algorithm-round
  per big-round.

**Truncation soundness** (why the copies can share one message pool): we
claim every message a copy actually emits equals the corresponding solo
message. Induction on the round ``t`` of the emitted message, using the
triangle inequality ``h'(u) ≥ h'(v) - 1`` for same-cluster neighbours
``u, v``: round-1 messages depend only on inputs and the fixed random
tapes; a kept round-``t`` message from ``v`` (kept means
``t ≤ h'(v) + 1``) was computed from inboxes of rounds
``s ≤ t - 1 ≤ h'(v)``, and each solo message ``u → v`` of round ``s``
satisfies ``s ≤ h'(v) ≤ h'(u) + 1``, so it was emitted (completely and
exclusively) by this same copy, and is correct by induction. A node's
*last* executed rounds may see incomplete inboxes only beyond its kept
horizon, and the possibly-incomplete final state is never read: outputs
are taken only from a layer where ``h'(v) ≥ dilation_i``, where every
inbox is complete and the program runs to its solo halt.

**De-duplication** (the non-uniform-delay upgrade): since emitted messages
are identical across copies, the engine keys every message by
``(aid, round, sender, receiver)``; with ``dedup=True`` only the first
scheduled copy transmits it and later copies read it from the shared pool
— the paper's "if a copy of it has been sent before, this message gets
dropped ... a node takes into account all the messages that it has
received in the past about rounds up to j-1 of the simulations of the
same algorithm". The engine *asserts* payload equality on every duplicate,
turning the soundness induction above into a runtime-checked invariant.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..clustering.layers import Clustering
from ..errors import CoverageError, ReproError
from ..faults import NULL_INJECTOR, FaultInjector
from ..telemetry import NULL_RECORDER, Recorder
from .phase_engine import Copy, LoopNames, run_copies
from .transport import Inboxes, LoadWindow, Send
from .workload import OutputMap, Workload

__all__ = ["ClusterExecution", "run_cluster_copies", "select_output_layers"]

#: ``delay_of(layer, center, aid) -> big-round delay``.
DelayFn = Callable[[int, int, int], int]


@dataclass
class ClusterExecution:
    """Raw results of a cluster-copies execution."""

    outputs: OutputMap
    num_big_rounds: int
    #: Max messages actually transmitted over one directed edge in one
    #: big-round (after dedup, when enabled) — Lemma 4.4's load.
    max_big_round_load: int
    load_histogram: Counter
    messages_sent: int
    #: Messages suppressed because an identical copy was already sent.
    messages_deduplicated: int
    #: Messages discarded by the truncation gates.
    messages_truncated: int
    num_copies: int
    #: Whether the execution was cut off at its big-round cap instead of
    #: running to completion (only under a ``max_big_rounds`` budget).
    truncated: bool = False


def select_output_layers(
    workload: Workload, clustering: Clustering
) -> Dict[Tuple[int, int], int]:
    """Choose, per (algorithm, node), the layer to read the output from.

    Node ``v`` needs a layer whose cluster contains its
    ``dilation_i``-ball (``h'(v) ≥ dilation_i`` — per-algorithm dilation,
    which is never more than the global one). Raises
    :class:`~repro.errors.CoverageError` listing the uncovered pairs if
    some node has no eligible layer — callers then extend the clustering.
    """
    dilations = [run.rounds for run in workload.solo_runs()]
    chosen: Dict[Tuple[int, int], int] = {}
    misses: List[Tuple[int, int]] = []
    for aid, needed in enumerate(dilations):
        for v in workload.network.nodes:
            layer_index = next(
                (
                    i
                    for i, layer in enumerate(clustering.layers)
                    if layer.h_prime[v] >= needed
                ),
                None,
            )
            if layer_index is None:
                misses.append((aid, v))
            else:
                chosen[(aid, v)] = layer_index
    if misses:
        raise CoverageError(
            f"{len(misses)} (algorithm, node) pairs lack a covering layer; "
            f"e.g. {misses[:5]}; extend the clustering"
        )
    return chosen


#: Cluster ticks are logical: crashes are checked at the copy's algorithm
#: round, so every copy agrees on them.
CLUSTER_LOOP = LoopNames(
    "cluster", "big-rounds",
    ("cluster.round_messages", "cluster.active_copies", "cluster.max_edge_load"),
    lambda big_round, algo_round: algo_round,
)


class _ClusterChannel(LoadWindow):
    """The copies' message plane: truncation gates, dedup, shared pool.

    Copies read one shared pool, so none waits on its own inbox
    (:meth:`idle` is always true). The inherited :class:`LoadWindow`
    counts, per big-round, the messages actually transmitted.
    """

    __slots__ = ("messages_sent", "messages_deduplicated",
                 "messages_truncated", "_injector", "_faults", "_dedup",
                 "_h_prime", "_center", "_pool", "_deferred", "_sent")

    def __init__(
        self, clustering: Clustering, injector: FaultInjector, dedup: bool
    ) -> None:
        super().__init__()
        self.messages_sent = 0
        self.messages_deduplicated = 0
        self.messages_truncated = 0
        self._injector = injector
        self._faults = injector.enabled
        self._dedup = dedup
        self._h_prime = [layer.h_prime for layer in clustering.layers]
        self._center = [layer.center for layer in clustering.layers]
        # Shared message pool: (aid, round) -> node -> {sender: payload}.
        # A message becomes visible here only once it has finished
        # traversing its big-round (physical timing fidelity): start
        # sends at the end of this one, step sends at the end of the
        # next.
        self._pool: Dict[Tuple[int, int], Inboxes] = {}
        # Deposits keyed by the big-round at which they become visible
        # (fault delays push a message's visibility further out).
        self._deferred: Dict[int, List[Tuple[int, int, int, int, Any]]] = {}
        # Dedup registry: (aid, round, sender, receiver) -> payload.
        self._sent: Dict[Tuple[int, int, int, int], Any] = {}

    def push(
        self,
        copy: Copy,
        sender: int,
        sends: List[Send],
        msg_round: int,
        into_current: bool,
    ) -> None:
        """Apply truncation gates + dedup; deposit into the pool.

        ``into_current`` emissions traverse this big-round; step
        emissions traverse the next one.
        """
        h_prime = self._h_prime[copy.layer]
        if msg_round > h_prime[sender] + 1:
            self.messages_truncated += len(sends)
            return
        aid = copy.aid
        cluster_of = self._center[copy.layer]
        sender_cluster = cluster_of[sender]
        edges = self.current_edges if into_current else self.next_edges
        visible_at = self.phase if into_current else self.phase + 1
        sent = self._sent
        for receiver, payload in sends:
            if cluster_of[receiver] != sender_cluster:
                # Boundary nodes may address out-of-cluster neighbours;
                # copies are confined to their cluster.
                self.messages_truncated += 1
                continue
            key = (aid, msg_round, sender, receiver)
            previous = sent.get(key, _MISSING)
            if previous is not _MISSING:
                if previous != payload and not self._faults:
                    # Under faults a late copy may legitimately have
                    # seen a different (delayed/depleted) inbox; the
                    # first emission wins.
                    raise ReproError(
                        "copy-consistency violated: two copies emitted "
                        f"different payloads for {key}: "
                        f"{previous!r} vs {payload!r}"
                    )
                self.messages_deduplicated += 1
                if self._dedup:
                    continue
            else:
                sent[key] = payload
                # Fate is decided once per *logical* message (the tick
                # is its algorithm round), so all copies agree on it.
                for offset in self._injector.deliveries(
                    msg_round, sender, receiver, stream=aid
                ):
                    self._deferred.setdefault(visible_at + offset, []).append(
                        (aid, msg_round, sender, receiver, payload)
                    )
            edges.append((sender, receiver))
            self.messages_sent += 1

    def deliver(self, copy: Copy, algo_round: int) -> Inboxes:
        """The pooled inboxes of ``copy``'s algorithm for ``algo_round``.

        First, deposits due by now (done traversing, fault delay expired
        — also within a fast-forwarded span) join the pool, in due order.
        """
        deferred, pool = self._deferred, self._pool
        if deferred and min(deferred) <= self.phase:
            for due in sorted(r for r in deferred if r <= self.phase):
                for aid, msg_round, sender, receiver, payload in deferred.pop(due):
                    pool.setdefault((aid, msg_round), {}).setdefault(
                        receiver, {}
                    )[sender] = payload
        return pool.get((copy.aid, algo_round), _NO_INBOXES)

    def idle(self, copy: Copy) -> bool:
        return True


def run_cluster_copies(
    workload: Workload,
    clustering: Clustering,
    delay_of: DelayFn,
    dedup: bool = True,
    output_layers: Optional[Dict[Tuple[int, int], int]] = None,
    max_big_rounds: Optional[int] = None,
    recorder: Recorder = NULL_RECORDER,
    injector: FaultInjector = NULL_INJECTOR,
) -> ClusterExecution:
    """Execute every (layer, cluster, algorithm) copy under big-round delays.

    See the module docstring for semantics. ``delay_of`` must be a
    function of the cluster's shared randomness only (the same value for
    every member), which the callers guarantee by deriving it from
    :func:`repro.clustering.layers.cluster_seed_bits`.

    When ``recorder`` is enabled, each big-round samples the number of
    active copies, messages transmitted, and the max directed-edge load,
    and the dedup/truncation totals become counters.

    Faults here attach to the **logical** message: the injector's tick is
    the message's algorithm round (and crash checks use the copy's
    algorithm round), so every copy of the same message shares one fate
    and the copies stay mutually consistent. Because faulted copies can
    still observe genuinely different inboxes (a delayed message reaches
    late copies only), the copy-consistency check downgrades from a hard
    error to first-payload-wins while faults are enabled.
    ``max_big_rounds`` is a budget, as ``max_phases`` is in
    :func:`~repro.core.phase_engine.run_delayed_phases`. The
    copies step through :func:`~repro.core.phase_engine.run_copies`. The
    workload's transport runs only the solo references here: the
    copies' channel has one implementation (this module's
    ``_ClusterChannel``), since its shared pool, dedup registry and
    truncation gates *are* scheduling decisions.
    """
    network = workload.network
    solo = workload.solo_runs()
    dilations = [run.rounds for run in solo]
    hard_caps = [
        algorithm.max_rounds(network) for algorithm in workload.algorithms
    ]
    if output_layers is None:
        output_layers = select_output_layers(workload, clustering)

    # One copy per (layer, cluster, algorithm). Every copy of
    # (aid, node) runs the same random tape (the paper's
    # randomness-as-input): the group derives it from the tape id alone,
    # and the copies share the workload's start memo (passing ``limits``
    # opts in), so a member that only waits is built in the copies where
    # it wakes.
    copy_at: Dict[Tuple[int, int, int], Copy] = {}
    for layer_index, layer in enumerate(clustering.layers):
        h_prime = layer.h_prime
        for center, members in layer.clusters().items():
            for aid in workload.aids:
                delay = delay_of(layer_index, center, aid)
                if delay < 0:
                    raise ReproError("delays must be non-negative")
                # Fully covered nodes run to their solo halt; truncated
                # nodes stop stepping at their contained radius (their
                # step-t emissions are round-(t+1) sends, covering the
                # allowed horizon h' + 1). h' = 0 nodes still start:
                # their round-1 sends are input-only and may feed
                # same-cluster neighbours.
                dilation, hard_cap = dilations[aid], hard_caps[aid]
                limits = {
                    v: hard_cap if h_prime[v] >= dilation else h_prime[v]
                    for v in members
                }
                copy_at[(layer_index, center, aid)] = Copy(
                    aid, delay,
                    workload.host_group(aid, members, limits=limits),
                    max(limits.values(), default=0), layer_index,
                )
    copies = list(copy_at.values())

    truncate = max_big_rounds is not None
    if max_big_rounds is None:
        max_big_rounds = max((c.delay for c in copies), default=0) + max(hard_caps, default=1) + 4
    channel = _ClusterChannel(clustering, injector, dedup)
    last_active, skipped_rounds, truncated = run_copies(
        copies, channel, max_big_rounds, CLUSTER_LOOP, recorder, injector,
        truncate,
    )

    # Collect outputs from the chosen layers, one node at a time: a slot
    # still dormant is built only if its output is wanted.
    outputs: OutputMap = {}
    for (aid, v), layer_index in output_layers.items():
        center = clustering.layers[layer_index].center[v]
        copy = copy_at.get((layer_index, center, aid))
        if copy is None:
            raise CoverageError(
                f"no host for output of algorithm {aid} at node {v} "
                f"in layer {layer_index}"
            )
        outputs[(aid, v)] = copy.group.output(v)

    if recorder.enabled:
        recorder.counter("cluster.big_rounds", last_active + 1)
        if skipped_rounds:
            recorder.counter("cluster.skipped_rounds", skipped_rounds)
        recorder.counter("cluster.messages_sent", channel.messages_sent)
        recorder.counter(
            "cluster.messages_deduplicated", channel.messages_deduplicated
        )
        recorder.counter("cluster.messages_truncated", channel.messages_truncated)
        recorder.counter("cluster.copies", len(copies))
        recorder.observe("cluster.max_load", channel.max_load)
        groups = [copy.group for copy in copies]
        recorder.counter("cluster.hosts_built", sum(g.hosts_built for g in groups))
        recorder.counter(
            "cluster.hosts_dormant", sum(g.hosts_dormant for g in groups)
        )

    return ClusterExecution(
        outputs=outputs,
        num_big_rounds=last_active + 1,
        max_big_round_load=channel.max_load,
        load_histogram=channel.histogram,
        messages_sent=channel.messages_sent,
        messages_deduplicated=channel.messages_deduplicated,
        messages_truncated=channel.messages_truncated,
        num_copies=len(copies),
        truncated=truncated,
    )


_MISSING = object()
_NO_INBOXES: Dict[int, Dict[int, Any]] = {}
