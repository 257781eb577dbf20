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
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ..clustering.layers import Clustering
from ..congest.wave import StepGroup, WaveGroup
from ..errors import CoverageError, ReproError, SimulationLimitExceeded
from ..faults import NULL_INJECTOR, FaultInjector
from ..telemetry import NULL_RECORDER, Recorder
from .transport import resolve_transport
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
    #: running to completion (only possible with ``on_limit="truncate"``).
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


class _Copy(NamedTuple):
    """One (layer, cluster, algorithm) copy."""

    layer: int
    aid: int
    delay: int
    #: The cluster members' stepper (enforces their truncation limits).
    group: StepGroup
    max_limit: int


def run_cluster_copies(
    workload: Workload,
    clustering: Clustering,
    delay_of: DelayFn,
    dedup: bool = True,
    output_layers: Optional[Dict[Tuple[int, int], int]] = None,
    max_big_rounds: Optional[int] = None,
    recorder: Recorder = NULL_RECORDER,
    injector: FaultInjector = NULL_INJECTOR,
    on_limit: str = "raise",
    transport: Any = None,
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
    error to first-payload-wins while faults are enabled. ``on_limit``
    and ``transport`` as in
    :func:`~repro.core.phase_engine.run_delayed_phases` (the transport
    carries only the per-big-round load accounting here — the shared
    pool and dedup registry *are* scheduling decisions and stay in the
    engine).
    """
    network = workload.network
    if on_limit not in ("raise", "truncate"):
        raise ValueError(f"on_limit must be 'raise' or 'truncate', got {on_limit!r}")
    faults = injector.enabled
    solo = workload.solo_runs()
    dilations = [run.rounds for run in solo]
    hard_caps = [
        algorithm.max_rounds(network) for algorithm in workload.algorithms
    ]
    if output_layers is None:
        output_layers = select_output_layers(workload, clustering)

    # Build copy descriptors grouped by start big-round. Every copy of
    # (aid, node) runs the same random tape (the paper's
    # randomness-as-input): the group derives it from the tape id alone,
    # and the copies share the workload's start memo (passing ``limits``
    # opts in), so a member that only waits is built in the copies where
    # it wakes.
    copy_at: Dict[Tuple[int, int, int], _Copy] = {}
    starts: Dict[int, List[_Copy]] = {}
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
                copy = _Copy(
                    layer_index, aid, delay,
                    workload.host_group(aid, members, limits=limits),
                    max(limits.values(), default=0),
                )
                copy_at[(layer_index, center, aid)] = copy
                starts.setdefault(delay, []).append(copy)
    copies = list(copy_at.values())

    if max_big_rounds is None:
        max_big_rounds = max(starts, default=0) + max(hard_caps, default=1) + 4

    # Shared message pool: (aid, round) -> node -> {sender: payload}.
    # A message becomes visible here only once it has finished traversing
    # its big-round: emissions made *during* processing traverse the next
    # big-round and are therefore deferred (physical timing fidelity).
    pool: Dict[Tuple[int, int], Dict[int, Dict[int, Any]]] = {}
    # Deposits keyed by the big-round at which they become visible
    # (fault delays push a message's visibility further out).
    deferred: Dict[int, List[Tuple[int, int, int, int, Any]]] = {}
    # Dedup registry: (aid, round, sender, receiver) -> payload.
    sent: Dict[Tuple[int, int, int, int], Any] = {}

    # Per-big-round directed-edge load accounting lives in the
    # transport channel; pool/dedup/truncation stay engine-side.
    channel = resolve_transport(transport).cluster_load_channel()
    messages_sent = 0
    messages_deduplicated = 0
    messages_truncated = 0
    last_active = -1

    h_prime_of = [layer.h_prime for layer in clustering.layers]
    center_of = [layer.center for layer in clustering.layers]
    active: List[_Copy] = []

    big_round = -1
    algo_round = 0
    remaining = len(copies)
    skipped_rounds = 0
    truncated = False
    crashed = (lambda node: injector.crashed(node, algo_round)) if faults else None
    while remaining > 0:
        big_round += 1
        if not active and channel.next_round_empty() and big_round not in starts:
            # Silent big-round: no copy is running, nothing is traversing,
            # and no copy starts now — fast-forward to the next start
            # (one exists: remaining > 0 with no active copy means some
            # start is still pending). No copy reads the pool before the
            # jump target, so the state at the target is identical to the
            # round-by-round walk. The jump is clamped so the big-round
            # cap fires at the same point either way.
            target = min((r for r in starts if r > big_round), default=None)
            if target is not None:
                clamped = min(target, max_big_rounds + 1)
                if clamped > big_round:
                    skipped_rounds += clamped - big_round
                    big_round = clamped
        if big_round > max_big_rounds:
            if recorder.enabled:
                recorder.counter("cluster.limit_exceeded")
                recorder.event(
                    "limit-exceeded", engine="cluster", cap=max_big_rounds
                )
            if on_limit == "truncate":
                truncated = True
                break
            raise SimulationLimitExceeded(
                f"cluster engine exceeded {max_big_rounds} big-rounds",
                round=max_big_rounds,
            )
        channel.begin_round()

        # Messages that finished traversing (plus any whose fault delay
        # expires now, or expired in a fast-forwarded span) become
        # visible this big-round.
        for due in sorted(r for r in deferred if r <= big_round):
            for aid_, msg_round_, sender_, receiver_, payload_ in deferred.pop(due):
                pool.setdefault((aid_, msg_round_), {}).setdefault(
                    receiver_, {}
                )[sender_] = payload_

        def transmit(
            copy: _Copy, sender: int, sends: Any, msg_round: int, deposit_now: bool
        ) -> None:
            """Apply truncation gates + dedup; deposit into the pool."""
            nonlocal messages_sent, messages_deduplicated, messages_truncated
            h_prime = h_prime_of[copy.layer]
            if msg_round > h_prime[sender] + 1:
                messages_truncated += len(sends)
                return
            aid = copy.aid
            cluster_of = center_of[copy.layer]
            sender_cluster = cluster_of[sender]
            for receiver, payload in sends:
                if cluster_of[receiver] != sender_cluster:
                    # Boundary nodes may address out-of-cluster neighbours;
                    # copies are confined to their cluster.
                    messages_truncated += 1
                    continue
                key = (aid, msg_round, sender, receiver)
                previous = sent.get(key, _MISSING)
                if previous is not _MISSING:
                    if previous != payload and not faults:
                        # Under faults a late copy may legitimately have
                        # seen a different (delayed/depleted) inbox; the
                        # first emission wins.
                        raise ReproError(
                            "copy-consistency violated: two copies emitted "
                            f"different payloads for {key}: "
                            f"{previous!r} vs {payload!r}"
                        )
                    messages_deduplicated += 1
                    if dedup:
                        continue
                else:
                    sent[key] = payload
                    # Fate is decided once per *logical* message (the tick
                    # is its algorithm round), so all copies agree on it.
                    if faults:
                        offsets = injector.deliveries(
                            msg_round, sender, receiver, stream=aid
                        )
                    else:
                        offsets = (0,)
                    visible_at = big_round if deposit_now else big_round + 1
                    for offset in offsets:
                        if offset == 0 and deposit_now:
                            pool.setdefault((aid, msg_round), {}).setdefault(
                                receiver, {}
                            )[sender] = payload
                        else:
                            deferred.setdefault(visible_at + offset, []).append(
                                (aid, msg_round, sender, receiver, payload)
                            )
                # ``deposit_now`` emissions traverse this big-round;
                # step emissions traverse the next one.
                channel.count(sender, receiver, deposit_now)
                messages_sent += 1

        # Copies starting now emit their round-1 messages (traversing this
        # big-round).
        for copy in starts.get(big_round, ()):
            for node, sends in copy.group.start():
                transmit(copy, node, sends, 1, True)
            active.append(copy)

        # Active copies process the inbox of their current round and emit
        # next-round messages (traversing the next big-round).
        still_active: List[_Copy] = []
        for copy in active:
            algo_round = big_round - copy.delay + 1
            if algo_round > copy.max_limit:
                remaining -= 1
                continue
            group = copy.group
            inboxes = pool.get((copy.aid, algo_round), _NO_INBOXES)
            for node, sends in group.step(algo_round, inboxes, crashed):
                transmit(copy, node, sends, algo_round + 1, False)
            # Crash-stop is in logical time, so every copy agrees on it.
            if not group.finished(crashed):
                still_active.append(copy)
            else:
                remaining -= 1
        active = still_active

        round_messages, round_top = channel.end_round()
        if round_messages:
            last_active = big_round
        if recorder.enabled:
            recorder.sample("cluster.active_copies", len(active))
            recorder.sample("cluster.round_messages", round_messages)
            recorder.sample("cluster.max_edge_load", round_top)
    # Final emissions that never traversed (all receivers done) still
    # occupied their big-round.
    leftover_messages, _ = channel.drain_next()
    if leftover_messages:
        last_active = big_round + 1

    # Collect outputs from the chosen layers, one node at a time: a slot
    # still dormant is built only if its output is wanted.
    outputs: OutputMap = {}
    for (aid, v), layer_index in output_layers.items():
        copy = copy_at.get((layer_index, center_of[layer_index][v], aid))
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
        recorder.counter("cluster.messages_sent", messages_sent)
        recorder.counter("cluster.messages_deduplicated", messages_deduplicated)
        recorder.counter("cluster.messages_truncated", messages_truncated)
        recorder.counter("cluster.copies", len(copies))
        recorder.observe("cluster.max_load", channel.max_load)
        groups = [copy.group for copy in copies]
        recorder.counter("cluster.host_steps", sum(g.host_steps for g in groups))
        recorder.counter("cluster.idle_skips", sum(g.idle_skips for g in groups))
        recorder.counter("cluster.hosts_built", sum(g.hosts_built for g in groups))
        recorder.counter(
            "cluster.hosts_dormant", sum(g.hosts_dormant for g in groups)
        )
        recorder.counter(
            "cluster.wave_groups", sum(isinstance(g, WaveGroup) for g in groups)
        )

    return ClusterExecution(
        outputs=outputs,
        num_big_rounds=last_active + 1,
        max_big_round_load=channel.max_load,
        load_histogram=channel.histogram(),
        messages_sent=messages_sent,
        messages_deduplicated=messages_deduplicated,
        messages_truncated=messages_truncated,
        num_copies=len(copies),
        truncated=truncated,
    )


_MISSING = object()
_NO_INBOXES: Dict[int, Dict[int, Any]] = {}
