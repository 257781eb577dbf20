"""The big-round loop, and the phase execution engine built on it.

This is the machinery behind every delay-based scheduler (Theorem 1.1,
the remark after Theorem 3.1, and the per-cluster engine of Section 4
builds on the same idea): time is divided into *phases* of ``phase_size``
physical rounds; each algorithm ``A_i`` is delayed by ``δ_i`` whole phases
and then advances exactly one algorithm-round per phase. Concretely,
algorithm ``i``'s round-``t`` messages traverse their edges during phase
``δ_i + t - 1`` (0-based phases, 1-based algorithm rounds).

Because each algorithm advances in lockstep with the phases, every node
processes its round-``t`` inbox exactly one phase after the senders
emitted it — the execution is always *causally correct*; what varies with
the delays is the **load**: how many messages need the same directed edge
within one phase. A phase of ``phase_size`` rounds can carry
``phase_size`` messages per edge direction, so the schedule is feasible
iff the max per-(edge, phase) load is at most ``phase_size``. The engine
records the full load profile; reports stretch phases to the observed
maximum when it exceeds the target (see
:func:`repro.metrics.schedule.phase_schedule_length`).

The same mechanism runs Lemma 4.4's per-cluster copies (Theorem 1.1 is
the case of one cluster spanning the whole network), so both engines
step their :class:`Copy` units through one loop, :func:`run_copies`;
each engine is the setup and epilogue around it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..congest.wave import StepGroup, WaveGroup
from ..errors import SimulationLimitExceeded
from ..faults import NULL_INJECTOR, FaultInjector
from ..telemetry import NULL_RECORDER, Recorder
from .transport import resolve_transport
from .workload import OutputMap, Workload, group_outputs

__all__ = ["Copy", "PhaseExecution", "run_copies", "run_delayed_phases"]


class Copy(NamedTuple):
    """One copy of an algorithm under a big-round delay.

    It waits ``delay`` whole big-rounds, then steps algorithm round
    ``t - delay + 1`` in big-round ``t``, until it finishes or passes
    ``limit``.
    """

    aid: int
    delay: int
    group: StepGroup
    #: Last algorithm round the copy steps (a cluster copy's truncation
    #: horizon: the largest limit among its members).
    limit: float = math.inf
    #: The clustering layer of a cluster copy.
    layer: int = 0


class LoopNames(NamedTuple):
    """What tells the engines driving :func:`run_copies` apart."""

    #: Telemetry prefix and the ``limit-exceeded`` event's engine.
    engine: str
    #: What the big-round cap counts (the limit error's wording).
    unit: str
    #: Per-big-round sample names: messages, active copies, top load.
    samples: Tuple[str, str, str]
    #: ``(big-round, algorithm round) -> injector tick`` for crash checks.
    crash_tick: Callable[[int, int], int]


#: Phase ticks are physical: crashes are checked at the 1-based phase.
PHASE_LOOP = LoopNames(
    "phase", "phases",
    ("phase.messages", "phase.active_algorithms", "phase.max_edge_load"),
    lambda big_round, algo_round: big_round + 1,
)


def run_copies(
    copies: Sequence[Copy],
    channel: Any,
    cap: int,
    names: LoopNames,
    recorder: Recorder = NULL_RECORDER,
    injector: FaultInjector = NULL_INJECTOR,
    truncate: bool = False,
    fast_forward: bool = True,
) -> Tuple[int, int, bool]:
    """Step ``copies`` big-round by big-round until every one finishes.

    Returns ``(last active big-round, big-rounds skipped, truncated)``;
    with ``recorder`` enabled, the per-big-round samples, the limit
    counter and event, and the copies' stepping counters go to it.
    The loop makes only the scheduling decisions — who starts when, who
    is done, when the cap or the run's end is reached — and ``channel``
    moves the messages. A channel implements ``begin_phase(t)``,
    ``push(copy, sender, sends, msg_round, into_current)`` (start sends
    traverse big-round ``t``, step sends ``t + 1``),
    ``deliver(copy, algo_round)``, ``idle(copy)`` (nothing of the copy's
    is buffered or in flight), ``next_phase_empty()`` and ``end_phase()
    -> (messages, top load)``.

    Past ``cap`` big-rounds the loop stops with ``truncated`` set if
    ``truncate`` (the caller passed the cap as a budget) and raises
    :class:`~repro.errors.SimulationLimitExceeded` otherwise.
    ``fast_forward`` jumps silent big-rounds — nothing running, nothing
    in flight, nothing starting — to the next start; results are
    identical either way (the tests compare the two walks).
    """
    starts: Dict[int, List[Copy]] = {}
    for copy in copies:
        starts.setdefault(copy.delay, []).append(copy)
    crash_tick = names.crash_tick
    crashed = (
        lambda node: injector.crashed(node, crash_tick(big_round, algo_round))
    ) if injector.enabled else None

    push, deliver = channel.push, channel.deliver
    # Started-but-not-done copies: each big-round costs O(active).
    active: List[Copy] = []
    remaining = len(copies)
    last_active = -1
    skipped = 0
    truncated = False
    big_round = -1
    while remaining > 0:
        big_round += 1
        if (
            fast_forward
            and not active
            and channel.next_phase_empty()
            and big_round not in starts
        ):
            # Silent big-round. Jump to the next start (one exists:
            # remaining > 0 with no active copy means some start is
            # still pending), clamped so the cap still fires at exactly
            # the same point as the round-by-round walk.
            jump = min(min(r for r in starts if r > big_round), cap + 1) - big_round
            big_round += jump
            skipped += jump
        if big_round > cap:
            if recorder.enabled:
                recorder.counter(f"{names.engine}.limit_exceeded")
                recorder.event("limit-exceeded", engine=names.engine, cap=cap)
            if truncate:
                truncated = True
                break
            raise SimulationLimitExceeded(
                f"{names.engine} engine exceeded {cap} {names.unit}", round=cap
            )

        channel.begin_phase(big_round)

        # Copies starting now emit their round-1 messages, which traverse
        # this big-round and are delivered at its end.
        for copy in starts.get(big_round, ()):
            for node, sends in copy.group.start():
                push(copy, node, sends, 1, True)
            active.append(copy)

        # Every running copy processes the inbox of its current round
        # (delivered during this big-round) and emits next round's
        # messages, which traverse the next one.
        still_active: List[Copy] = []
        for copy in active:
            algo_round = big_round - copy.delay + 1
            if algo_round > copy.limit:
                remaining -= 1
                continue
            group = copy.group
            for node, sends in group.step(
                algo_round, deliver(copy, algo_round), crashed
            ):
                push(copy, node, sends, algo_round + 1, False)
            # (crash-stop counts as terminated for scheduling)
            if group.finished(crashed) and channel.idle(copy):
                remaining -= 1
            else:
                still_active.append(copy)
        active = still_active

        messages, top = channel.end_phase()
        if messages:
            last_active = big_round
        if recorder.enabled:
            for name, value in zip(names.samples, (messages, len(active), top)):
                recorder.sample(name, value)
    else:
        # Final sends whose receivers had all finished never traversed,
        # but they still occupied the next big-round.
        channel.begin_phase(big_round + 1)
        if channel.end_phase()[0]:
            last_active = big_round + 1
    if recorder.enabled:
        groups = [copy.group for copy in copies]
        engine = names.engine
        recorder.counter(f"{engine}.host_steps", sum(g.host_steps for g in groups))
        recorder.counter(f"{engine}.idle_skips", sum(g.idle_skips for g in groups))
        recorder.counter(
            f"{engine}.wave_groups", sum(isinstance(g, WaveGroup) for g in groups)
        )
    return last_active, skipped, truncated


@dataclass
class PhaseExecution:
    """Raw results of a delayed-phases execution (before verification)."""

    outputs: OutputMap
    #: Number of phases carrying at least one message (i.e. the span
    #: ``[0, last_active_phase]``; equals ``max_i (δ_i + rounds_i)``).
    num_phases: int
    #: Maximum number of messages crossing one directed edge in one phase.
    max_phase_load: int
    #: Histogram: load value -> number of (directed edge, phase) pairs.
    load_histogram: Counter
    #: Total messages sent.
    messages: int
    #: Whether the execution was cut off at its phase cap instead of
    #: running to completion (only possible when ``max_phases`` is given).
    truncated: bool = False

    def required_phase_size(self) -> int:
        """Smallest phase size (in rounds) making this schedule feasible."""
        return max(1, self.max_phase_load)


def run_delayed_phases(
    workload: Workload,
    delays: Sequence[int],
    max_phases: Optional[int] = None,
    recorder: Recorder = NULL_RECORDER,
    injector: FaultInjector = NULL_INJECTOR,
) -> PhaseExecution:
    """Execute all algorithms with per-algorithm phase delays.

    Parameters
    ----------
    workload:
        The DAS instance. Node random tapes are derived from its master
        seed exactly as in the solo runs, so outputs are comparable. Its
        ``transport`` moves the messages (see
        :mod:`repro.core.transport`); outputs, load profiles and
        telemetry are bit-identical across backends.
    delays:
        ``delays[i]`` = number of whole phases algorithm ``i`` waits
        before starting.
    max_phases:
        A phase budget: past it the execution stops with ``truncated``
        set. Without it a generous bound from the workload applies, and
        passing that raises ``SimulationLimitExceeded``.
    recorder:
        Telemetry sink; when enabled, per-phase message counts, active
        algorithm counts, and max loads are sampled.
    injector:
        Fault injector (default: the zero-overhead
        :data:`~repro.faults.NULL_INJECTOR`). The injector's tick is the
        1-based phase index; each algorithm is an independent fault
        stream (its ``aid``), so two algorithms' messages over the same
        edge fault independently.

    Delay-staggered schedules make most early phases silent;
    :func:`run_copies` fast-forwards over them
    (``benchmarks/bench_e18_hot_path.py`` asserts identical results),
    reported in the ``phase.skipped_phases`` counter.
    """
    network = workload.network
    k = workload.num_algorithms
    if len(delays) != k:
        raise ValueError(f"need {k} delays, got {len(delays)}")
    if any(d < 0 for d in delays):
        raise ValueError("delays must be non-negative")

    truncate = max_phases is not None
    if max_phases is None:
        max_phases = (
            max(delays) + max(a.max_rounds(network) for a in workload.algorithms) + 4
        )

    # One copy per algorithm; its hosts are built when it starts, so
    # memory stays proportional to the algorithms started so far. Program
    # stepping lives in the group, message buffering, fault routing and
    # load accounting in the transport channel.
    copies = [
        Copy(aid, delay, workload.host_group(aid))
        for aid, delay in enumerate(delays)
    ]
    channel = resolve_transport(workload.transport).phase_channel(k, injector)
    last_active_phase, skipped_phases, truncated = run_copies(
        copies, channel, max_phases, PHASE_LOOP, recorder, injector, truncate
    )

    if recorder.enabled:
        recorder.counter("phase.phases", last_active_phase + 1)
        recorder.counter("phase.messages", channel.messages)
        if skipped_phases:
            recorder.counter("phase.skipped_phases", skipped_phases)
        recorder.observe("phase.max_load", channel.max_load)

    return PhaseExecution(
        # (an algorithm truncated before its start phase reports None)
        outputs=group_outputs([copy.group for copy in copies]),
        num_phases=last_active_phase + 1,
        max_phase_load=channel.max_load,
        load_histogram=channel.histogram,
        messages=channel.messages,
        truncated=truncated,
    )
