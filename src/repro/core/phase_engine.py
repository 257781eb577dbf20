"""The big-round (phase) execution engine.

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
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..congest.wave import WaveGroup
from ..errors import SimulationLimitExceeded
from ..faults import NULL_INJECTOR, FaultInjector
from ..telemetry import NULL_RECORDER, Recorder
from .transport import resolve_transport
from .workload import OutputMap, Workload, group_outputs

__all__ = ["PhaseExecution", "run_delayed_phases"]


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
    #: running to completion (only possible with ``on_limit="truncate"``).
    truncated: bool = False

    def required_phase_size(self) -> int:
        """Smallest phase size (in rounds) making this schedule feasible."""
        return max(1, self.max_phase_load)


def run_delayed_phases(
    workload: Workload,
    delays: Sequence[int],
    max_phases: Optional[int] = None,
    collect_histogram: bool = True,
    recorder: Recorder = NULL_RECORDER,
    injector: FaultInjector = NULL_INJECTOR,
    on_limit: str = "raise",
    fast_forward: bool = True,
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
        Safety cap (defaults to a generous bound from the workload).
    collect_histogram:
        Disable to save memory on very large runs (max load still kept).
    recorder:
        Telemetry sink; when enabled, per-phase message counts, active
        algorithm counts, and max loads are sampled.
    injector:
        Fault injector (default: the zero-overhead
        :data:`~repro.faults.NULL_INJECTOR`). The injector's tick is the
        1-based phase index; each algorithm is an independent fault
        stream (its ``aid``), so two algorithms' messages over the same
        edge fault independently.
    on_limit:
        ``"raise"`` (default) raises
        :class:`~repro.errors.SimulationLimitExceeded` past
        ``max_phases``; ``"truncate"`` returns the partial execution
        with ``truncated=True``.
    fast_forward:
        Skip *silent* phases — nothing running, nothing in flight, no
        algorithm starting — in one jump to the next start phase
        (delay-staggered schedules make most early phases silent).
        Results are identical either way (``benchmarks/
        bench_e18_hot_path.py`` asserts it); ``False`` forces the
        phase-by-phase walk, which also restores the per-silent-phase
        zero telemetry samples. Skipped phases are reported in the
        ``phase.skipped_phases`` counter.
    """
    network = workload.network
    k = workload.num_algorithms
    if len(delays) != k:
        raise ValueError(f"need {k} delays, got {len(delays)}")
    if any(d < 0 for d in delays):
        raise ValueError("delays must be non-negative")
    if on_limit not in ("raise", "truncate"):
        raise ValueError(f"on_limit must be 'raise' or 'truncate', got {on_limit!r}")
    faults = injector.enabled

    if max_phases is None:
        max_phases = (
            max(delays) + max(a.max_rounds(network) for a in workload.algorithms) + 4
        )

    # One host group per algorithm; its hosts are built when it starts, so
    # memory stays proportional to the algorithms started so far. Program
    # stepping (who is live, who may be skipped) lives in the group, all
    # message buffering, fault routing and load accounting in the
    # transport channel; the loop below keeps only the scheduling
    # decisions (who starts when, when the run is complete).
    groups = [workload.host_group(aid) for aid in range(k)]
    channel = resolve_transport(workload.transport).phase_channel(
        k, injector, collect_histogram
    )

    last_active_phase = -1

    start_at: Dict[int, List[int]] = {}
    for aid, delay in enumerate(delays):
        start_at.setdefault(delay, []).append(aid)

    # Active set: started-but-not-done algorithms, ascending aid (the
    # processing order of the naive full scan). Each phase costs
    # O(active) instead of O(k).
    active_aids: List[int] = []
    remaining = k
    skipped_phases = 0

    phase = -1
    truncated = False
    crashed = (lambda node: injector.crashed(node, phase + 1)) if faults else None
    while remaining > 0:
        phase += 1
        if (
            fast_forward
            and not active_aids
            and channel.next_phase_empty()
            and phase not in start_at
        ):
            # Silent phase: nothing running, nothing in flight, nothing
            # starting. Jump to the next start phase (one exists —
            # remaining > 0 with no active algorithm means some start is
            # still pending), clamped so the phase cap still fires at
            # exactly the same point as the phase-by-phase walk.
            target = min((p for p in start_at if p > phase), default=None)
            if target is not None:
                jump = min(target, max_phases + 1) - phase
                if jump > 0:
                    phase += jump
                    skipped_phases += jump
        if phase > max_phases:
            if recorder.enabled:
                recorder.counter("phase.limit_exceeded")
                recorder.event("limit-exceeded", engine="phase", cap=max_phases)
            if on_limit == "truncate":
                truncated = True
                break
            raise SimulationLimitExceeded(
                f"phase engine exceeded {max_phases} phases",
                round=max_phases,
            )

        # Messages traversing during this phase: last phase's step sends
        # (the channel rolls its load window accordingly) ...
        channel.begin_phase()
        push = channel.push

        # ... plus round-1 sends of algorithms starting this phase, which
        # traverse during this phase and are delivered at its end.
        starting = start_at.get(phase)
        if starting:
            for aid in starting:
                for node, outbox in groups[aid].start():
                    push(aid, node, outbox, phase, True)
            active_aids.extend(starting)
            active_aids.sort()

        # Every running algorithm processes the inbox of its current round
        # (delivered during this phase) and emits next round's messages,
        # which traverse during the next phase.
        next_phase = phase + 1
        still_active: List[int] = []
        for aid in active_aids:
            group = groups[aid]
            deliveries = channel.deliver(aid, phase)
            for node, outbox in group.step(
                phase - delays[aid] + 1, deliveries, crashed
            ):
                push(aid, node, outbox, next_phase, False)
            # (crash-stop counts as terminated for scheduling)
            if group.finished(crashed) and channel.idle(aid):
                remaining -= 1
            else:
                still_active.append(aid)
        active_aids = still_active

        phase_messages, phase_top = channel.end_phase()
        if phase_messages:
            last_active_phase = phase
        if recorder.enabled:
            recorder.sample("phase.messages", phase_messages)
            recorder.sample("phase.active_algorithms", len(active_aids))
            recorder.sample("phase.max_edge_load", phase_top)

    if recorder.enabled:
        recorder.counter("phase.phases", last_active_phase + 1)
        recorder.counter("phase.messages", channel.messages)
        if skipped_phases:
            recorder.counter("phase.skipped_phases", skipped_phases)
        recorder.observe("phase.max_load", channel.max_load)
        recorder.counter("phase.host_steps", sum(g.host_steps for g in groups))
        recorder.counter("phase.idle_skips", sum(g.idle_skips for g in groups))
        recorder.counter(
            "phase.wave_groups", sum(isinstance(g, WaveGroup) for g in groups)
        )

    return PhaseExecution(
        # (an algorithm truncated before its start phase reports None)
        outputs=group_outputs(groups),
        num_phases=last_active_phase + 1,
        max_phase_load=channel.max_load,
        load_histogram=channel.histogram(),
        messages=channel.messages,
        truncated=truncated,
    )
