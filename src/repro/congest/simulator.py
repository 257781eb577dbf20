"""The solo CONGEST simulator: run one algorithm alone on a network.

This is the reference executor: schedulers must reproduce, for every
algorithm and every node, exactly the output that :func:`solo_run` yields.
It also produces the execution trace from which the scheduling parameters
``congestion`` and ``dilation`` are measured.

Round semantics (matching the paper's Figure 1 indexing):

* ``on_start`` runs before round 1; its sends traverse edges *during*
  round 1 and appear in the trace with round index 1.
* the inbox delivered to ``on_round`` with ``ctx.round == t`` contains the
  messages that traversed edges during round ``t``; sends buffered there
  traverse during round ``t + 1``.

Two semantics worth calling out explicitly (both were historically
buggy and are pinned by regression tests):

* :func:`solo_run` forwards **all** execution controls to
  :meth:`Simulator.run` — in particular the round budget and the fault
  ``injector`` — so the convenience wrapper behaves exactly like the
  long form.
* completion waits for **in-flight fault-delayed messages**: the
  engine keeps ticking rounds after every host has halted or crashed
  until the fault injector's delayed deliveries have all come due, so
  ``completion_round`` is never earlier than the last delivery the
  execution owes (late messages to halted hosts are then discarded like
  any delivery to a halted host, but they are *accounted*, not silently
  dropped mid-flight).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..errors import SimulationLimitExceeded
from ..faults import NULL_INJECTOR, FaultInjector
from ..telemetry import NULL_RECORDER, Recorder
from .message import default_message_bits
from .network import Network
from .pattern import CommunicationPattern
from .program import Algorithm, make_group
from .trace import ExecutionTrace
from .wave import WaveGroup

__all__ = ["SoloRun", "Simulator", "solo_run"]


@dataclass
class SoloRun:
    """The result of running one algorithm alone.

    Attributes
    ----------
    outputs:
        Per-node outputs, ``node -> value``. This is the ground truth that
        scheduled executions are verified against.
    rounds:
        Number of communication rounds used, i.e. the largest round index
        during which some message was in transit. This is the algorithm's
        contribution to ``dilation``.
    completion_round:
        Round by which every node program had halted *and* every
        in-flight (fault-delayed) message had come due — never earlier
        than the last delivery the execution owes.
    trace:
        The full execution trace (footprint).
    max_message_bits:
        Size of the largest payload sent (CONGEST fidelity metric: must
        stay ``O(log n)``; the engine enforces the budget when one is
        set, this records how much of it was used).
    truncated:
        Whether the run was cut off at its round cap instead of halting
        (only possible when the caller passed ``max_rounds``).
    """

    algorithm: Algorithm
    outputs: Dict[int, Any]
    rounds: int
    completion_round: int
    trace: ExecutionTrace = field(repr=False)
    max_message_bits: int = 0
    truncated: bool = False
    _pattern: Optional[CommunicationPattern] = field(
        default=None, repr=False, compare=False
    )

    @property
    def pattern(self) -> CommunicationPattern:
        """The communication pattern (footprint) of this run (memoised —
        the trace is frozen once the run has been constructed)."""
        if self._pattern is None:
            self._pattern = CommunicationPattern.from_trace(self.trace)
        return self._pattern


class Simulator:
    """Synchronous round-by-round executor for a single algorithm.

    Parameters
    ----------
    network:
        The communication graph.
    message_bits:
        Per-message bit budget. ``None`` disables size enforcement;
        the default applies the ``Θ(log n)`` CONGEST budget.
    recorder:
        Telemetry sink; defaults to the zero-overhead
        :data:`~repro.telemetry.NULL_RECORDER`. When enabled, each run
        becomes a span and per-round message counts are sampled.
    injector:
        Fault injector; defaults to the zero-overhead
        :data:`~repro.faults.NULL_INJECTOR`, under which the execution is
        bit-identical to an injector-free build. A seeded injector may
        drop, duplicate or delay messages and crash-stop nodes.
    transport:
        Message-transport backend (see :mod:`repro.core.transport`):
        ``None``/``"auto"`` is the numpy struct-of-arrays backend,
        ``"reference"`` the object-per-message one; results are
        bit-identical either way. A :class:`~repro.core.workload.Workload`
        passes its own ``transport`` here for its solo runs; tests pass
        one to compare the backends.
    """

    def __init__(
        self,
        network: Network,
        message_bits: Optional[int] = -1,
        recorder: Recorder = NULL_RECORDER,
        injector: FaultInjector = NULL_INJECTOR,
        transport: Any = None,
    ):
        # Imported lazily: repro.core (the schedulers) imports this
        # module at package-init time, so a top-level import would cycle.
        from ..core.transport import resolve_transport

        self.network = network
        if message_bits == -1:
            message_bits = default_message_bits(network.num_nodes)
        self.message_bits = message_bits
        self.recorder = recorder
        self.injector = injector
        self.transport = resolve_transport(transport)
        if recorder.enabled:
            # Surface the network's BFS cache behaviour (net.bfs_*
            # counters) in this run's trace; purely observational.
            network.attach_recorder(recorder)

    def run(
        self,
        algorithm: Algorithm,
        seed: int = 0,
        algorithm_id: Any = None,
        max_rounds: Optional[int] = None,
    ) -> SoloRun:
        """Execute ``algorithm`` alone until all node programs halt.

        ``seed`` is the master seed; each node's random tape is derived
        from ``(seed, algorithm_id, node)`` so re-running with the same
        arguments is fully deterministic. ``algorithm_id`` defaults to the
        algorithm's name. ``max_rounds`` is a budget: past it the run
        returns the partial result with ``truncated=True`` — the graceful
        option for fault-injected executions that may never converge.
        Without it the algorithm's own bound applies, and passing that
        raises :class:`~repro.errors.SimulationLimitExceeded`.
        """
        if algorithm_id is None:
            algorithm_id = algorithm.name
        truncate = max_rounds is not None
        if max_rounds is None:
            max_rounds = algorithm.max_rounds(self.network)

        recorder = self.recorder
        with recorder.span(
            f"solo:{algorithm.name}", category="simulator", algorithm_id=algorithm_id
        ):
            return self._run_traced(algorithm, seed, algorithm_id, max_rounds, truncate)

    def _run_traced(
        self,
        algorithm: Algorithm,
        seed: int,
        algorithm_id: Any,
        max_rounds: int,
        truncate: bool,
    ) -> SoloRun:
        recorder = self.recorder
        network = self.network
        group = make_group(
            algorithm, network.nodes, network, seed, algorithm_id, self.message_bits
        )

        injector = self.injector
        faults = injector.enabled
        # All message buffering, fault routing and trace recording live
        # in the transport channel, and all program stepping (who is
        # live, who may be skipped) and payload sizing in the host group;
        # this loop keeps only the scheduling decisions (which round it
        # is, and when the run is complete).
        channel = self.transport.solo_channel(injector, algorithm_id)
        push = channel.push

        for node, outbox in group.start():
            push(node, outbox, 1)

        round_index = 0
        completion_round = 0
        previous_messages = 0
        truncated = False
        # Crash-stopped hosts never halt: they stay live but are never
        # stepped. The crash tick is the round about to run.
        crashed = (lambda node: injector.crashed(node, round_index + 1)) if faults else None
        while True:
            if group.finished(crashed):
                # Don't declare completion while fault-delayed deliveries
                # are still in flight. With every host halted or crashed no
                # new sends can occur, so the run ends exactly when the
                # last delayed message comes due (it lands on a halted host
                # and is discarded like any late delivery — but accounted,
                # not dropped mid-flight).
                completion_round = round_index
                if channel.has_delayed():
                    completion_round = max(
                        round_index, channel.delayed_horizon()
                    )
                    if faults and recorder.enabled:
                        recorder.counter(
                            "sim.late_deliveries",
                            channel.delayed_message_count(),
                        )
                        recorder.counter(
                            "sim.skipped_rounds", completion_round - round_index
                        )
                    channel.clear_delayed()
                break
            next_round = round_index + 1
            if next_round > max_rounds:
                if recorder.enabled:
                    recorder.counter("sim.limit_exceeded")
                    recorder.event(
                        "limit-exceeded",
                        algorithm=algorithm.name,
                        max_rounds=max_rounds,
                    )
                if truncate:
                    truncated = True
                    completion_round = round_index
                    break
                raise SimulationLimitExceeded(
                    f"{algorithm.name} exceeded {max_rounds} rounds "
                    f"(n={network.num_nodes})",
                    round=max_rounds,
                    algorithm=algorithm.name,
                )
            deliveries = channel.deliver(next_round)
            for node, outbox in group.step(next_round, deliveries, crashed):
                push(node, outbox, next_round + 1)
            round_index = next_round
            if recorder.enabled:
                messages = channel.message_count
                recorder.sample(
                    "sim.round_messages", messages - previous_messages
                )
                previous_messages = messages

        trace = channel.finalize()
        if recorder.enabled:
            recorder.counter("sim.runs")
            recorder.counter("sim.rounds", completion_round)
            recorder.counter("sim.messages", trace.num_messages)
            recorder.counter("sim.host_steps", group.host_steps)
            recorder.counter("sim.idle_skips", group.idle_skips)
            recorder.counter("sim.wave_groups", isinstance(group, WaveGroup))
        return SoloRun(
            algorithm=algorithm,
            outputs=group.outputs(),
            rounds=trace.last_round,
            completion_round=completion_round,
            trace=trace,
            max_message_bits=group.max_bits(),
            truncated=truncated,
        )


def solo_run(
    network: Network,
    algorithm: Algorithm,
    seed: int = 0,
    algorithm_id: Any = None,
    max_rounds: Optional[int] = None,
    message_bits: Optional[int] = -1,
    recorder: Recorder = NULL_RECORDER,
    injector: FaultInjector = NULL_INJECTOR,
    transport: Any = None,
) -> SoloRun:
    """Convenience wrapper: ``Simulator(network).run(algorithm, ...)``.

    Forwards *every* execution control — including ``injector`` and the
    round budget, which an earlier version silently dropped — so this is
    behaviourally identical to building the :class:`Simulator` yourself.
    """
    sim = Simulator(
        network,
        message_bits=message_bits,
        recorder=recorder,
        injector=injector,
        transport=transport,
    )
    return sim.run(
        algorithm,
        seed=seed,
        algorithm_id=algorithm_id,
        max_rounds=max_rounds,
    )
