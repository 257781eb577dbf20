"""The eager (unsafe) scheduler: what happens without the paper's machinery.

Start every algorithm immediately and let every node advance one
algorithm-round per physical round, while each directed edge transmits
one queued message per round, FIFO across algorithms. This is the
"just run them all" strategy a practitioner might try first.

When the workload's congestion exceeds one message per edge per round,
queues back up, messages arrive *after* the algorithm-round that needed
them, and — exactly as the paper's Section 2 warns — "the node might not
notice this and it can proceed with executing the algorithm, although
generating a wrong execution." The scheduler therefore reports honest
mismatch counts instead of pretending to be correct; on workloads whose
per-round edge loads never exceed 1 it is correct and optimally fast
(length = dilation).

This baseline exists for the ablation (E12, ``examples/datacenter_mix.py``
and the ``schedulers`` demo): it quantifies how often naive concurrency
corrupts outputs, motivating the delay/cluster machinery. It is not a
scheduler kind of :mod:`repro.service.specs`, so neither the service nor
the fuzzer runs it: every kind they accept returns the solo outputs.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Tuple

from ..congest.program import HostGroup
from ..metrics.schedule import ScheduleReport
from .base import ScheduleResult, Scheduler
from .transport import Send
from .workload import Workload, group_outputs

__all__ = ["EagerScheduler"]


class EagerChannel:
    """Per-directed-edge FIFO queues, shared across algorithms.

    Object-per-message whatever the workload's transport: the inbox
    construction order (queue-dict insertion order) is output-visible —
    a program fed a corrupted inbox may read "the first message" of it —
    so any reordering would change the (honestly wrong) outputs.
    """

    __slots__ = ("in_flight", "_queues")

    def __init__(self) -> None:
        self.in_flight = 0
        # Entries are (aid, sender, receiver, payload).
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


class EagerScheduler(Scheduler):
    """Naive concurrent execution with FIFO edge queues (UNSAFE).

    ``max_rounds_factor`` bounds the run at
    ``factor × (congestion + dilation + k)`` physical rounds; programs
    still unhalted then are cut off (their outputs count as mismatches).
    Every copy runs on a :class:`~repro.congest.program.HostGroup` (the
    object path, never a wave), and a program that raises on the inbox
    it was handed ends the run with its exception.
    """

    name = "eager-unsafe"

    def __init__(self, max_rounds_factor: int = 8):
        self.max_rounds_factor = max_rounds_factor

    def run(self, workload: Workload, seed: int = 0) -> ScheduleResult:
        params = workload.params()
        k = workload.num_algorithms
        cap = self.max_rounds_factor * (
            params.congestion + params.dilation + k + 4
        )

        channel = EagerChannel()
        overwrites = 0
        delivered_late = 0
        network = workload.network
        groups = [
            HostGroup(
                workload.algorithms[aid], network.nodes, network,
                workload.master_seed, workload.tape_id(aid),
                workload.message_bits,
            )
            for aid in workload.aids
        ]
        for aid, group in enumerate(groups):
            for node, outbox in group.start():
                channel.push(aid, node, outbox)

        physical_round = 0
        last_message_round = 0
        while True:
            if not any(group.live for group in groups) or (
                channel.in_flight == 0 and physical_round > params.dilation
            ):
                break
            physical_round += 1
            if physical_round > cap:
                break  # cut off: a deadlocked/queued-up execution

            # Transmit one message per directed edge.
            inboxes, new_overwrites, delivered = channel.transmit()
            overwrites += new_overwrites
            if delivered:
                last_message_round = physical_round

            mail: List[Dict[int, Dict[int, Any]]] = [{} for _ in groups]
            for (aid, node), box in inboxes.items():
                mail[aid][node] = box
            # Every algorithm advances one round, ready or not; messages
            # addressed to already-halted programs vanish.
            for aid, group in enumerate(groups):
                delivered_late += len(mail[aid]) - sum(
                    host.node in mail[aid] for host in group.live
                )
                for node, outbox in group.step(physical_round, mail[aid]):
                    channel.push(aid, node, outbox)

        report = ScheduleReport(
            scheduler=self.name,
            params=params,
            length_rounds=max(last_message_round, physical_round),
            notes={
                "in_flight_at_cutoff": channel.in_flight,
                "inbox_overwrites": overwrites,
                "late_or_dropped": delivered_late,
                "cap": cap,
            },
        )
        return self._finish(workload, group_outputs(groups), report)
