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

This baseline exists for the ablation: it quantifies how often naive
concurrency corrupts outputs, motivating the delay/cluster machinery.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..metrics.schedule import ScheduleReport
from .base import ScheduleResult, Scheduler
from .transport import ReferenceEagerChannel
from .workload import Workload, group_outputs

__all__ = ["EagerScheduler"]


class EagerScheduler(Scheduler):
    """Naive concurrent execution with FIFO edge queues (UNSAFE).

    ``max_rounds_factor`` bounds the run at
    ``factor × (congestion + dilation + k)`` physical rounds; programs
    still unhalted then are cut off (their outputs count as mismatches).
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

        # The per-directed-edge FIFO queues live in the eager channel
        # (object-per-message whatever the workload's transport: the
        # inbox build order here is output-visible — see its docstring).
        channel = ReferenceEagerChannel()
        overwrites = 0
        delivered_late = 0
        # A confused program may violate CONGEST rules (e.g. double-sends
        # after duplicate deliveries); naive execution just drops the
        # round's sends.
        confused: List[int] = []
        groups = [
            workload.host_group(aid, on_error=lambda node, exc: confused.append(node))
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
                "late_or_dropped": delivered_late + len(confused),
                "cap": cap,
            },
        )
        return self._finish(workload, group_outputs(groups), report)
