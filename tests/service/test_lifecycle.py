"""The job lifecycle as one state machine, live and replayed.

Two checks on every journaled transition (``admitted``, ``parked``,
``released``, ``rejected``, ``done``, ``failed``, ``quarantined``):

* a scripted session that emits every record kind, pinned verbatim
  against a golden transcript (journal bytes, the ``(kind, job, batch,
  queue depth, attrs)`` event sequence and the ``service.*`` counters);
* a hypothesis search over bounded submit / drain / release / crash /
  recover sequences: at every quiescent point each live job is in the
  state that replaying the journal *file* gives, and recovering twice
  is a fixed point.
"""

import itertools
import json
import tempfile
from contextlib import nullcontext
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RandomDelayScheduler, Scheduler
from repro.errors import ScheduleError
from repro.faults import InjectedCrash, armed, disarm
from repro.parallel import SoloRunCache
from repro.service import (
    CRASH_POINTS,
    AdmissionPolicy,
    EventLog,
    JobJournal,
    JournalState,
    SchedulerService,
    parse_algorithm,
    parse_network,
    read_journal,
    shard_key,
)
from repro.service import service as service_module
from repro.telemetry import InMemoryRecorder

NET = "grid:3x3"
SHARD = shard_key(parse_network(NET))
GOLDEN = Path(__file__).parent / "golden" / "lifecycle_transcript.json"


class _Poisoned(Scheduler):
    """Random-delay, except that any execution holding a flooding job
    dies: its batch fails, and so does the flooding job's solo retry."""

    name = "poisoned"

    def __init__(self):
        self.inner = RandomDelayScheduler()

    def run(self, workload, seed=0):
        if any(type(a).__name__ == "Flooding" for a in workload.algorithms):
            raise ScheduleError("poisoned batch", round=1)
        return self.inner.run(workload, seed=seed)


def _submit(service, algo, **spec):
    network = parse_network(NET)
    return service.submit(
        network,
        parse_algorithm(algo, network),
        spec={"net": NET, "algo": algo, **spec},
    )


def _service_counters(recorder):
    return {
        name: value
        for name, value in sorted(recorder.snapshot()["counters"].items())
        if name.startswith("service.")
    }


def _event_rows(events):
    return [
        [e.kind, e.job_id, e.batch, e.queue_depth, list(map(list, e.attrs.items()))]
        for e in events.events
    ]


def _transcript(directory, monkeypatch):
    """Run the scripted session; returns its journal lines, events and
    counters. One clock stamps journal records and events alike, so the
    ``ts`` fields also pin how appends and events interleave."""
    clock = itertools.count()

    def tick():
        return float(next(clock))

    def clocked(cls):
        return lambda *args, **kwargs: cls(*args, clock=tick, **kwargs)

    monkeypatch.setattr(service_module, "JobJournal", clocked(JobJournal))
    monkeypatch.setattr(service_module, "EventLog", clocked(EventLog))
    cache = SoloRunCache()
    kwargs = dict(
        scheduler=_Poisoned(),
        batch_size=2,
        policy=AdmissionPolicy(
            round_budget=3, max_shard_depth=2, park_over_depth=True
        ),
        solo_cache=cache,
    )
    live_recorder = InMemoryRecorder()
    live = SchedulerService(directory=directory, recorder=live_recorder, **kwargs)
    _submit(live, "bfs:source=0,hops=2", id="s0001")  # admitted
    _submit(live, "bfs:source=8,hops=9", id="s0002")  # rejected: budget
    _submit(  # admitted, then poisons its batch
        live, "flooding:source=4,token=7", id="s0003",
        scenario="poison", fuzz_seed=7,
    )
    _submit(live, "broadcast:source=6,token=3,hops=2")  # parked: depth
    live.drain()  # batch fails; j0001 retried solo → done, j0003 → failed
    live.release_parked()
    live.drain()  # j0004 done
    _submit(live, "bfs:source=0,hops=2")  # registry hit
    _submit(live, "bfs:source=2,hops=2")
    _submit(live, "bfs:source=4,hops=1")
    try:
        with armed("complete.pre_journal", hit=1):
            live.drain()
    except InjectedCrash:
        pass
    else:  # pragma: no cover - the script must crash here
        raise AssertionError("complete.pre_journal never fired")
    live.shards[SHARD].journal.close()

    recovered_recorder = InMemoryRecorder()
    recovered = SchedulerService.recover(
        directory=directory,
        recorder=recovered_recorder,
        poison_threshold=1,
        **kwargs,
    )
    recovered.shutdown(drain=False)
    journal = directory / "shards" / SHARD / "journal.jsonl"
    return {
        "journal": journal.read_text().splitlines(),
        "events": (
            _event_rows(live.shards[SHARD].events)
            + _event_rows(recovered.shards[SHARD].events)
        ),
        "counters": [
            _service_counters(live_recorder),
            _service_counters(recovered_recorder),
        ],
    }


def test_golden_transcript(tmp_path, monkeypatch):
    """Journal bytes, events and counters of every transition kind are
    exactly those the hand-written transitions produced."""
    disarm()
    got = _transcript(tmp_path, monkeypatch)
    want = json.loads(GOLDEN.read_text())
    assert got["journal"] == want["journal"]
    assert got["events"] == want["events"]
    assert got["counters"] == want["counters"]
    kinds = {json.loads(line)["kind"] for line in got["journal"]}
    assert kinds == {
        "submit", "admitted", "parked", "released", "rejected", "batch",
        "done", "failed", "quarantined",
    }


# ----------------------------------------------------------------------
# live ≡ replay
# ----------------------------------------------------------------------

#: Dilations on grid:3x3 are 1, 1, 4, 4 and 2; the budget of 3 parks
#: the two long jobs, and the flooding job fails every execution.
_POOL = (
    "bfs:source=0,hops=1",
    "bfs:source=4,hops=1",
    "bfs:source=0,hops=6",
    "broadcast:source=8,token=2,hops=6",
    "flooding:source=4,token=7",
)

#: (action, pool index for a submit, crash point armed for the action).
#: Submits are drawn twice as often, so queues build up between drains.
_OP = st.tuples(
    st.sampled_from(("submit", "submit", "drain", "release", "recover")),
    st.integers(0, len(_POOL) - 1),
    st.one_of(st.none(), st.sampled_from(CRASH_POINTS)),
)


def _open(directory, cache):
    return SchedulerService.recover(
        directory=directory,
        scheduler=_Poisoned(),
        batch_size=2,
        policy=AdmissionPolicy(round_budget=3, park_over_budget=True),
        solo_cache=cache,
        poison_threshold=2,
    )


def _states(service):
    return {job.job_id: job.state.value for job in service.jobs()}


def _assert_live_is_replay(service, directory):
    records, problems = read_journal(
        directory / "shards" / SHARD / "journal.jsonl"
    )
    assert problems == []
    replay = JournalState()
    for record in records:
        replay.apply(record)
    live = {job.job_id: job for job in service.jobs()}
    expected = {}
    for job_id, entry in replay.jobs.items():
        state = entry["state"]
        job = live.get(job_id)
        if state == "batched" and job is not None and job.meta.get("recovered"):
            # Recovery requeues a job whose batch died without a record
            # of its own; its next batch record supersedes the old one.
            state = "queued"
        expected[job_id] = state
    assert _states(service) == expected


def _recover_twice(directory, cache):
    first = _open(directory, cache)
    once = _states(first)
    first.shutdown(drain=False)
    second = _open(directory, cache)
    assert _states(second) == once
    return second


@settings(max_examples=80, deadline=None)
@given(ops=st.lists(_OP, max_size=12))
def test_live_state_is_replayed_journal_state(ops):
    disarm()
    cache = SoloRunCache()
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        service = _open(directory, cache)
        for action, index, point in ops:
            if service is None:
                action = "recover"  # the process died: restart it
            try:
                with armed(point, hit=1) if point else nullcontext():
                    if action == "submit":
                        _submit(service, _POOL[index])
                    elif action == "drain":
                        service.drain()
                    elif action == "release":
                        service.release_parked()
                    else:
                        if service is not None:
                            service.shutdown(drain=False)
                        service = _recover_twice(directory, cache)
            except InjectedCrash:
                if service is not None:
                    for shard in service.shards.values():
                        shard.journal.close()
                service = None
                continue
            _assert_live_is_replay(service, directory)
        if service is None:
            service = _recover_twice(directory, cache)
        _assert_live_is_replay(service, directory)
        service.shutdown(drain=False)
