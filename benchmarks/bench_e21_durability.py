"""E21 — durability overhead: crash safety must stay cheap.

PR 7 gave the service a write-ahead job journal: every lifecycle
transition is CRC-framed and appended to ``journal.jsonl`` *before* it
is applied, so a killed serve can be replayed with
:meth:`SchedulerService.recover`. This bench gates the cost of that
discipline on the e19 serving workload (32 jobs batched 8-at-a-time on
an 8x8 grid):

* **overhead** — journaling every transition (the default ``batch``
  fsync policy, the one ``python -m repro serve`` uses) must cost
  **under 5%** of the bare run's wall-clock (asserted). Like e15/e20
  the bound is structural rather than a diff of two serves:
  back-to-back ~80 ms serves drift by +/-5-10% from scheduler/heap
  noise, which would drown the signal. We count the journal records one
  journaled serve actually appends, time that exact append path in a
  tight loop adjacent to each rep's serves (so CPU throttling hits
  numerator and denominator alike), inflate by a 1.5x safety factor,
  and take the min ratio over reps — noise can only raise a rep's
  ratio, never lower it. The wall-clock diff of interleaved serves is
  still reported, unasserted;
* **purity** — every job's outputs are bit-identical between the two
  legs: durability never touches scheduling (asserted);
* **liveness** — the journaled leg actually wrote the log it paid for:
  a replayable journal whose record count matches the service's seq,
  zero framing problems, and every job journaled terminal (asserted —
  a gate over an empty journal would gate nothing).
"""

import gc
import time

import pytest

from repro.algorithms import BFS, HopBroadcast
from repro.congest import topology
from repro.core import RandomDelayScheduler
from repro.parallel import SoloRunCache
from repro.service import (
    JobJournal,
    SchedulerService,
    read_journal,
)

from conftest import emit

#: Jobs in the served stream (the e19 workload).
JOBS = 32

#: Jobs per batched execution.
BATCH_SIZE = 8

#: Interleaved repetitions per leg.
REPS = 3

#: Wall-clock overhead budget for write-ahead journaling.
BUDGET = 0.05

#: The structural gate inflates the measured per-append cost before
#: comparing against the budget, so micro-timing jitter can only make
#: the gate stricter.
SAFETY = 1.5


def _stream(network):
    nodes = list(network.nodes)
    algorithms = []
    for i in range(JOBS):
        if i % 2:
            algorithms.append(BFS(nodes[(5 * i) % len(nodes)], hops=4))
        else:
            algorithms.append(
                HopBroadcast(nodes[(11 * i) % len(nodes)], 700 + i, 4)
            )
    return algorithms


def _journal(service):
    """The journal of the service's one shard."""
    (shard,) = service.shards.values()
    return shard.journal


def _serve(network, algorithms, directory):
    """One full serve of the stream; returns (service, jobs, seconds).

    ``directory=None`` journals nothing; a directory journals every
    transition under it.

    GC is paused inside the timed region: the journaled leg allocates
    more (records, CRC strings), so with a large heap left by earlier
    benches collection passes would land disproportionately in its
    timings.
    """
    service = SchedulerService(
        scheduler=RandomDelayScheduler(),
        batch_size=BATCH_SIZE,
        solo_cache=SoloRunCache(),
        directory=directory,
    )
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        jobs = service.submit_many(network, algorithms)
        service.drain()
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    assert all(job.state.value == "done" for job in jobs)
    return service, jobs, elapsed


def _per_append_seconds(path):
    """Measure the journal append path (batch fsync) in a tight loop."""
    journal = JobJournal(path, fsync="batch")
    reps = 5_000
    fingerprint = "0123456789abcdef" * 4
    start = time.perf_counter()
    for i in range(reps):
        journal.append(
            "done",
            job="j%04d" % (i % JOBS),
            fingerprint=fingerprint,
            batch="b0001",
        )
    per_append = (time.perf_counter() - start) / reps
    journal.close()
    return per_append


@pytest.mark.benchmark(group="e21")
def test_e21_durability_overhead_under_5_percent(
    benchmark, results_dir, tmp_path
):
    network = topology.grid_graph(8, 8)
    algorithms = _stream(network)

    # Warm-up leg per mode, then interleave the timed reps, alternating
    # which leg goes first so positional drift cancels.
    _serve(network, algorithms, None)
    _serve(network, algorithms, tmp_path / "w")

    bare_times, wal_times, rep_overheads = [], [], []
    bare_jobs = wal_jobs = None
    wal_service = None
    per_append = None
    for rep in range(REPS):
        def _bare():
            _, jobs, seconds = _serve(network, algorithms, None)
            return jobs, seconds

        def _wal():
            return _serve(network, algorithms, tmp_path / f"journal_{rep}")

        if rep % 2:
            wal_service, wal_jobs, wal_s = _wal()
            bare_jobs, bare_s = _bare()
        else:
            bare_jobs, bare_s = _bare()
            wal_service, wal_jobs, wal_s = _wal()
        bare_times.append(bare_s)
        wal_times.append(wal_s)

        # Per-append cost measured adjacent to this rep's serves: if the
        # machine is throttled right now, numerator and denominator see
        # the same slowdown and the ratio cancels it.
        per_append = _per_append_seconds(tmp_path / f"micro_{rep}.jsonl")
        wal_cost_s = _journal(wal_service).seq * per_append
        rep_overheads.append((SAFETY * wal_cost_s / bare_s, wal_cost_s))

    # purity: the journaled run served bit-identical outputs
    for bare_job, wal_job in zip(bare_jobs, wal_jobs):
        assert wal_job.result.outputs == bare_job.result.outputs, (
            f"journaling changed outputs of {wal_job.job_id}"
        )

    # liveness: the journal is complete and replayable
    journal = _journal(wal_service)
    records, problems = read_journal(journal.path)
    assert problems == [], problems
    assert len(records) == journal.seq > 0
    state = journal.state
    assert len(state.jobs) == JOBS
    assert all(
        entry["state"] == "done" for entry in state.jobs.values()
    ), state.by_state()
    assert state.pending() == []

    bare_best = min(bare_times)
    wal_best = min(wal_times)
    wall_delta = wal_best / bare_best - 1.0

    # structural gate: (records the serve appended) x (measured cost of
    # one append) x SAFETY must fit the budget relative to the bare run.
    # The min over reps keeps the least-noisy same-window measurement.
    appends = journal.seq
    overhead, wal_cost_s = min(rep_overheads)

    rows = [
        [
            "bare (directory=None)",
            f"{bare_best * 1e3:.1f}",
            0,
            "-",
        ],
        [
            "journaled (WAL, fsync=batch)",
            f"{wal_best * 1e3:.1f}",
            appends,
            f"{wall_delta * 100:+.2f}% (reported)",
        ],
        [
            f"structural ({appends} appends, x{SAFETY:g})",
            f"{wal_cost_s * 1e3:.2f}",
            appends,
            f"{overhead * 100:+.2f}% (<{BUDGET:.0%} asserted)",
        ],
    ]
    emit(
        results_dir,
        "e21_durability",
        ["leg", "best ms", "journal records", "overhead"],
        rows,
        notes=(
            f"{JOBS} jobs batched {BATCH_SIZE}-at-a-time on an 8x8 grid "
            f"(the e19 workload), min of {REPS} interleaved reps per leg. "
            "The journaled leg write-ahead-logs every lifecycle "
            "transition (CRC-framed JSONL, batch fsync — the serve CLI "
            "default) with bit-identical outputs. The asserted bound is "
            "structural (counted appends x measured per-append cost "
            f"x {SAFETY:g}): diffing two ~80 ms serves only measures "
            "scheduler noise."
        ),
        extra={
            "durability_overhead": overhead,
            "wall_delta": wall_delta,
            "bare_best_s": bare_best,
            "wal_best_s": wal_best,
            "wal_cost_s": wal_cost_s,
            "journal_records": appends,
            "per_append_us": per_append * 1e6,
        },
    )

    assert overhead < BUDGET, (
        f"write-ahead journaling costs {overhead:.2%} of the bare run "
        f"({appends} appends = {wal_cost_s * 1e3:.2f} ms structural "
        f"x{SAFETY:g}, bare {bare_best * 1e3:.1f} ms)"
    )

    benchmark.pedantic(
        _serve,
        args=(network, algorithms, None),
        rounds=1,
        iterations=1,
    )
