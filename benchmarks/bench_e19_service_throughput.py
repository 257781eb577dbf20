"""E19 — the batch scheduling service: batching wins, registry serves.

Claims measured:

* **batching throughput** — serving a stream of jobs through
  :class:`repro.service.SchedulerService` with ``batch_size=8`` spends
  **at least 2x fewer simulated rounds per job** than the one-job-at-a-
  time service (asserted): a batch of ``k`` compatible jobs costs one
  ``O(congestion + dilation*log n)`` schedule instead of ``k`` separate
  ones — the paper's Theorem 1.1 amortization, realized as a service;
* **correctness under batching** — every batched job's outputs are
  bit-identical to the one-at-a-time run of the same stream (asserted:
  the DAS guarantee with stable tape identities);
* **registry hits** — resubmitting the identical stream is served
  entirely from the run registry, with zero new workload executions
  (asserted).

Wall-clock speedup is asserted (> 1.0) since the vectorized transport
landed: batching amortizes schedules, and with per-message Python
overhead out of the engines the round savings finally show up on the
clock.  Per-job wall-clock throughput (jobs/s) is still reported only —
absolute numbers are machine-dependent.
"""

import gc
import time

import pytest

from repro.algorithms import BFS, HopBroadcast
from repro.congest import topology
from repro.core import RandomDelayScheduler
from repro.parallel import SoloRunCache
from repro.service import SchedulerService

from conftest import emit

#: Jobs in the submitted stream.
JOBS = 32

#: Batched-service batch size (the one-at-a-time leg uses 1).
BATCH_SIZE = 8


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


def _reports(service):
    """Every execution report of the service's one shard."""
    (shard,) = service.shards.values()
    return shard.reports


def _serve(network, algorithms, batch_size):
    """Run the stream through a fresh service; returns (service, seconds)."""
    service = SchedulerService(
        scheduler=RandomDelayScheduler(),
        batch_size=batch_size,
        solo_cache=SoloRunCache(),
    )
    gc.collect()
    start = time.perf_counter()
    jobs = service.submit_many(network, algorithms)
    service.drain()
    elapsed = time.perf_counter() - start
    assert all(job.state.value == "done" for job in jobs)
    return service, jobs, elapsed


@pytest.mark.benchmark(group="e19")
def test_e19_service_throughput(benchmark, results_dir):
    network = topology.grid_graph(8, 8)
    algorithms = _stream(network)

    solo_service, solo_jobs, solo_time = _serve(network, algorithms, 1)
    batch_service, batch_jobs, batch_time = _serve(
        network, algorithms, BATCH_SIZE
    )

    # correctness: batching changed nothing about any job's outputs
    for solo_job, batch_job in zip(solo_jobs, batch_jobs):
        assert batch_job.result.outputs == solo_job.result.outputs, (
            f"batched outputs diverged for {batch_job.job_id}"
        )
    assert batch_service.stats()["batches"] == -(-JOBS // BATCH_SIZE)

    # cost model: total scheduled rounds per job
    solo_rounds = sum(r.length_rounds for r in _reports(solo_service))
    batch_rounds = sum(r.length_rounds for r in _reports(batch_service))
    round_speedup = solo_rounds / batch_rounds
    wall_speedup = solo_time / batch_time

    # registry: the identical stream again costs zero executions
    executions = len(_reports(batch_service))
    resubmitted = batch_service.submit_many(network, algorithms)
    assert all(job.result.from_registry for job in resubmitted)
    assert len(_reports(batch_service)) == executions
    assert batch_service.registry.hits >= JOBS

    rows = [
        [
            "one-at-a-time",
            1,
            solo_service.stats()["batches"],
            solo_rounds,
            f"{JOBS / solo_rounds:.4f}",
            f"{solo_time * 1e3:.1f}",
            "1.00x",
        ],
        [
            "batched",
            BATCH_SIZE,
            batch_service.stats()["batches"],
            batch_rounds,
            f"{JOBS / batch_rounds:.4f}",
            f"{batch_time * 1e3:.1f}",
            f"{round_speedup:.2f}x (>=2x asserted)",
        ],
        [
            "resubmitted",
            BATCH_SIZE,
            0,
            0,
            "registry",
            "-",
            f"{batch_service.registry.hits} hits",
        ],
    ]
    emit(
        results_dir,
        "e19_service_throughput",
        [
            "leg",
            "batch_size",
            "executions",
            "total_rounds",
            "jobs_per_round",
            "ms",
            "round_speedup",
        ],
        rows,
        notes=(
            f"{JOBS} jobs on an 8x8 grid. Batching amortizes the stream "
            f"into ceil({JOBS}/{BATCH_SIZE}) schedules; per-round "
            "throughput must improve >=2x over one-at-a-time with "
            "bit-identical outputs. Resubmission is served from the run "
            "registry with zero executions. Wall-clock is reported only."
        ),
        extra={
            "round_speedup": round_speedup,
            "wall_speedup": wall_speedup,
            "solo_rounds": solo_rounds,
            "batch_rounds": batch_rounds,
        },
    )

    assert round_speedup >= 2.0, (
        f"batched service round-throughput {round_speedup:.2f}x < 2x "
        f"(one-at-a-time {solo_rounds} rounds, batched {batch_rounds})"
    )
    assert wall_speedup > 1.0, (
        f"batched service wall-clock speedup {wall_speedup:.2f}x <= 1x: "
        "round savings are no longer reaching the clock (transport "
        "regression?)"
    )

    benchmark.pedantic(
        _serve, args=(network, algorithms, BATCH_SIZE), rounds=1, iterations=1
    )
