"""E23 — sharded serving: independent networks drain concurrently.

Claims measured:

* **structural drain speedup** — draining a workload spanning
  :data:`SHARD_COUNT` independent networks through
  :meth:`repro.service.SchedulerService.drain` costs **at least 3x
  less critical-path time** than a serial drain of the same
  submissions, one :meth:`~repro.service.SchedulerService.run_once`
  batch at a time (asserted).  Jobs on different networks share
  nothing — not the graph, not the congestion, not the tapes — so the
  drain stages batches from every shard into one pool wave;
  on enough cores a wave costs its *slowest batch*, while the serial
  drain pays the *sum* of all batches.  The gate is structural (sums
  vs per-wave maxima of measured per-batch execution times) so it
  holds on any machine, including the 1-core CI runner; raw wall-clock
  is reported but not gated, since on 1 core both legs execute the
  same batches back to back;
* **bit-identity** — the sharded drain is a transparent restructuring:
  terminal job states, outputs, and per-fingerprint registry contents
  are byte-identical to the serial run, with zero duplicate executions
  (asserted: registry stores are counted on both legs);
* **sustained 10k-job stream** — after the first drain warms the
  registry, resubmitting the stream past 10,000 total jobs is absorbed
  at submit time entirely from the content-addressed registry: zero
  new executions, zero new stores (asserted); jobs/s is reported.

Crash recovery of the sharded layout (per-shard journals under
``<dir>/shards/<key>/``) is exercised point-by-point in
``tests/service/test_recovery.py::TestCrashMatrix`` — the full
``CRASH_POINTS`` matrix on one and on two networks recovers
byte-identically — so this bench only measures throughput.
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

#: Independent networks — one shard each, disjoint fingerprints.
SHARD_COUNT = 8

#: Jobs submitted per network (all distinct fingerprints).
JOBS_PER_NET = 16

#: Batch size on both legs (2 batches per network).
BATCH_SIZE = 8

#: The sustained-stream leg resubmits the stream until total submitted
#: jobs pass this floor (ROADMAP item 2: "a stream of 10k+ jobs").
STREAM_FLOOR = 10_000

#: Critical-path speedup the sharded drain must clear (ISSUE 9 gate).
SPEEDUP_GATE = 3.0


def _networks():
    """8 independent topologies of comparable size (8..16 nodes)."""
    return [
        topology.cycle_graph(8),
        topology.cycle_graph(10),
        topology.cycle_graph(12),
        topology.cycle_graph(16),
        topology.grid_graph(3, 3),
        topology.grid_graph(3, 4),
        topology.grid_graph(4, 4),
        topology.path_graph(12),
    ]


def _stream(network):
    """A per-network job stream with pairwise-distinct fingerprints.

    Every BFS gets a unique hop count and every broadcast a unique
    token, so no two jobs in the stream collide in the registry —
    each one is a real execution on the first drain.
    """
    nodes = list(network.nodes)
    n = len(nodes)
    algorithms = []
    bfs_index = 0
    for i in range(JOBS_PER_NET):
        if i % 3 == 0:
            algorithms.append(BFS(nodes[(5 * i) % n], hops=2 + bfs_index))
            bfs_index += 1
        else:
            algorithms.append(HopBroadcast(nodes[(7 * i) % n], 4000 + i, 3))
    return algorithms


def _submit_all(service, networks):
    jobs = []
    for network in networks:
        for algorithm in _stream(network):
            jobs.append(service.submit(network, algorithm))
    return jobs


def _snapshot(service):
    """fingerprint -> (state, outputs): the bit-identity witness."""
    return {
        job.fingerprint: (
            job.state.value,
            dict(job.result.outputs) if job.result is not None else None,
        )
        for job in service.jobs()
    }


def _serial_drain(networks):
    """Serial drain, one ``run_once`` batch at a time; per-batch costs
    timed one by one."""
    service = SchedulerService(
        scheduler=RandomDelayScheduler(),
        batch_size=BATCH_SIZE,
        solo_cache=SoloRunCache(),
    )
    jobs = _submit_all(service, networks)
    gc.collect()
    wall_start = time.perf_counter()
    batch_costs = []
    while True:
        start = time.perf_counter()
        batch = service.run_once()
        if not batch:
            break
        batch_costs.append(time.perf_counter() - start)
    wall = time.perf_counter() - wall_start
    assert all(job.state.value == "done" for job in jobs)
    return service, batch_costs, wall


def _sharded_drain(networks):
    """Wave drain; per-batch costs come from the waves."""
    service = SchedulerService(
        scheduler=RandomDelayScheduler(),
        batch_size=BATCH_SIZE,
        solo_cache=SoloRunCache(),
    )
    jobs = _submit_all(service, networks)
    gc.collect()
    start = time.perf_counter()
    service.drain()
    wall = time.perf_counter() - start
    assert all(job.state.value == "done" for job in jobs)
    return service, service.drain_waves, wall


@pytest.mark.benchmark(group="e23")
def test_e23_sharded_serve(benchmark, results_dir):
    networks = _networks()
    total_jobs = SHARD_COUNT * JOBS_PER_NET

    serial_service, batch_costs, serial_wall = _serial_drain(networks)
    sharded_service, waves, sharded_wall = _sharded_drain(networks)

    # bit-identity: same terminal states and outputs, job by job
    serial_snap = _snapshot(serial_service)
    sharded_snap = _snapshot(sharded_service)
    assert sharded_snap == serial_snap, "sharded drain diverged from serial"
    # …and the registries hold byte-identical artifacts per fingerprint
    for fingerprint in serial_snap:
        serial_art = serial_service.registry.get(fingerprint)
        sharded_art = sharded_service.registry.get(fingerprint)
        assert sharded_art.outputs == serial_art.outputs
    # zero duplicate executions on either leg
    assert serial_service.registry.stores == total_jobs
    assert sharded_service.registry.stores == total_jobs

    # structural throughput: serial pays the sum of every batch, the
    # sharded drain (on enough cores) pays each wave's slowest batch
    serial_cost = sum(batch_costs)
    critical_path = sum(max(wave) for wave in waves)
    structural_speedup = serial_cost / critical_path
    wall_speedup = serial_wall / sharded_wall
    wave_batches = sum(len(wave) for wave in waves)
    assert wave_batches == len(batch_costs)

    # sustained stream: resubmit past 10k jobs, all absorbed by the
    # registry at submit time — zero new executions
    executions = sum(
        len(shard.reports) for shard in sharded_service.shards.values()
    )
    stores = sharded_service.registry.stores
    repeats = -(-STREAM_FLOOR // total_jobs)
    gc.collect()
    stream_start = time.perf_counter()
    streamed = 0
    for _ in range(repeats):
        for job in _submit_all(sharded_service, networks):
            assert job.result is not None and job.result.from_registry
            streamed += 1
    stream_wall = time.perf_counter() - stream_start
    jobs_per_sec = streamed / stream_wall
    assert sharded_service.registry.stores == stores
    assert (
        sum(len(s.reports) for s in sharded_service.shards.values())
        == executions
    )

    rows = [
        [
            "serial run_once",
            1,
            len(batch_costs),
            f"{serial_cost * 1e3:.1f}",
            f"{serial_cost * 1e3:.1f}",
            f"{serial_wall * 1e3:.1f}",
            "1.00x",
        ],
        [
            "sharded concurrent",
            len(sharded_service.shards),
            wave_batches,
            f"{sum(sum(w) for w in waves) * 1e3:.1f}",
            f"{critical_path * 1e3:.1f}",
            f"{sharded_wall * 1e3:.1f}",
            f"{structural_speedup:.2f}x (>={SPEEDUP_GATE:.0f}x asserted)",
        ],
        [
            "10k stream (registry)",
            len(sharded_service.shards),
            0,
            "-",
            "-",
            f"{stream_wall * 1e3:.1f}",
            f"{streamed} jobs @ {jobs_per_sec:.0f}/s",
        ],
    ]
    emit(
        results_dir,
        "e23_sharded_serve",
        [
            "leg",
            "shards",
            "batches",
            "batch_cost_sum_ms",
            "critical_path_ms",
            "wall_ms",
            "speedup",
        ],
        rows,
        notes=(
            f"{total_jobs} jobs across {SHARD_COUNT} independent networks, "
            f"batch_size={BATCH_SIZE}. The serial leg pays the sum of all "
            "batch costs; the sharded drain's critical path is the sum of "
            "per-wave maxima (batches of independent networks in flight "
            f"simultaneously) and must be >={SPEEDUP_GATE:.0f}x cheaper, "
            "with bit-identical terminal states, outputs, and registry "
            "contents and zero duplicate executions. The stream leg then "
            f"resubmits past {STREAM_FLOOR} total jobs, all served from "
            "the registry at submit time. Wall-clock is reported only — "
            "on 1 core both drains execute the same batches back to back."
        ),
        extra={
            "structural_speedup": structural_speedup,
            "wall_speedup": wall_speedup,
            "serial_cost_s": serial_cost,
            "critical_path_s": critical_path,
            "waves": len(waves),
            "stream_jobs_per_sec": jobs_per_sec,
            "streamed_jobs": streamed,
        },
    )

    assert structural_speedup >= SPEEDUP_GATE, (
        f"sharded drain critical-path speedup {structural_speedup:.2f}x < "
        f"{SPEEDUP_GATE:.0f}x (serial {serial_cost * 1e3:.1f}ms, critical "
        f"path {critical_path * 1e3:.1f}ms over {len(waves)} wave(s))"
    )

    serial_service.shutdown(drain=False)
    sharded_service.shutdown(drain=False)

    benchmark.pedantic(
        lambda: _sharded_drain(networks)[0].shutdown(drain=False),
        rounds=1,
        iterations=1,
    )
