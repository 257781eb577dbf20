"""repro — reproduction of *Near-Optimal Scheduling of Distributed
Algorithms* (Mohsen Ghaffari, PODC 2015).

The package provides:

* :mod:`repro.congest` — a synchronous CONGEST-model simulator (networks,
  node programs, traces, communication patterns, topologies);
* :mod:`repro.algorithms` — a library of distributed algorithms to be
  scheduled (broadcast, BFS, aggregation, MST, packet routing, ...);
* :mod:`repro.core` — the paper's contribution: schedulers that run many
  algorithms together in ``O(congestion + dilation·log n)`` rounds, with
  shared (Theorem 1.1) or only private (Theorem 1.3/4.1) randomness, plus
  baselines;
* :mod:`repro.clustering` — the ball-carving graph partitioning and
  cluster-local randomness sharing of Lemmas 4.2–4.3;
* :mod:`repro.randomness` — ``Θ(log n)``-wise independent pseudo-randomness
  and the paper's delay distributions;
* :mod:`repro.lowerbound` — the hard instances of Theorem 3.1;
* :mod:`repro.derandomize` — Appendix A: removing shared randomness from
  Bellagio (pseudo-deterministic) distributed algorithms;
* :mod:`repro.telemetry` — round-level observability: recorders, a
  metrics registry, and Chrome-trace/JSONL exporters (see
  ``docs/OBSERVABILITY.md``);
* :mod:`repro.faults` — seeded fault injection (message drop /
  duplication / delay, edge outages, node crash-stop) and the ACK-based
  retransmission wrapper for resilient execution (see
  ``docs/ROBUSTNESS.md`` and ``python -m repro chaos``);
* :mod:`repro.parallel` — process-pool execution for sweeps
  (``REPRO_WORKERS``) and the content-addressed solo-run cache
  (``REPRO_SOLO_CACHE``; see
  ``docs/PERFORMANCE.md`` and ``python -m repro sweep``);
* :mod:`repro.service` — a batch scheduling service: a job queue with
  admission control, batching of compatible jobs into single scheduled
  executions, and a persistent content-addressed run registry (see
  ``docs/SERVICE.md`` and ``python -m repro serve|submit|status``).

Quickstart::

    from repro.congest import topology
    from repro.algorithms import BFS, HopBroadcast
    from repro.core import Workload, RandomDelayScheduler

    net = topology.grid_graph(8, 8)
    work = Workload(net, [BFS(source=0), HopBroadcast(5, "tok", hops=6)])
    result = RandomDelayScheduler().run(work, seed=1)
    print(result.report.summary())
"""

from . import _lazy

__all__ = [
    "FaultPlan",
    "Network",
    "ParallelRunner",
    "RunRegistry",
    "SchedulerService",
    "SoloRunCache",
    "Workload",
    "congest",
    "faults",
    "metrics",
    "parallel",
    "service",
    "solo_run",
    "telemetry",
]

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        "__version__": "_version",
        "FaultPlan": "faults",
        "Network": "congest",
        "ParallelRunner": "parallel",
        "RunRegistry": "service",
        "SchedulerService": "service",
        "SoloRunCache": "parallel",
        "Workload": "core",
        "solo_run": "congest",
        "algorithms": "algorithms",
        "clustering": "clustering",
        "congest": "congest",
        "core": "core",
        "derandomize": "derandomize",
        "errors": "errors",
        "experiments": "experiments",
        "faults": "faults",
        "fuzz": "fuzz",
        "lowerbound": "lowerbound",
        "metrics": "metrics",
        "parallel": "parallel",
        "randomness": "randomness",
        "service": "service",
        "telemetry": "telemetry",
    },
)
