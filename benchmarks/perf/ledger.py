"""What the ledger declares: workloads, metrics, and the interaction map.

Names, units, directions, regression bounds and the run length live in
the root ``BENCHMARK.json`` (its schema is fixed and has no room for
more); this module reads them from there and adds the one thing that
file cannot hold: for every per-layer metric, the end-to-end metric and
the workloads it is predicted to move. On every workload not named a
per-layer metric is expected flat (or is 0 because the layer is idle).
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Dict, Tuple

__all__ = [
    "EXACT_UNITS",
    "MEASURED",
    "MOVES",
    "ROOT",
    "SCRUBBED_ENV",
    "benchmark",
    "end_to_end",
    "is_exact",
    "per_layer",
    "workloads",
]

#: The checkout root (``BENCHMARK.json`` and ``src/`` live here).
ROOT = Path(__file__).resolve().parents[2]


@functools.lru_cache(maxsize=None)
def benchmark() -> dict:
    """The parsed root ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workloads() -> Dict[str, str]:
    """``name -> why`` in declaration order."""
    return {w["name"]: w["why"] for w in benchmark()["workloads"]}


def end_to_end() -> Dict[str, dict]:
    """``name -> {"unit", "better", "bound"}``."""
    return {m["name"]: m for m in benchmark()["end_to_end"]}


def per_layer() -> Dict[str, dict]:
    """``name -> {"unit", "better"}``."""
    return {m["name"]: m for m in benchmark()["per_layer"]}


#: Environment the program reads; scrubbed so a run measures defaults.
SCRUBBED_ENV = (
    "REPRO_WORKERS",
    "REPRO_TRANSPORT",
    "REPRO_SOLO_CACHE",
    "REPRO_CACHE_DIR",
    "REPRO_TRACE",
    "REPRO_CRASH_POINT",
    "REPRO_CRASH_MODE",
    "REPRO_FUZZ_INJECT",
)

#: Units of metrics that are deterministic for a seed: they must be
#: bit-equal across the reps of a run and across runs of the same code.
EXACT_UNITS = ("count", "rounds", "bytes", "ratio")

#: The exceptions: journal and event records carry float timestamps
#: whose printed length varies, and the ``bench.*`` ratios are timings.
MEASURED = (
    "service.journal.bytes",
    "service.events.bytes",
    "bench.traced_overhead_frac",
    "bench.unattributed_frac",
)


def is_exact(name: str, unit: str) -> bool:
    """Whether a metric must repeat bit for bit for a seed."""
    return unit in EXACT_UNITS and name not in MEASURED


_SOLO = ("solo_torus",)
_PHASE = ("phase_batch",)
_PRIVATE = ("private_grid",)
_MIX = ("scenario_mix",)
_COLD = ("serve_cold",)
_SERVE = ("serve_cold", "serve_warm")
_ALL = _SOLO + _PHASE + _PRIVATE + _SERVE + _MIX

#: ``per-layer metric -> (end-to-end metric it should move, workloads)``.
MOVES: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "precomp_rounds": ("sched_rounds", _PRIVATE + _MIX),
    "bound_ratio": ("sched_rounds", _ALL),
    "failed_frac": ("ops_per_s", _ALL),
    "congest.topology.build_s": ("setup_s", _SOLO + _PHASE),
    "congest.simulator.run_s": ("wall_s", _SOLO),
    "congest.simulator.msgs": ("wall_s", _SOLO),
    "congest.simulator.us_per_msg": ("wall_s", _SOLO),
    "congest.trace.index_s": ("wall_s", _SOLO),
    "parallel.cache.pickle_s": ("wall_s", _SOLO),
    "parallel.cache.pickle_bytes": ("peak_rss_mb", _SOLO),
    "parallel.cache.hits": ("wall_s", _COLD),
    "parallel.cache.misses": ("wall_s", _COLD),
    "metrics.measure_params_s": ("wall_s", _SOLO),
    "core.workload.solo_runs_s": ("wall_s", _PHASE + _PRIVATE + _MIX),
    "core.workload.params_s": ("wall_s", _PHASE + _PRIVATE + _MIX),
    "core.phase_engine.run_s": ("wall_s", _PHASE),
    "core.phase_engine.phases": ("sched_rounds", _PHASE),
    "core.phase_engine.msgs": ("wall_s", _PHASE),
    "core.phase_engine.us_per_msg": ("wall_s", _PHASE),
    "core.phase_engine.max_phase_load": ("sched_rounds", _PHASE),
    "core.base.verify_s": ("wall_s", _PHASE + _PRIVATE),
    "clustering.build_s": ("wall_s", _PRIVATE),
    "clustering.layers": ("wall_s", _PRIVATE),
    "clustering.precomputation_rounds": ("sched_rounds", _PRIVATE),
    "core.cluster_engine.select_layers_s": ("wall_s", _PRIVATE),
    "core.cluster_delays.sampler_s": ("wall_s", _PRIVATE),
    "core.cluster_engine.run_s": ("wall_s", _PRIVATE),
    "core.cluster_engine.copies": ("peak_rss_mb", _PRIVATE),
    "core.cluster_engine.msgs_sent": ("wall_s", _PRIVATE),
    "core.cluster_engine.msgs_deduplicated": ("sched_rounds", _PRIVATE),
    "core.cluster_engine.dedup_ratio": ("sched_rounds", _PRIVATE),
    "core.cluster_engine.msgs_truncated": ("wall_s", _PRIVATE),
    "core.private.run_prebuilt_s": ("wall_s", _PRIVATE),
    "core.run_p50_ms": ("wall_s", _MIX),
    "core.run_p99_ms": ("wall_s", _MIX),
    "fuzz.scenario.build_s": ("wall_s", _MIX),
    "cli.submit_s": ("wall_s", _SERVE),
    "cli.serve_s": ("wall_s", _SERVE),
    "cli.status_s": ("wall_s", _SERVE),
    "cli.overhead_s": ("wall_s", _SERVE),
    "service.specs.parse_s": ("wall_s", _SERVE),
    "service.submit_s": ("wall_s", _SERVE),
    "service.drain_s": ("wall_s", _COLD),
    "service.checkpoint_s": ("wall_s", _COLD),
    "service.batches": ("sched_rounds", _COLD),
    "service.executions": ("wall_s", _COLD),
    "service.shards": ("wall_s", _COLD),
    "service.registry.hits": ("wall_s", ("serve_warm",)),
    "service.registry.stores": ("wall_s", _COLD),
    "service.registry.hit_ratio": ("wall_s", _SERVE),
    "service.registry.disk_bytes": ("wall_s", _SERVE),
    "service.journal.records": ("wall_s", _COLD),
    "service.journal.bytes": ("wall_s", _COLD),
    "service.journal.replay_s": ("wall_s", _COLD),
    "service.events.count": ("wall_s", _COLD),
    "service.events.bytes": ("wall_s", _COLD),
    "service.events.job_e2e_p50_s": ("wall_s", _COLD),
    "service.events.job_e2e_p90_s": ("wall_s", _COLD),
    "service.events.jobs_per_sec": ("ops_per_s", _COLD),
    # These two qualify the other numbers; a change in them means the
    # traced pass stopped mirroring the untraced one.
    "bench.traced_overhead_frac": ("wall_s", _ALL),
    "bench.unattributed_frac": ("wall_s", _ALL),
}
for _scheduler in (
    "sequential", "round_robin", "random_delay", "sparse_phase", "doubling",
    "private",
):
    MOVES[f"core.{_scheduler}.run_s"] = ("wall_s", _MIX)
    MOVES[f"core.{_scheduler}.rounds"] = ("sched_rounds", _MIX)
