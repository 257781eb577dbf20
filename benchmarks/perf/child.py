"""One workload measured in one process (spawned by ``run.py``).

Order of events: imports and input generation (set-up), one discarded
warm-up rep, then timed reps until ``--seconds`` have passed (at least
``MIN_REPS``), each on fresh program state — new ``Network``, new
``SoloRunCache``, new service directory — so the program's caches are
cold every rep while interpreter warm-up is not billed. The garbage
collector stays enabled and is only asked to collect before each rep: an
object-per-message design pays for collection and a columnar one does
not, and disabling it would hide exactly that.

With ``--trace 0`` every timed rep is an untraced pass; one traced rep
runs afterwards, outside the measured time, because the round metrics
come from the traced pass and because it must reproduce the untraced
digest. With ``--trace 1`` untraced and traced reps alternate, and the
difference of their medians is the tracing overhead.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

import ledger
from spans import SpanRecorder

#: Timed untraced reps (``--trace 0``) or untraced/traced pairs (``1``).
MIN_REPS = {0: 3, 1: 2}


def _check_environment() -> None:
    """Fail fast when the run would not measure the program's defaults."""
    leaked = [name for name in ledger.SCRUBBED_ENV if name in os.environ]
    if leaked or os.environ.get("PYTHONHASHSEED") != "0":
        raise SystemExit(
            f"child.py must run under run.py: PYTHONHASHSEED=0 and none of "
            f"{', '.join(ledger.SCRUBBED_ENV)} set (found {leaked})"
        )
    from repro.core import resolve_transport

    transport = resolve_transport("auto").name
    if transport != "numpy":
        raise SystemExit(
            f"transport 'auto' resolved to {transport!r}, not 'numpy': the "
            f"baseline numbers are for the numpy backend"
        )


class Gate:
    """The correctness gate: every pass against the first one."""

    EXACT = ("digest", "sched_rounds", "precomp_rounds", "bound")

    def __init__(self) -> None:
        self.reference = None
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, label: str, outcome) -> None:
        self.attempted += outcome.attempted
        self.failures.extend(f"{label}: {line}" for line in outcome.failures)
        if self.reference is None:
            self.reference = outcome
            return
        for field in self.EXACT:
            seen, expected = getattr(outcome, field), getattr(self.reference, field)
            if expected is None:  # the CLI pass sees no bound; a traced one does
                setattr(self.reference, field, seen)
            elif seen is not None and seen != expected:
                self.failures.append(
                    f"{label}: {field} {seen!r} differs from the first "
                    f"pass's {expected!r}"
                )


def _untraced_rep(workload, state) -> Tuple[float, Any]:
    try:
        gc.collect()
        start = time.perf_counter()
        raw = workload.timed(state)
        wall = time.perf_counter() - start
        return wall, workload.outcome(state, raw)
    finally:
        workload.cleanup(state)


def _traced_rep(workload, spans: SpanRecorder, rep: int, hint) -> Tuple[Any, Dict[str, float]]:
    """One traced rep: its outcome and its per-layer numbers."""
    spans.rep = rep
    state = workload.prepare(spans)
    try:
        gc.collect()
        with spans.span("rep") as root:
            raw, counts = workload.traced(state, spans, hint)
        extra_failures = workload.extras(state, spans, raw)
        outcome = workload.outcome(state, raw)
        outcome.failures.extend(extra_failures)
    finally:
        workload.cleanup(state)
    layers = {f"{name}_s": total for name, total in spans.totals(rep).items()}
    layers.update(counts)
    # The benchmark's own bookkeeping pauses the traced region: it is in
    # no layer and is not the program's time either.
    paused = layers.get("bench.bookkeeping_s", 0.0)
    children = sum(
        s.duration for s in spans.spans[root.index:] if s.parent == root.index
    )
    total = layers["bench.traced_total_s"] = root.duration - paused
    layers["bench.unattributed_frac"] = (root.duration - children) / total
    return outcome, layers


def _summary(values: List[float]) -> Dict[str, float]:
    ordered = sorted(values)
    # quantiles() needs two points; one rep is its own quartiles.
    quartiles = (
        statistics.quantiles(ordered, n=4) if len(ordered) > 1 else ordered * 3
    )
    return {
        "reps": len(ordered),
        "min": ordered[0],
        "q1": quartiles[0],
        "median": statistics.median(ordered),
        "q3": quartiles[2],
        "max": ordered[-1],
    }


def _per_layer(
    gate: Gate,
    traced: List[Dict[str, float]],
    phases: List[Dict[str, float]],
    walls: List[float],
) -> Dict[str, float]:
    """Every declared per-layer metric: medians of times, exact counts."""
    declared = ledger.per_layer()
    metrics: Dict[str, float] = {}
    for name, spec in declared.items():
        values = [rep[name] for rep in traced if name in rep]
        values += [rep[name] for rep in phases if name in rep]
        if not values:
            metrics[name] = 0.0  # the layer is idle on this workload
            continue
        exact = ledger.is_exact(name, spec["unit"])
        if exact and any(value != values[0] for value in values):
            gate.failures.append(f"{name} differs across reps: {values}")
        metrics[name] = values[0] if exact else statistics.median(values)

    wall = statistics.median(walls)
    total = statistics.median(rep["bench.traced_total_s"] for rep in traced)
    metrics["bench.traced_overhead_frac"] = (total - wall) / wall
    if phases and phases[0]:
        # What the CLI adds around the library: spool files, state.json
        # scans and sync, table printing.
        metrics["cli.overhead_s"] = wall - total
    for layer in ("congest.simulator", "core.phase_engine"):
        if metrics[f"{layer}.msgs"]:
            metrics[f"{layer}.us_per_msg"] = (
                1e6 * metrics[f"{layer}.run_s"] / metrics[f"{layer}.msgs"]
            )
    reference = gate.reference
    metrics["precomp_rounds"] = reference.precomp_rounds
    metrics["bound_ratio"] = (
        reference.sched_rounds / reference.bound if reference.bound else 0.0
    )
    metrics["failed_frac"] = len(gate.failures) / gate.attempted
    return metrics


def measure(args) -> Dict[str, Any]:
    from workloads import WORKLOADS

    spans = SpanRecorder()
    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    try:
        state = workload.prepare(spans)
        setup_s = time.time() - args.t0
        if args.setup_only:
            workload.cleanup(state)
            return {"setup_s": setup_s}

        gate = Gate()
        _wall, outcome = _untraced_rep(workload, state)  # warm-up, discarded
        gate.check("warm-up", outcome)
        hint = outcome.hint

        walls: List[float] = []
        phases: List[Dict[str, float]] = []
        traced: List[Dict[str, float]] = []
        wanted = args.reps or MIN_REPS[args.trace]
        deadline = time.perf_counter() + (0 if args.reps else args.seconds)
        while len(walls) < wanted or time.perf_counter() < deadline:
            rep = len(walls) + 1
            wall, outcome = _untraced_rep(workload, workload.prepare(spans))
            gate.check(f"rep {rep}", outcome)
            walls.append(wall)
            phases.append(outcome.phases)
            if args.trace:
                outcome, layers = _traced_rep(workload, spans, rep, hint)
                gate.check(f"traced rep {rep}", outcome)
                traced.append(layers)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not args.trace:
            outcome, _layers = _traced_rep(workload, spans, 0, hint)
            gate.check("traced rep", outcome)
    finally:
        workload.close()

    wall = _summary(walls)
    if args.trace:
        metrics = _per_layer(gate, traced, phases, walls)
        spans.write_jsonl(Path(args.results) / f"trace-{args.workload}.jsonl")
    else:
        # Every rep does the same work on the same inputs, and the host
        # only ever slows one down, for tens of seconds at a time. The
        # lower quartile stays on the undisturbed reps until such a
        # stretch covers three quarters of the run; the median gives way
        # at half (README, "Why the lower quartile").
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall["q1"],
            "ops_per_s": workload.ops / wall["q1"],
            "peak_rss_mb": peak_rss_mb,
            "sched_rounds": gate.reference.sched_rounds,
        }
    return {
        "metrics": metrics,
        "wall": wall,
        "ops": workload.ops,
        "sizes": workload.size,
        "digest": gate.reference.digest,
        "attempted": gate.attempted,
        "failures": gate.failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(ledger.workloads()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--reps", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--results", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ledger.ROOT / "src"))
    _check_environment()
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
