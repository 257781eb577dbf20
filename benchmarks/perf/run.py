"""The timed, layered performance ledger: one command, six workloads.

Two ways to run it (both from the root of a checkout):

``python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload, one pass kind — the form ``BENCHMARK.json`` declares.
    ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
    per-layer metrics. The last line of standard output is one JSON
    object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``python3 benchmarks/perf/run.py [--seed S] [--workload NAME]... [--reps N] [--out PATH]``
    The full ledger: every (named) workload, untraced then traced, every
    metric printed by name with its unit, the result written to
    ``results/BENCH_11.json`` and repeated as the last line.
    ``--check-repeat`` runs the set twice and fails if the two disagree
    by more than the benchmark's own bounds.

Each measurement runs in a child process (``child.py``) with the
program's environment variables scrubbed and ``PYTHONHASHSEED=0``; this
process only orchestrates, so it imports nothing of the program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, List

import ledger

HERE = Path(__file__).resolve().parent

#: ``--check-repeat`` lets ``setup_s`` differ by less than this whatever
#: the share: a quarter of 0.4 s is within one scheduling hiccup.
SETUP_FLOOR_S = 0.10

#: A child that runs longer than this is stuck (the contract's cap is 180).
CHILD_TIMEOUT_S = 170


def _child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ledger.SCRUBBED_ENV}
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(args, workload: str, trace: int, results: Path, setup_only=False) -> dict:
    """Run ``child.py`` once; returns its JSON result."""
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--reps", str(args.reps),
        "--trace", str(trace),
        "--results", str(results),
        "--t0", repr(time.time()),
    ]
    if setup_only:
        command.append("--setup-only")
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(
        command,
        env=_child_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload}: child.py exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def run_pass(args, workload: str, trace: int, results: Path) -> dict:
    """One workload, one pass kind, as the ``BENCHMARK.json`` command runs it."""
    if trace:
        return _child(args, workload, trace, results)
    # ``setup_s`` is the median of three set-ups: a child that only sets
    # up before the measuring child and one after it, so a burst of host
    # noise a second long cannot hit most of the samples.
    before = _child(args, workload, trace, results, setup_only=True)
    result = _child(args, workload, trace, results)
    after = _child(args, workload, trace, results, setup_only=True)
    setups = [before["setup_s"], result["metrics"]["setup_s"], after["setup_s"]]
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["setups"] = setups
    return result


def _with_units(metrics: Dict[str, float], declared: Dict[str, dict]) -> dict:
    return {
        name: {"value": metrics[name], "unit": spec["unit"]}
        for name, spec in declared.items()
    }


def _print_metrics(workload: str, metrics: Dict[str, dict]) -> None:
    for name, entry in metrics.items():
        print(f"{workload}.{name} = {entry['value']:.6g} {entry['unit']}")


# ---------------------------------------------------------------------------
# the BENCHMARK.json command
# ---------------------------------------------------------------------------


def contract_run(args, results: Path) -> int:
    workload = args.workload[0]
    result = run_pass(args, workload, args.trace, results)
    declared = ledger.per_layer() if args.trace else ledger.end_to_end()
    metrics = _with_units(result["metrics"], declared)
    _print_metrics(workload, metrics)
    for line in result["failures"]:
        print(f"FAILED {workload}: {line}")
    print(
        json.dumps(
            {
                "correct": not result["failures"],
                "attempted": result["attempted"],
                "failed": len(result["failures"]),
                "metrics": metrics,
            }
        )
    )
    return 1 if result["failures"] else 0


# ---------------------------------------------------------------------------
# the full ledger
# ---------------------------------------------------------------------------


def _provenance(args) -> Dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "-C", str(ledger.ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        ).stdout.strip()
    except OSError:
        sha = ""
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    load = os.getloadavg()[0]
    if load > 1.0:
        print(f"WARNING: load average {load:.2f} > 1.0 at start; timings will be noisy")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_sha": sha or "unknown",
        "seed": args.seed,
        "seconds": args.seconds,
        "reps": args.reps or None,
        "smoke": args.smoke,
        "loadavg_start": load,
    }


def ledger_run(args, results: Path) -> dict:
    """Every named workload, untraced then traced; returns the document."""
    document = {
        "benchmark": "benchmarks/perf",
        "issue": 11,
        "provenance": _provenance(args),
        "workloads": {},
    }
    end_to_end, per_layer = ledger.end_to_end(), ledger.per_layer()
    for workload in args.workload or list(ledger.workloads()):
        untraced = run_pass(args, workload, 0, results)
        traced = run_pass(args, workload, 1, results)
        failures = untraced["failures"] + traced["failures"]
        if untraced["digest"] != traced["digest"]:
            failures.append("outputs digest differs between the two passes")
        entry = {
            "sizes": untraced["sizes"],
            "ops": untraced["ops"],
            "wall": untraced["wall"],
            "setups": untraced["setups"],
            "digest": untraced["digest"],
            "attempted": untraced["attempted"] + traced["attempted"],
            "failures": failures,
            "end_to_end": _with_units(untraced["metrics"], end_to_end),
            "per_layer": _with_units(traced["metrics"], per_layer),
        }
        document["workloads"][workload] = entry
        _print_metrics(workload, entry["end_to_end"])
        _print_metrics(workload, entry["per_layer"])
    return document


def _failures(document: dict) -> List[str]:
    return [
        f"{workload}: {line}"
        for workload, entry in document["workloads"].items()
        for line in entry["failures"]
    ]


def _allowed_difference(kind: str, name: str, unit: str):
    """The share two runs of the same code may differ by (None: any)."""
    if ledger.is_exact(name, unit):
        return 0.0  # deterministic for a seed, whatever bound applies across seeds
    if kind == "end_to_end":
        return ledger.end_to_end()[name]["bound"]
    return None  # per-layer timings carry no bound


def _relative_differences(first: dict, second: dict) -> List[str]:
    """Print the end-to-end metrics of both sets side by side; returns
    every metric that differs by more than it may."""
    problems = []
    for workload, entry in first["workloads"].items():
        other = second["workloads"][workload]
        for kind in ("end_to_end", "per_layer"):
            for name, a in entry[kind].items():
                a, b = a["value"], other[kind][name]["value"]
                unit = entry[kind][name]["unit"]
                scale = max(abs(a), abs(b))
                diff = (b - a) / scale if scale else 0.0
                allowed = _allowed_difference(kind, name, unit)
                if kind == "end_to_end":
                    print(
                        f"{workload}.{name}: {a:.6g} vs {b:.6g} {unit} "
                        f"({diff:+.2%}, allowed {allowed:.0%})"
                    )
                if name == "setup_s" and abs(b - a) < SETUP_FLOOR_S:
                    continue
                if allowed is not None and abs(diff) > allowed:
                    problems.append(f"{workload}.{name} differs by {diff:+.2%}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--workload", action="append", choices=list(ledger.workloads()),
        help="workload to run (repeatable; default: all six)",
    )
    parser.add_argument("--seed", type=int, default=11, help="workload seed (default 11)")
    parser.add_argument(
        "--seconds", type=float, default=ledger.benchmark()["run_seconds"],
        help="measure each pass for this long (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--reps", type=int, default=0,
        help="measure exactly N timed reps instead of --seconds",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="run one pass kind of one workload and end with the contract's "
        "JSON line (0: end-to-end metrics, 1: per-layer metrics)",
    )
    parser.add_argument(
        "--out", default=str(HERE / "results" / "BENCH_11.json"),
        help="where the full ledger is written (default: results/BENCH_11.json)",
    )
    parser.add_argument(
        "--check-repeat", action="store_true",
        help="run two full sets and fail if they differ beyond the bounds",
    )
    parser.add_argument("--smoke", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    out = Path(args.out)
    results = out.parent  # trace-<workload>.jsonl land beside the ledger
    results.mkdir(parents=True, exist_ok=True)
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace needs exactly one --workload")
        return contract_run(args, results)

    document = ledger_run(args, results)
    problems = _failures(document)
    if args.check_repeat:
        second = ledger_run(args, results)
        problems += _failures(second)
        repeat = _relative_differences(document, second)
        document["repeat"] = {"second": second["workloads"], "problems": repeat}
        problems += repeat
    for line in problems:
        print(f"FAILED {line}")
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(json.dumps(document))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
