"""The six workloads of the performance ledger (see README.md).

Every workload is a closed loop with one client and has two passes over
the same seeded inputs:

* :meth:`BenchWorkload.timed` — the untraced pass, through the public
  API or the real CLI entry point (``repro.__main__.main``, in-process);
  its wall-clock is the end-to-end time;
* :meth:`BenchWorkload.traced` — the same inputs re-executed as a
  sequence of calls into each layer's public functions, each wrapped in
  a span of :mod:`spans`; it yields the per-layer times and the exact
  counts, and must reproduce the untraced pass's outputs digest and
  schedule length.

Sizes and structure (networks, ``k``, sources, hop counts, the scenario
population) are constants of the workload, drawn once from a fixed
pattern generator; ``--seed`` draws the data that flows through that
structure — tokens, master seeds, a translation of the torus, the order
of the scenarios. Where the sources sit decides the congestion, hence
the delays, the schedule length and the messages moved: letting the
seed place them changed ``wall_s`` by 7-9 % and ``sched_rounds`` by
5-13 % between seeds, more than the regression bounds. With the
structure fixed the work of a run is the same for every seed, so runs
with different seeds are comparable within the bounds of
``BENCHMARK.json`` while no output can be learnt by heart.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import pickle
import random
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.__main__ import main as repro_main
from repro.algorithms.bfs import BFS
from repro.algorithms.broadcast import HopBroadcast
from repro.clustering.layers import build_clustering, extend_clustering
from repro.congest import topology
from repro.congest.program import Algorithm, NodeProgram
from repro.congest.simulator import Simulator
from repro.core import (
    ClusterDelaySampler,
    PrivateScheduler,
    RandomDelayScheduler,
    Workload,
    phase_size_log,
    run_cluster_copies,
    run_delayed_phases,
    select_output_layers,
    verify_outputs,
)
from repro.errors import CoverageError
from repro.fuzz import ScenarioGenerator
from repro.metrics.congestion import WorkloadParams, measure_params
from repro.metrics.schedule import phase_schedule_length
from repro.parallel import ParallelRunner
from repro.parallel.cache import (
    SoloRunCache,
    reset_default_cache,
    set_default_cache,
)
from repro.randomness.distributions import BlockDelay
from repro.service import (
    AdmissionPolicy,
    RunRegistry,
    ShardedSchedulerService,
    parse_algorithm,
    parse_network,
    parse_scheduler,
    shard_key,
)

from spans import SpanRecorder

__all__ = ["WORKLOADS", "BenchWorkload", "Outcome", "TMP_ROOT"]

#: Scratch space for service directories: inside the benchmark's own
#: directory (the benchmark may write only inside its checkout), listed
#: in ``.gitignore``, and emptied as each rep finishes.
TMP_ROOT = Path(__file__).resolve().parent / ".tmp"


def _mkdtemp() -> Path:
    TMP_ROOT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="svc-", dir=TMP_ROOT))


def _rmtree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    with contextlib.suppress(OSError):
        TMP_ROOT.rmdir()  # succeeds once the last directory is gone


def _canon(value: Any) -> str:
    """Order-independent rendering of an output value for the digest."""
    if isinstance(value, dict):
        items = sorted(f"{_canon(k)}:{_canon(v)}" for k, v in value.items())
        return "{" + ",".join(items) + "}"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(_canon(v) for v in value)) + "}"
    if isinstance(value, (list, tuple)):
        return "(" + ",".join(_canon(v) for v in value) + ")"
    return repr(value)


def _bound(params: WorkloadParams, num_nodes: int) -> int:
    """The paper's ``C + D·⌈log₂ n⌉`` for one scheduled execution."""
    return params.congestion + params.dilation * math.ceil(
        math.log2(max(num_nodes, 2))
    )


@dataclasses.dataclass
class Outcome:
    """What one pass produced, reduced to what the gates compare."""

    #: SHA-256 over the sorted outputs of every operation.
    digest: str
    #: Operations attempted (scheduler runs, jobs, ...).
    attempted: int
    #: One line per failed operation, naming it.
    failures: List[str]
    #: Σ ``report.length_rounds`` over every scheduled execution.
    sched_rounds: int
    #: Σ ``report.precomputation_rounds``.
    precomp_rounds: int = 0
    #: Σ ``C + D·⌈log₂ n⌉`` over the same executions; ``None`` where the
    #: pass cannot see them (the CLI pass reports no batch parameters).
    bound: Optional[int] = None
    #: What the traced pass needs from the untraced one (drawn delays).
    hint: Any = None
    #: Per-layer times only the untraced pass can take (CLI phases).
    phases: Dict[str, float] = dataclasses.field(default_factory=dict)


class _Run(NamedTuple):
    """One scheduled execution, from either pass."""

    label: str
    outputs: Dict[Tuple[int, int], Any]
    length: int
    precomp: int
    params: WorkloadParams
    num_nodes: int
    correct: bool
    #: What :meth:`BenchWorkload.extras` reuses (a built clustering).
    prebuilt: Any = None


def _run_of(label: str, result, num_nodes: int) -> _Run:
    report = result.report
    return _Run(
        label,
        result.outputs,
        report.length_rounds,
        report.precomputation_rounds,
        report.params,
        num_nodes,
        result.correct,
    )


def _outcome_of_runs(runs: Sequence[_Run], hint: Any = None) -> Outcome:
    sha = hashlib.sha256()
    failures = []
    for run in runs:
        sha.update(f"{run.label}={_canon(run.outputs)}\n".encode())
        if not run.correct:
            failures.append(f"{run.label}: outputs differ from the solo runs")
    return Outcome(
        digest=sha.hexdigest(),
        attempted=len(runs),
        failures=failures,
        sched_rounds=sum(run.length for run in runs),
        precomp_rounds=sum(run.precomp for run in runs),
        bound=sum(_bound(run.params, run.num_nodes) for run in runs),
        hint=hint,
    )


class BenchWorkload:
    """One workload: seeded inputs plus the two passes over them."""

    name = ""
    #: ``{"full": {...}, "smoke": {...}}`` — the size constants.
    SIZES: Dict[str, Dict[str, Any]] = {}

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.size = dict(self.SIZES["smoke" if smoke else "full"])
        self.generate(random.Random(f"{self.name}:{seed}"))

    def generate(self, rng: random.Random) -> None:
        """Draw the inputs (part of set-up)."""

    @property
    def ops(self) -> int:
        """Operations one rep performs (the numerator of ``ops_per_s``)."""
        raise NotImplementedError

    def prepare(self, spans: SpanRecorder) -> Any:
        """Fresh program state for one rep (untimed)."""
        return None

    def timed(self, state: Any) -> Any:
        """The untraced pass: the timed region."""
        raise NotImplementedError

    def traced(
        self, state: Any, spans: SpanRecorder, hint: Any
    ) -> Tuple[Any, Dict[str, float]]:
        """The traced pass: ``(raw, exact per-layer counts)``."""
        raise NotImplementedError

    def extras(self, state: Any, spans: SpanRecorder, raw: Any) -> List[str]:
        """Layer uses measured beside the traced region; returns failures."""
        return []

    def outcome(self, state: Any, raw: Any) -> Outcome:
        """Reduce either pass's result (untimed)."""
        raise NotImplementedError

    def cleanup(self, state: Any) -> None:
        """Drop one rep's state."""

    def close(self) -> None:
        """Drop what :meth:`generate` left behind."""


# ---------------------------------------------------------------------------
# solo_torus
# ---------------------------------------------------------------------------


class Multicast(Algorithm):
    """Every node floods every round (arXiv:2001.00072's workload shape):
    maximal traffic, trivial local computation, so message handling is
    the cost. Module-level so the pickled ``SoloRun`` can name it."""

    def __init__(self, token: int, rounds: int):
        self.token = token
        self.rounds = rounds

    def make_program(self, node, ctx):
        token, rounds = self.token, self.rounds

        class _Program(NodeProgram):
            def on_start(self, c):
                c.send_all((token, 0))

            def on_round(self, c, inbox):
                if c.round >= rounds:
                    self.halt()
                    return
                c.send_all((token, len(inbox) & 1))

            def output(self):
                return token

        return _Program()

    def max_rounds(self, network):
        return self.rounds + 4


class SoloTorus(BenchWorkload):
    name = "solo_torus"
    SIZES = {
        "full": {"rows": 64, "rounds": 30},
        "smoke": {"rows": 8, "rounds": 5},
    }

    def generate(self, rng):
        self.algorithm = Multicast(rng.randrange(1 << 16), self.size["rounds"])

    @property
    def ops(self):
        rows, rounds = self.size["rows"], self.size["rounds"]
        return 4 * rows * rows * rounds  # degree 4, every node, every round

    def prepare(self, spans):
        with spans.span("congest.topology.build"):
            return topology.torus_graph(self.size["rows"], self.size["rows"])

    def timed(self, network):
        run = Simulator(network).run(self.algorithm, seed=self.seed)
        blob = pickle.dumps(run, protocol=pickle.HIGHEST_PROTOCOL)
        cached = pickle.loads(blob)
        params = measure_params([cached])
        trace = cached.trace
        trace.directed_loads()
        trace.edge_round_counts()
        trace.max_edge_rounds()
        return cached, params

    def traced(self, network, spans, hint):
        with spans.span("congest.simulator.run"):
            run = Simulator(network).run(self.algorithm, seed=self.seed)
        with spans.span("parallel.cache.pickle"):
            blob = pickle.dumps(run, protocol=pickle.HIGHEST_PROTOCOL)
            cached = pickle.loads(blob)
        with spans.span("metrics.measure_params"):
            params = measure_params([cached])
        with spans.span("congest.trace.index"):
            trace = cached.trace
            trace.directed_loads()
            trace.edge_round_counts()
            trace.max_edge_rounds()
        counts = {
            "congest.simulator.msgs": trace.num_messages,
            "parallel.cache.pickle_bytes": len(blob),
        }
        return (cached, params), counts

    def outcome(self, network, raw):
        cached, params = raw
        token = self.algorithm.token
        correct = (
            len(cached.outputs) == network.num_nodes
            and all(value == token for value in cached.outputs.values())
            and cached.trace.num_messages == self.ops
        )
        outputs = {(0, node): value for node, value in cached.outputs.items()}
        # A solo run is a schedule of k = 1 whose length is its rounds.
        return _outcome_of_runs(
            [
                _Run(
                    "multicast", outputs, cached.rounds, 0, params,
                    network.num_nodes, correct,
                )
            ]
        )


# ---------------------------------------------------------------------------
# phase_batch and private_grid
# ---------------------------------------------------------------------------


class _Batch(BenchWorkload):
    """``k`` BFS/HopBroadcast algorithms (alternating) on one network."""

    def build_network(self):
        raise NotImplementedError

    def placement(self, rng: random.Random):
        """``pattern source -> node`` under this seed (identity here)."""
        return lambda source: source

    def generate(self, rng):
        size = self.size
        pattern = random.Random(f"{self.name}:pattern")
        place = self.placement(rng)
        sources = [
            place(pattern.randrange(size["rows"] * size["rows"]))
            for _ in range(size["k"])
        ]
        self.algorithms = [
            BFS(source, size["hops"])
            if index % 2 == 0
            else HopBroadcast(source, rng.randrange(1 << 16), size["hops"])
            for index, source in enumerate(sources)
        ]

    @property
    def ops(self):
        return self.size["k"]

    def prepare(self, spans):
        with spans.span("congest.topology.build"):
            return self.build_network()

    def workload(self, network) -> Workload:
        """A cold workload: new solo-run cache, nothing memoised."""
        return Workload(
            network,
            self.algorithms,
            master_seed=self.seed,
            solo_cache=SoloRunCache(),
        )

    def outcome(self, network, raw):
        if isinstance(raw, _Run):  # the traced pass
            return _outcome_of_runs([raw])
        return _outcome_of_runs(
            [_run_of(self.name, raw, network.num_nodes)],
            hint=raw.report.notes.get("delays"),
        )


class PhaseBatch(_Batch):
    name = "phase_batch"
    SIZES = {
        "full": {"rows": 32, "k": 16, "hops": 16},
        "smoke": {"rows": 6, "k": 4, "hops": 3},
    }

    def build_network(self):
        return topology.torus_graph(self.size["rows"], self.size["rows"])

    def placement(self, rng):
        # The torus is vertex-transitive: translating every source by
        # one vector keeps congestion, dilation and every load.
        rows = self.size["rows"]
        down, right = rng.randrange(rows), rng.randrange(rows)

        def translate(source):
            row, col = divmod(source, rows)
            return (row + down) % rows * rows + (col + right) % rows

        return translate

    def timed(self, network):
        return RandomDelayScheduler().run(self.workload(network), self.seed)

    def traced(self, network, spans, delays):
        workload = self.workload(network)
        with spans.span("core.workload.solo_runs"):
            workload.solo_runs()
        with spans.span("core.workload.params"):
            params = workload.params()
        with spans.span("core.phase_engine.run"):
            execution = run_delayed_phases(workload, delays)
        with spans.span("core.base.verify"):
            mismatches = verify_outputs(workload, execution.outputs)
        length = phase_schedule_length(
            execution.num_phases,
            phase_size_log(network.num_nodes),
            execution.max_phase_load,
        )
        counts = {
            "core.phase_engine.phases": execution.num_phases,
            "core.phase_engine.msgs": execution.messages,
            "core.phase_engine.max_phase_load": execution.max_phase_load,
        }
        run = _Run(
            self.name, execution.outputs, length, 0, params,
            network.num_nodes, not mismatches,
        )
        return run, counts


class PrivateGrid(_Batch):
    name = "private_grid"
    SIZES = {
        "full": {"rows": 12, "k": 16, "hops": 4},
        "smoke": {"rows": 5, "k": 3, "hops": 2},
    }
    #: The clustering a schedule seed draws decides both the work (the
    #: number of cluster copies, 1072-1600 here) and the schedule length
    #: (40-72 rounds), so it is part of the structure, not of the seed.
    SCHEDULE_SEED = 11

    def build_network(self):
        return topology.grid_graph(self.size["rows"], self.size["rows"])

    def timed(self, network):
        return PrivateScheduler().run(self.workload(network), self.SCHEDULE_SEED)

    def traced(self, network, spans, hint):
        scheduler = PrivateScheduler()
        workload = self.workload(network)
        num_nodes = network.num_nodes
        with spans.span("core.workload.solo_runs"):
            workload.solo_runs()
        with spans.span("core.workload.params"):
            params = workload.params()
        with spans.span("clustering.build"):
            clustering = build_clustering(
                network,
                max(1, math.ceil(scheduler.radius_factor * max(params.dilation, 1))),
                max(2, math.ceil(scheduler.layer_constant * math.log2(max(num_nodes, 2)))),
                seed=self.SCHEDULE_SEED,
            )
        with spans.span("core.cluster_engine.select_layers"):
            for attempt in range(scheduler.max_coverage_retries + 1):
                try:
                    output_layers = select_output_layers(workload, clustering)
                    break
                except CoverageError:
                    if attempt == scheduler.max_coverage_retries:
                        raise
                    clustering = extend_clustering(
                        clustering, max(2, clustering.num_layers)
                    )
        with spans.span("core.cluster_delays.sampler"):
            distribution = BlockDelay.for_schedule(
                congestion=max(
                    1, math.ceil(scheduler.delay_stretch * params.congestion)
                ),
                num_nodes=num_nodes,
                copies=clustering.num_layers,
            )
            sampler = ClusterDelaySampler(
                clustering, workload.num_algorithms, distribution
            )
        with spans.span("core.cluster_engine.run"):
            execution = run_cluster_copies(
                workload,
                clustering,
                sampler.delay,
                dedup=True,
                output_layers=output_layers,
            )
        with spans.span("core.base.verify"):
            mismatches = verify_outputs(workload, execution.outputs)
        length = phase_schedule_length(
            execution.num_big_rounds,
            phase_size_log(num_nodes, scheduler.phase_constant),
            execution.max_big_round_load,
        )
        sent = execution.messages_sent
        deduplicated = execution.messages_deduplicated
        counts = {
            "clustering.layers": clustering.num_layers,
            "clustering.precomputation_rounds": clustering.precomputation_rounds,
            "core.cluster_engine.copies": execution.num_copies,
            "core.cluster_engine.msgs_sent": sent,
            "core.cluster_engine.msgs_deduplicated": deduplicated,
            "core.cluster_engine.dedup_ratio": deduplicated
            / max(1, sent + deduplicated),
            "core.cluster_engine.msgs_truncated": execution.messages_truncated,
        }
        run = _Run(
            self.name, execution.outputs, length,
            clustering.precomputation_rounds, params, num_nodes, not mismatches,
            prebuilt=clustering,
        )
        return run, counts

    def extras(self, network, spans, run):
        # Cross-check: clustering.build_s + this ≈ wall_s.
        scheduler = PrivateScheduler(clustering=run.prebuilt)
        workload = self.workload(network)
        with spans.span("core.private.run_prebuilt"):
            result = scheduler.run(workload, self.SCHEDULE_SEED)
        if result.outputs != run.outputs or result.report.length_rounds != run.length:
            return ["core.private.run_prebuilt: differs from the layered calls"]
        return []


# ---------------------------------------------------------------------------
# scenario_mix
# ---------------------------------------------------------------------------


class ScenarioMix(BenchWorkload):
    name = "scenario_mix"
    #: ``eager`` is left out: its contract is honest divergence.
    SCHEDULERS = (
        "sequential",
        "round-robin",
        "random-delay",
        "sparse-phase",
        "doubling",
        "private",
    )
    #: ``scheduler name -> metric stem`` (``core.round_robin``).
    LAYERS = {name: f"core.{name.replace('-', '_')}" for name in SCHEDULERS}
    SIZES = {
        "full": {"scenarios": 168},  # 14 rounds of the 12 topology kinds
        "smoke": {"scenarios": 12},
    }
    #: The population (topologies × algorithm families, with their
    #: schedule seeds) is the fuzzer's stream at this seed; ``--seed``
    #: redraws every scenario's master seed — the tapes of the randomized
    #: algorithms — and the order they run in. A population drawn per
    #: ``--seed`` would change the total work by ~10 % between seeds.
    POPULATION_SEED = 0

    def generate(self, rng):
        generator = ScenarioGenerator(self.POPULATION_SEED)
        scenarios = []
        index = 0
        while len(scenarios) < self.size["scenarios"]:
            scenario = generator.generate(index)
            index += 1
            if scenario.faults is None:  # failure is legitimate under faults
                scenarios.append(scenario)
        self.scenarios = [
            dataclasses.replace(scenario, master_seed=rng.randrange(1 << 16))
            for scenario in scenarios
        ]
        rng.shuffle(self.scenarios)

    @property
    def ops(self):
        return len(self.scenarios) * len(self.SCHEDULERS)

    @staticmethod
    def _workload(scenario, built) -> Workload:
        return Workload(
            built.network,
            list(built.algorithms),
            master_seed=scenario.master_seed,
            solo_cache=SoloRunCache(),
        )

    def timed(self, state):
        runs = []
        for index, scenario in enumerate(self.scenarios):
            built = scenario.build()
            workload = self._workload(scenario, built)
            for name in self.SCHEDULERS:
                result = parse_scheduler(name).run_resilient(
                    workload, seed=scenario.schedule_seed
                )
                runs.append((f"{index}:{name}", result, built.network.num_nodes))
        return runs

    def traced(self, state, spans, hint):
        runs = []
        seconds = []
        rounds = dict.fromkeys(self.SCHEDULERS, 0)
        for index, scenario in enumerate(self.scenarios):
            with spans.span("fuzz.scenario.build"):
                built = scenario.build()
            workload = self._workload(scenario, built)
            with spans.span("core.workload.solo_runs"):
                workload.solo_runs()
            with spans.span("core.workload.params"):
                workload.params()
            for name in self.SCHEDULERS:
                with spans.span(f"{self.LAYERS[name]}.run") as span:
                    result = parse_scheduler(name).run_resilient(
                        workload, seed=scenario.schedule_seed
                    )
                seconds.append(span.duration)
                rounds[name] += result.report.length_rounds
                runs.append((f"{index}:{name}", result, built.network.num_nodes))
        counts = {
            f"{self.LAYERS[name]}.rounds": total for name, total in rounds.items()
        }
        seconds.sort()
        counts["core.run_p50_ms"] = 1e3 * statistics.median(seconds)
        # p99 of >= 1000 runs has at least ten samples beyond it.
        counts["core.run_p99_ms"] = 1e3 * seconds[(99 * len(seconds)) // 100]
        return runs, counts

    def outcome(self, state, raw):
        return _outcome_of_runs([_run_of(*entry) for entry in raw])


# ---------------------------------------------------------------------------
# serve_cold and serve_warm
# ---------------------------------------------------------------------------


class _Job(NamedTuple):
    """One served job as either pass reports it."""

    net: str
    state: str
    from_registry: bool
    fingerprint: Optional[str]


class _Served(NamedTuple):
    jobs: List[_Job]
    #: ``service.stats()`` — live (library pass) or as last synced into
    #: ``state.json`` (CLI pass).
    stats: Dict[str, Any]
    #: Seconds per CLI phase, by metric name; empty for the library pass.
    phases: Dict[str, float] = {}
    #: Σ ``C + D·⌈log₂ n⌉`` over ``shard.reports`` (library pass only).
    bound: Optional[int] = None
    #: Σ ``report.length_rounds`` over ``shard.reports`` (library only).
    report_rounds: Optional[int] = None


class _ServeState(NamedTuple):
    directory: Path
    cache: SoloRunCache


def _tree_bytes(root: Path, pattern: str) -> int:
    return sum(path.stat().st_size for path in root.glob(pattern))


class ServeCold(BenchWorkload):
    name = "serve_cold"
    NETWORKS = (
        "grid:8x8",
        "grid:10x10",
        "torus:8x8",
        "ring:48",
        "hypercube:6",
        "tree:5",
        "grid:6x12",
        "path:40",
    )
    BATCH_SIZE = 8
    SIZES = {"full": {"jobs": 256}, "smoke": {"jobs": 16}}
    #: Spool ids of this pass start after the jobs already in the
    #: directory (``serve_warm`` resubmits on top of a served snapshot).
    first_spool = 1

    def generate(self, rng):
        networks = {net: parse_network(net) for net in self.NETWORKS}
        sizes = {net: network.num_nodes for net, network in networks.items()}
        #: ``shard key -> n``, to price each shard's reports at C + D·log n.
        self.shard_nodes = {
            shard_key(network): network.num_nodes for network in networks.values()
        }
        pattern = random.Random("serve:pattern")  # shared with serve_warm
        salt = rng.randrange(1 << 16)
        jobs: Dict[Tuple[str, str], None] = {}
        index = 0
        while len(jobs) < self.size["jobs"]:
            net = self.NETWORKS[index % len(self.NETWORKS)]
            source = pattern.randrange(sizes[net])
            if (index // len(self.NETWORKS)) % 2 == 0:
                # Tokens are unique, so every broadcast is a distinct job.
                token = (salt << 16) + index
                algo = (
                    f"broadcast:source={source},token={token},"
                    f"hops={pattern.randint(2, 6)}"
                )
            else:
                algo = f"bfs:source={source},hops={pattern.randint(2, 8)}"
            jobs.setdefault((net, algo))
            index += 1
        self.jobs: List[Tuple[str, str]] = list(jobs)
        # Part of every job's fingerprint, so each seed fills its own
        # registry keys and journal records.
        self.master_seed = self.seed % (1 << 16)

    @property
    def ops(self):
        return len(self.jobs)

    def prepare(self, spans):
        cache = SoloRunCache()
        # The CLI serves with the process-wide cache; make it cold.
        set_default_cache(cache)
        return _ServeState(_mkdtemp(), cache)

    def cleanup(self, state):
        reset_default_cache()
        _rmtree(state.directory)

    # -- the CLI pass ---------------------------------------------------

    def _cli(self, directory: Path) -> _Served:
        """submit × N → serve → status --json through ``repro.__main__``."""
        where = str(directory)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            start = time.perf_counter()
            for net, algo in self.jobs:
                repro_main(
                    [
                        "submit", "--dir", where, "--net", net, "--algo", algo,
                        "--seed", str(self.master_seed),
                    ]
                )
            submitted = time.perf_counter()
            repro_main(
                [
                    "serve", "--dir", where,
                    "--batch-size", str(self.BATCH_SIZE), "--workers", "1",
                ]
            )
            served = time.perf_counter()
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            repro_main(["status", "--dir", where, "--json"])
        status = json.loads(report.getvalue())
        done = time.perf_counter()
        entries = status["jobs"]
        jobs = []
        for offset in range(len(self.jobs)):
            entry = entries.get(f"s{self.first_spool + offset:04d}", {})
            jobs.append(
                _Job(
                    entry.get("net", "?"),
                    entry.get("state", "missing"),
                    bool(entry.get("from_registry")),
                    entry.get("fingerprint"),
                )
            )
        return _Served(
            jobs,
            status["stats"] or {},
            phases={
                "cli.submit_s": submitted - start,
                "cli.serve_s": served - submitted,
                "cli.status_s": done - served,
            },
        )

    def timed(self, state):
        return self._cli(state.directory)

    # -- the library pass -----------------------------------------------

    def _service_kwargs(self) -> Dict[str, Any]:
        """What ``python -m repro serve --batch-size 8 --workers 1`` builds."""
        return dict(
            scheduler=RandomDelayScheduler(),
            batch_size=self.BATCH_SIZE,
            policy=AdmissionPolicy(),
            runner=ParallelRunner(1, persistent=True),
            schedule_seed=1,
            transport=None,
            fsync="batch",
        )

    def traced(self, state, spans, hint):
        directory = state.directory
        shards = directory / "shards"
        # serve_warm appends to the restored logs: report what this
        # pass wrote, not what the snapshot already held.
        journal_bytes = -_tree_bytes(shards, "*/journal.jsonl")
        events_bytes = -_tree_bytes(shards, "*/events.jsonl")
        service = ShardedSchedulerService(
            directory=directory, **self._service_kwargs()
        )
        submitted = []
        for offset, (net, algo) in enumerate(self.jobs):
            with spans.span("service.specs.parse"):
                network = parse_network(net)
                algorithm = parse_algorithm(algo, network=network)
            record = {
                "id": f"s{self.first_spool + offset:04d}",
                "net": net,
                "algo": algo,
                "seed": self.master_seed,
            }
            with spans.span("service.submit"):
                job = service.submit(
                    network, algorithm, master_seed=self.master_seed, spec=record
                )
            submitted.append(job)
        with spans.span("service.drain"):
            service.drain()
        with spans.span("bench.bookkeeping"):
            # Before the checkpoint compacts it: the journal as written,
            # and a copy of it for the replay in extras().
            stats = service.stats()
            journal_bytes += _tree_bytes(shards, "*/journal.jsonl")
            shutil.copytree(shards, directory / "replay" / "shards")
        with spans.span("service.checkpoint"):
            service.checkpoint()
        service.shutdown(drain=False)
        events_bytes += _tree_bytes(shards, "*/events.jsonl")  # flushed on close

        reports = [
            (report, self.shard_nodes[key])
            for key, shard in service.shards.items()
            for report in shard.reports
        ]
        registry = stats["registry"]
        lookups = registry["hits"] + registry["misses"]
        latency = stats["latency"]
        cache = state.cache.stats()
        counts = {
            "parallel.cache.hits": cache["hits"],
            "parallel.cache.misses": cache["misses"],
            # stats()["batches"] continues the journal's id chain, so on
            # a restored directory it counts the snapshot's batches too.
            "service.batches": sum(len(wave) for wave in service.drain_waves),
            "service.executions": len(reports),
            "service.shards": len(service.shards),
            "service.registry.hits": registry["hits"],
            "service.registry.stores": registry["stores"],
            "service.registry.hit_ratio": registry["hits"] / max(1, lookups),
            "service.registry.disk_bytes": _tree_bytes(
                directory / "registry", "*.pkl"
            ),
            "service.journal.records": stats["journal"]["records"],
            "service.journal.bytes": journal_bytes,
            "service.events.count": stats["events"],
            "service.events.bytes": events_bytes,
            "service.events.job_e2e_p50_s": latency["e2e_latency_s"]["p50"],
            "service.events.job_e2e_p90_s": latency["e2e_latency_s"]["p90"],
            "service.events.jobs_per_sec": latency["jobs_per_sec"],
        }
        jobs = [
            _Job(
                net,
                job.state.value,
                bool(job.result and job.result.from_registry),
                job.fingerprint,
            )
            for (net, _algo), job in zip(self.jobs, submitted)
        ]
        served = _Served(
            jobs,
            stats,
            bound=sum(_bound(report.params, n) for report, n in reports),
            report_rounds=sum(report.length_rounds for report, _n in reports),
        )
        return served, counts

    def extras(self, state, spans, served):
        # A third use of the same log: one sequential read.
        directory = state.directory
        with spans.span("service.journal.replay"):
            recovered = ShardedSchedulerService.recover(
                directory / "replay",
                registry=RunRegistry(directory / "registry"),
                **self._service_kwargs(),
            )
        states = [job.state.value for job in recovered.jobs()]
        recovered.shutdown(drain=False)
        if len(states) < len(self.jobs) or any(s != "done" for s in states):
            return ["service.journal.replay: a replayed job is not done"]
        return []

    # -- both passes ----------------------------------------------------

    def check_job(self, index: int, job: _Job) -> Optional[str]:
        if job.state != "done":
            return f"job {index} ({self.jobs[index][1]}): {job.state}, not done"
        return None

    def check_stats(self, served: _Served) -> List[str]:
        return []

    def outcome(self, state, served):
        # Read back what the service persisted, through a registry of
        # our own so the service's hit counters stay untouched.
        registry = RunRegistry(state.directory / "registry")
        sha = hashlib.sha256()
        failures = self.check_stats(served)
        executions: Dict[Tuple[str, str], int] = {}
        for index, job in enumerate(served.jobs):
            problem = self.check_job(index, job)
            artifact = registry.get(job.fingerprint) if problem is None else None
            if artifact is None:
                failures.append(problem or f"job {index}: no registry artifact")
                continue
            sha.update(f"{index}={_canon(artifact.outputs)}\n".encode())
            # Batch ids count per shard, and a shard is one network.
            executions[(job.net, artifact.meta["batch"])] = artifact.meta[
                "length_rounds"
            ]
        sched_rounds = sum(executions.values())
        if served.report_rounds not in (None, 0, sched_rounds):
            failures.append(
                f"shard.reports sum to {served.report_rounds} rounds, the "
                f"registry artifacts to {sched_rounds}"
            )
        return Outcome(
            digest=sha.hexdigest(),
            attempted=len(served.jobs),
            failures=failures,
            sched_rounds=sched_rounds,
            bound=served.bound,
            phases=served.phases,
        )


class ServeWarm(ServeCold):
    name = "serve_warm"

    def generate(self, rng):
        super().generate(rng)
        # Set-up: a fully served serve_cold directory, restored per rep.
        self.snapshot = _mkdtemp()
        set_default_cache(SoloRunCache())
        try:
            served = self._cli(self.snapshot)
            if any(job.state != "done" for job in served.jobs):
                raise RuntimeError("serve_warm set-up: a snapshot job is not done")
        except BaseException:
            self.close()
            raise
        finally:
            reset_default_cache()
        self.first_spool = len(self.jobs) + 1

    def close(self):
        _rmtree(self.snapshot)

    def prepare(self, spans):
        state = super().prepare(spans)
        shutil.copytree(self.snapshot, state.directory, dirs_exist_ok=True)
        return state

    def check_job(self, index, job):
        problem = super().check_job(index, job)
        if problem is None and not job.from_registry:
            return f"job {index} ({self.jobs[index][1]}): executed, not from_registry"
        return problem

    def check_stats(self, served):
        registry = served.stats.get("registry", {})
        if registry.get("stores") or registry.get("misses"):
            return [
                f"serve_warm: {registry.get('stores')} registry stores and "
                f"{registry.get('misses')} misses, expected none"
            ]
        return []


WORKLOADS = {
    cls.name: cls
    for cls in (
        SoloTorus,
        PhaseBatch,
        PrivateGrid,
        ServeCold,
        ServeWarm,
        ScenarioMix,
    )
}
