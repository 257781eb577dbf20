"""Theorem 4.1 / 1.3: scheduling with only private randomness.

The full pipeline:

1. **Cluster** (Lemma 4.2): ``Θ(log n)`` layers of ball carving with
   radius scale ``Θ(dilation)``, horizon ``Θ(dilation·log n)``, each node
   learning its contained radius ``h'``. Either by actually running the
   CONGEST protocol (``distributed_precomputation=True``; rounds are
   *measured*) or via the centralized oracle that computes the identical
   result and charges the protocol's round formula.
2. **Share randomness** (Lemma 4.3): ``Θ(log² n)`` bits per cluster,
   expanded to ``Θ(log n)``-wise independent values, bucketed by AID.
3. **Run copies** (Lemma 4.4): one copy of every algorithm per cluster
   per layer, truncated at contained radii, delayed per cluster:

   * ``dedup=False`` — uniform delays over ``Θ(congestion)`` big-rounds;
     every copy transmits its own messages. Schedule
     ``O((congestion + dilation)·log n)`` rounds.
   * ``dedup=True`` — the non-uniform :class:`~repro.randomness.
     distributions.BlockDelay` distribution; only the first scheduled
     copy of each message transmits. Schedule
     ``O(congestion + dilation·log n)`` rounds — the paper's headline.

4. **Select outputs**: each node picks, per algorithm, a layer whose
   cluster contains its ``dilation_i``-ball and outputs that copy's value.
   Coverage holds w.h.p.; if a node is uncovered, more layers are added
   (and paid for) before execution, mirroring a w.h.p. failure retry.

**Distributed realizability.** The engine is a centralized simulator, but
every decision it takes is locally computable in the model: the carving
and sharing stages exist as real CONGEST protocols
(``distributed_precomputation=True`` runs them and charges measured
rounds); delays are pure functions of (cluster bits, AID) known to every
member; truncation gates depend only on each node's own ``h'``; and
output selection needs only the node's per-layer ``h'`` values and the
algorithm's dilation (global knowledge per the paper's Section 2
assumption, removable by doubling). The one global quantity the
simulator reads directly — the measured (congestion, dilation) — is
exactly the constant-factor approximation the paper assumes nodes have.
"""

from __future__ import annotations

import math
from typing import Optional

from ..clustering.distributed import run_distributed_clustering
from ..clustering.layers import Clustering, build_clustering, extend_clustering
from ..errors import CoverageError
from ..metrics.schedule import PhaseTimeline, ScheduleReport
from ..randomness.distributions import BlockDelay, UniformDelay
from .base import ScheduleResult, Scheduler
from .cluster_delays import ClusterDelaySampler
from .cluster_engine import run_cluster_copies, select_output_layers
from .delays import phase_size_log
from .workload import Workload

__all__ = ["PrivateScheduler"]


class PrivateScheduler(Scheduler):
    """The paper's main scheduler: private randomness only.

    Parameters
    ----------
    dedup:
        ``True`` (default) uses the non-uniform block delays plus message
        de-duplication (the ``O(C + D·log n)`` result); ``False`` uses
        the simpler uniform-delay variant (``O((C + D)·log n)``).
    radius_factor:
        Cluster radius scale as a multiple of the measured dilation.
        Larger values raise per-layer coverage probability (the
        memoryless-tail argument gives roughly ``e^{-1/radius_factor}``)
        at the cost of bigger clusters.
    layer_constant:
        Multiplier on ``log2 n`` for the number of layers.
    distributed_precomputation:
        Actually run the carving/sharing protocols on the simulator and
        charge measured rounds, instead of the oracle + formula.
    clustering:
        Reuse a prebuilt clustering (must match the workload's network).
    """

    def __init__(
        self,
        dedup: bool = True,
        radius_factor: float = 2.0,
        layer_constant: float = 3.0,
        phase_constant: float = 1.0,
        delay_stretch: float = 1.0,
        distributed_precomputation: bool = False,
        clustering: Optional[Clustering] = None,
        max_coverage_retries: int = 3,
    ):
        self.dedup = dedup
        self.radius_factor = radius_factor
        self.layer_constant = layer_constant
        self.phase_constant = phase_constant
        self.delay_stretch = delay_stretch
        self.distributed_precomputation = distributed_precomputation
        self.clustering = clustering
        self.max_coverage_retries = max_coverage_retries

    @property
    def name(self) -> str:
        variant = "nonuniform+dedup" if self.dedup else "uniform"
        return f"private[T4.1,{variant}]"

    # ------------------------------------------------------------------

    def _build_clustering(self, workload: Workload, seed: int) -> Clustering:
        n = workload.network.num_nodes
        params = workload.params()
        radius_scale = max(1, math.ceil(self.radius_factor * max(params.dilation, 1)))
        num_layers = max(
            2, math.ceil(self.layer_constant * math.log2(max(n, 2)))
        )
        if self.distributed_precomputation:
            return run_distributed_clustering(
                workload.network,
                radius_scale,
                num_layers,
                seed=seed,
                recorder=self.recorder,
            )
        return build_clustering(
            workload.network,
            radius_scale,
            num_layers,
            seed=seed,
            recorder=self.recorder,
        )

    def _ensure_coverage(self, workload: Workload, clustering: Clustering):
        """Select output layers, extending the clustering on coverage gaps."""
        recorder = self.recorder
        for attempt in range(self.max_coverage_retries + 1):
            try:
                return clustering, select_output_layers(workload, clustering)
            except CoverageError:
                if recorder.enabled:
                    recorder.counter("scheduler.coverage_retries")
                    recorder.event(
                        "coverage-retry",
                        attempt=attempt,
                        num_layers=clustering.num_layers,
                    )
                if attempt == self.max_coverage_retries:
                    raise
                with recorder.span("extend-clustering", category="clustering"):
                    clustering = extend_clustering(
                        clustering, max(2, clustering.num_layers)
                    )
        raise AssertionError("unreachable")

    def _delay_distribution(self, workload: Workload, num_layers: int):
        params = workload.params()
        n = workload.network.num_nodes
        if self.dedup:
            return BlockDelay.for_schedule(
                congestion=max(1, math.ceil(self.delay_stretch * params.congestion)),
                num_nodes=n,
                copies=num_layers,
            )
        return UniformDelay(
            max(1, math.ceil(self.delay_stretch * params.congestion))
        )

    # ------------------------------------------------------------------

    def run(self, workload: Workload, seed: int = 0) -> ScheduleResult:
        recorder = self.recorder
        with recorder.span("measure-params", category="scheduler"):
            params = workload.params()
        n = workload.network.num_nodes

        with recorder.span(
            "clustering",
            category="scheduler",
            distributed=self.distributed_precomputation,
            prebuilt=self.clustering is not None,
        ):
            clustering = self.clustering or self._build_clustering(workload, seed)
        with recorder.span("select-output-layers", category="scheduler"):
            clustering, output_layers = self._ensure_coverage(workload, clustering)

        with recorder.span(
            "delay-sampling", category="scheduler", dedup=self.dedup
        ):
            distribution = self._delay_distribution(
                workload, clustering.num_layers
            )
            sampler = ClusterDelaySampler(
                clustering, workload.num_algorithms, distribution
            )

        with recorder.span(
            "cluster-copies",
            category="scheduler",
            num_layers=clustering.num_layers,
        ):
            execution = run_cluster_copies(
                workload,
                clustering,
                sampler.delay,
                dedup=self.dedup,
                output_layers=output_layers,
                max_big_rounds=self.round_budget,
                recorder=recorder,
                injector=self.injector,
            )

        phase_size = phase_size_log(n, self.phase_constant)
        report = ScheduleReport(
            scheduler=self.name,
            params=params,
            length_rounds=PhaseTimeline.stretched(
                execution.num_big_rounds, phase_size, execution.max_big_round_load
            ).length,
            precomputation_rounds=clustering.precomputation_rounds,
            num_phases=execution.num_big_rounds,
            phase_size=phase_size,
            max_phase_load=execution.max_big_round_load,
            messages_sent=execution.messages_sent,
            messages_deduplicated=execution.messages_deduplicated,
            load_histogram=execution.load_histogram,
            notes={
                "num_layers": clustering.num_layers,
                "num_copies": execution.num_copies,
                "step_groups": execution.step_groups,
                "messages_truncated": execution.messages_truncated,
                "delay_support": distribution.support_size,
                "kwise_independence": sampler.independence,
                "prime": sampler.prime,
                "built_distributed": clustering.built_distributed,
            },
        )
        if execution.truncated:
            report.notes["truncated"] = True
        return self._finish(workload, execution.outputs, report)
