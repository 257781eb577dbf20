"""The differential oracle: every way a scenario's runs must agree.

The paper's guarantee is that a scheduled execution is the solo
execution, just interleaved — outputs identical, length bounded below
by ``max(congestion, dilation)``. The oracle turns that and the stack's
own invariants into machine checks over one :class:`~.scenario.Scenario`:

fault-free scenarios
    * ``outputs`` — every scheduler's outputs equal the solo reference
      (recomputed here with :func:`~repro.core.base.verify_outputs`;
      the oracle never trusts a scheduler's self-verification);
    * ``failure`` — no scheduler reports a :class:`ScheduleFailure`;
    * ``bounds`` — ``length_rounds >= max(C, D)`` and the report's
      parameters match the workload;
    * ``sequential-length`` — the sequential schedule is exactly the
      sum of the solo runs;
    * ``transport-identity`` — reference and numpy transports produce
      bit-identical outputs and lengths. Each transport leg runs on its
      own workload with no solo cache, so its solo references and its
      engines all move messages on that leg's transport;
    * ``service`` — the same jobs submitted through
      :class:`SchedulerService` (wave drain) come back done,
      with per-job outputs equal to solo, and a content-identical
      resubmission is served from the registry;
    * ``crash`` — nothing raises a raw exception.

faulted scenarios (faults legitimately change outcomes, so solo
equivalence is not required)
    * ``fault-determinism`` — the same plan run twice gives the
      identical outcome (outputs, failure, length);
    * ``null-plan-identity`` — a plan with no fault features enabled is
      bit-identical to running with no plan at all;
    * ``crash`` — failures must be structured, never raw exceptions.

Every run is stamped with the scenario fingerprint (and the generator
seed, when known): ``report.notes["scenario"]``,
``failure.context["scenario"]``, and the service job spec — so a
divergence seen in any log names the scenario that reproduces it.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..core.base import verify_outputs
from ..core.workload import Workload
from ..faults.plan import FaultPlan
from ..service.service import SchedulerService
from ..service.specs import parse_scheduler
from . import inject as inject_module
from .scenario import BuiltScenario, Scenario

__all__ = [
    "DifferentialOracle",
    "Divergence",
    "OracleReport",
]


@dataclass(frozen=True)
class Divergence:
    """One failed cross-check, addressable back to its scenario."""

    check: str
    scenario: str
    detail: str
    scheduler: Optional[str] = None
    transport: Optional[str] = None

    def __str__(self) -> str:
        where = "/".join(filter(None, (self.scheduler, self.transport)))
        prefix = f"[{self.check}]" + (f" {where}" if where else "")
        return f"{prefix} scenario={self.scenario}: {self.detail}"


@dataclass(frozen=True)
class OracleReport:
    """Outcome of checking one scenario."""

    scenario: Scenario
    divergences: Tuple[Divergence, ...]
    checks: int

    @property
    def ok(self) -> bool:
        return not self.divergences


class DifferentialOracle:
    """Runs a scenario every which way and cross-checks the outcomes.

    ``inject`` is a test-only ``(result, workload) -> result``
    post-processor applied to scheduled runs (see :mod:`.inject`);
    when ``None`` it is read from ``$REPRO_FUZZ_INJECT`` so CLI
    subprocess tests can arm it. ``fuzz_seed`` is the generator seed
    stamped into reports and service specs for reproducibility.
    """

    def __init__(
        self,
        inject=None,
        service: bool = True,
        fuzz_seed: Optional[int] = None,
    ):
        self.inject = inject if inject is not None else inject_module.from_env()
        self.service = service
        self.fuzz_seed = fuzz_seed

    # -- helpers ------------------------------------------------------

    def _stamp(self, result, fingerprint: str) -> None:
        result.report.notes["scenario"] = fingerprint
        if self.fuzz_seed is not None:
            result.report.notes["fuzz_seed"] = self.fuzz_seed
        if result.failure is not None:
            result.failure.context["scenario"] = fingerprint
            if self.fuzz_seed is not None:
                result.failure.context["fuzz_seed"] = self.fuzz_seed

    def _run(self, scheduler_name: str, workload: Workload, scenario, faults=None, round_budget=None):
        scheduler = parse_scheduler(scheduler_name)
        if faults is not None:
            scheduler = scheduler.with_faults(faults)
        if round_budget is not None:
            scheduler = scheduler.with_round_budget(round_budget)
        result = scheduler.run_resilient(workload, seed=scenario.schedule_seed)
        if self.inject is not None:
            result = self.inject(result, workload)
        self._stamp(result, scenario.fingerprint())
        return result

    @staticmethod
    def _outcome_key(result) -> Tuple[Any, ...]:
        failure = result.failure
        return (
            repr(sorted(result.outputs.items())),
            None if failure is None else (failure.stage, failure.message),
            result.report.length_rounds,
        )

    # -- entry point --------------------------------------------------

    def check(self, scenario: Scenario) -> OracleReport:
        """Run every applicable check; return the collected divergences."""
        fingerprint = scenario.fingerprint()
        divergences: List[Divergence] = []
        checks = 0
        try:
            built = scenario.build()
        except Exception as exc:
            return OracleReport(
                scenario,
                (Divergence("build", fingerprint, repr(exc)),),
                1,
            )
        if built.faults is None or built.faults.is_null:
            checks += self._check_fault_free(scenario, built, divergences)
        else:
            checks += self._check_faulted(scenario, built, divergences)
        return OracleReport(scenario, tuple(divergences), checks)

    # -- fault-free path ----------------------------------------------

    def _check_fault_free(
        self,
        scenario: Scenario,
        built: BuiltScenario,
        divergences: List[Divergence],
    ) -> int:
        fingerprint = scenario.fingerprint()
        checks = 0
        results: Dict[Tuple[str, str], Any] = {}
        transports = scenario.transports
        for transport in transports:
            # No solo cache: it ignores the transport, so a shared one
            # would hand this leg the previous leg's solo runs.
            workload = Workload(
                built.network,
                list(built.algorithms),
                master_seed=scenario.master_seed,
                solo_cache=None,
                transport=transport,
            )
            for name in scenario.schedulers:
                checks += 1
                try:
                    result = self._run(name, workload, scenario)
                except Exception:
                    divergences.append(
                        Divergence(
                            "crash", fingerprint,
                            traceback.format_exc(limit=4),
                            scheduler=name, transport=transport,
                        )
                    )
                    continue
                results[(name, transport)] = result
                if result.failure is not None:
                    divergences.append(
                        Divergence(
                            "failure", fingerprint,
                            f"{result.failure.stage}: {result.failure.message}",
                            scheduler=name, transport=transport,
                        )
                    )
                    continue
                mismatches = verify_outputs(workload, result.outputs)
                if mismatches:
                    shown = "; ".join(str(m) for m in mismatches[:3])
                    divergences.append(
                        Divergence(
                            "outputs", fingerprint,
                            f"{len(mismatches)} outputs diverge from solo: "
                            f"{shown}",
                            scheduler=name, transport=transport,
                        )
                    )
                params = result.report.params
                if (
                    result.report.length_rounds < params.trivial_lower_bound
                    or params.num_algorithms != len(built.algorithms)
                ):
                    divergences.append(
                        Divergence(
                            "bounds", fingerprint,
                            f"length={result.report.length_rounds} vs "
                            f"max(C,D)={params.trivial_lower_bound}, "
                            f"k={params.num_algorithms}/"
                            f"{len(built.algorithms)}",
                            scheduler=name, transport=transport,
                        )
                    )
                if name == "sequential":
                    per = result.report.notes.get("per_algorithm_rounds")
                    if per is not None and sum(per) != result.report.length_rounds:
                        divergences.append(
                            Divergence(
                                "sequential-length", fingerprint,
                                f"length={result.report.length_rounds} != "
                                f"sum(solo)={sum(per)}",
                                scheduler=name, transport=transport,
                            )
                        )
        if len(transports) > 1:
            base = transports[0]
            for name in scenario.schedulers:
                for other in transports[1:]:
                    checks += 1
                    left = results.get((name, base))
                    right = results.get((name, other))
                    if left is None or right is None:
                        continue  # the crash/failure is already reported
                    if self._outcome_key(left) != self._outcome_key(right):
                        divergences.append(
                            Divergence(
                                "transport-identity", fingerprint,
                                f"{base} vs {other} disagree "
                                f"(outputs/failure/length)",
                                scheduler=name,
                                transport=f"{base}!={other}",
                            )
                        )
        if self.service:
            checks += self._check_service(scenario, built, divergences)
        return checks

    def _check_service(
        self,
        scenario: Scenario,
        built: BuiltScenario,
        divergences: List[Divergence],
    ) -> int:
        fingerprint = scenario.fingerprint()
        scheduler_name = next(
            (s for s in scenario.schedulers if s != "sequential"),
            scenario.schedulers[0],
        )
        spec = {"scenario": fingerprint}
        if self.fuzz_seed is not None:
            spec["fuzz_seed"] = self.fuzz_seed
        try:
            service = SchedulerService(
                scheduler=parse_scheduler(scheduler_name),
                schedule_seed=scenario.schedule_seed,
            )
            jobs = [
                service.submit(
                    built.network,
                    algorithm,
                    master_seed=scenario.master_seed,
                    spec=dict(spec),
                )
                for algorithm in built.algorithms
            ]
            service.drain()
            for algorithm, job in zip(built.algorithms, jobs):
                # Solo reference under the job's own tape id: randomized
                # algorithms draw their tapes keyed by (master_seed, id),
                # and the stable tape id is exactly what makes service
                # outputs batch-invariant.
                solo = Workload(
                    built.network, [algorithm],
                    master_seed=scenario.master_seed,
                    message_bits=job.message_bits,
                    algorithm_ids=[job.tape_id],
                ).reference_outputs()
                expected = {node: value for (_aid, node), value in solo.items()}
                if job.state.value != "done" or job.result is None:
                    divergences.append(
                        Divergence(
                            "service", fingerprint,
                            f"job {job.job_id} ended {job.state.value}: "
                            f"{job.reason or 'no reason'}",
                            scheduler=scheduler_name,
                        )
                    )
                elif job.result.outputs != expected:
                    divergences.append(
                        Divergence(
                            "service", fingerprint,
                            f"job {job.job_id} outputs differ from solo",
                            scheduler=scheduler_name,
                        )
                    )
            resubmit = service.submit(
                built.network,
                built.algorithms[0],
                master_seed=scenario.master_seed,
                spec=dict(spec),
            )
            if built.algorithms[0] in _fingerprintable(built) and not (
                resubmit.state.value == "done"
                and resubmit.result is not None
                and resubmit.result.from_registry
            ):
                divergences.append(
                    Divergence(
                        "service", fingerprint,
                        f"resubmission {resubmit.job_id} not served from "
                        f"the registry (state={resubmit.state.value})",
                        scheduler=scheduler_name,
                    )
                )
            service.shutdown()
        except Exception:
            divergences.append(
                Divergence(
                    "crash", fingerprint,
                    "service drain raised:\n"
                    + traceback.format_exc(limit=4),
                    scheduler=scheduler_name,
                )
            )
        return 1

    # -- faulted path -------------------------------------------------

    def _check_faulted(
        self,
        scenario: Scenario,
        built: BuiltScenario,
        divergences: List[Divergence],
    ) -> int:
        fingerprint = scenario.fingerprint()
        checks = 0
        params = Workload(
            built.network,
            list(built.algorithms),
            master_seed=scenario.master_seed,
        ).params()
        budget = 8 * params.cost_sum + 50
        for name in scenario.schedulers:
            checks += 1
            outcomes = []
            for _repeat in range(2):
                workload = Workload(
                    built.network,
                    list(built.algorithms),
                    master_seed=scenario.master_seed,
                )
                try:
                    result = self._run(
                        name, workload, scenario,
                        faults=built.faults, round_budget=budget,
                    )
                except Exception:
                    divergences.append(
                        Divergence(
                            "crash", fingerprint,
                            "faulted run raised instead of returning a "
                            "ScheduleFailure:\n"
                            + traceback.format_exc(limit=4),
                            scheduler=name,
                        )
                    )
                    break
                outcomes.append(self._outcome_key(result))
            if len(outcomes) == 2 and outcomes[0] != outcomes[1]:
                divergences.append(
                    Divergence(
                        "fault-determinism", fingerprint,
                        f"same plan, two runs, different outcomes "
                        f"({built.faults.describe()})",
                        scheduler=name,
                    )
                )
        # A plan with every fault feature off must be a perfect no-op.
        name = scenario.schedulers[0]
        checks += 1
        try:
            bare = self._run(
                name,
                Workload(
                    built.network, list(built.algorithms),
                    master_seed=scenario.master_seed,
                ),
                scenario,
            )
            nulled = self._run(
                name,
                Workload(
                    built.network, list(built.algorithms),
                    master_seed=scenario.master_seed,
                ),
                scenario,
                faults=FaultPlan(seed=built.faults.seed),
            )
            if self._outcome_key(bare) != self._outcome_key(nulled):
                divergences.append(
                    Divergence(
                        "null-plan-identity", fingerprint,
                        "an all-zero fault plan changed the outcome",
                        scheduler=name,
                    )
                )
        except Exception:
            divergences.append(
                Divergence(
                    "crash", fingerprint,
                    traceback.format_exc(limit=4),
                    scheduler=name,
                )
            )
        return checks


def _fingerprintable(built: BuiltScenario):
    from ..service.jobs import job_fingerprint

    return [
        algorithm
        for algorithm in built.algorithms
        if job_fingerprint(built.network, algorithm) is not None
    ]
