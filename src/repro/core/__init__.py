"""Schedulers for the Distributed Algorithm Scheduling problem.

This package holds the paper's primary contribution: algorithms that take
a workload of ``k`` black-box distributed algorithms and produce one
concurrent execution whose length is near the trivial
``max(congestion, dilation)`` lower bound, plus the baselines they are
measured against.
"""

from .artifact import ScheduleArtifact, capture_delay_schedule
from .base import (
    Mismatch,
    ScheduleFailure,
    ScheduleResult,
    Scheduler,
    verify_outputs,
)
from .cluster_delays import ClusterDelaySampler
from .cluster_engine import (
    ClusterExecution,
    run_cluster_copies,
    select_output_layers,
)
from .delays import (
    execute_with_delays,
    phase_size_log,
    phase_size_log_over_loglog,
)
from .doubling import DoublingScheduler
from .eager import EagerScheduler
from .exact import ExactSchedule, exact_makespan
from .greedy import GreedyPatternScheduler, greedy_schedule
from .lll_routing import LLLDelays, find_lll_delays, lll_route
from .pattern_schedule import PatternLoadReport, evaluate_delay_schedule
from .phase_engine import PhaseExecution, run_delayed_phases
from .physical import PhysicalSchedule, materialize_phase_schedule
from .private import PrivateScheduler
from .random_delay import RandomDelayScheduler
from .round_robin import RoundRobinScheduler
from .sequential import SequentialScheduler
from .sparse_phase import SparsePhaseScheduler
from .transport import (
    REFERENCE_TRANSPORT,
    Transport,
    resolve_transport,
)
from .workload import OutputMap, Workload

__all__ = [
    "ClusterDelaySampler",
    "ClusterExecution",
    "DoublingScheduler",
    "EagerScheduler",
    "ExactSchedule",
    "GreedyPatternScheduler",
    "LLLDelays",
    "Mismatch",
    "OutputMap",
    "PatternLoadReport",
    "PhaseExecution",
    "PhysicalSchedule",
    "PrivateScheduler",
    "RandomDelayScheduler",
    "RoundRobinScheduler",
    "ScheduleArtifact",
    "ScheduleFailure",
    "REFERENCE_TRANSPORT",
    "ScheduleResult",
    "Scheduler",
    "SequentialScheduler",
    "SparsePhaseScheduler",
    "Transport",
    "Workload",
    "resolve_transport",
    "capture_delay_schedule",
    "evaluate_delay_schedule",
    "exact_makespan",
    "execute_with_delays",
    "find_lll_delays",
    "lll_route",
    "materialize_phase_schedule",
    "greedy_schedule",
    "phase_size_log",
    "phase_size_log_over_loglog",
    "run_cluster_copies",
    "run_delayed_phases",
    "select_output_layers",
    "verify_outputs",
]
