"""Scheduling metrics: congestion, dilation, and schedule reports."""

from .congestion import (
    WorkloadParams,
    edge_congestion_profile,
    measure_params,
    measure_params_from_patterns,
)
from .objective import design_objective, pick_best_parameter, score_solo_run
from .profile import CongestionProfile, profile_patterns
from .schedule import PhaseTimeline, ScheduleReport, phase_schedule_length

__all__ = [
    "CongestionProfile",
    "PhaseTimeline",
    "ScheduleReport",
    "WorkloadParams",
    "design_objective",
    "edge_congestion_profile",
    "measure_params",
    "measure_params_from_patterns",
    "phase_schedule_length",
    "pick_best_parameter",
    "profile_patterns",
    "score_solo_run",
]
