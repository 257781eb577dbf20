"""Scheduling metrics: congestion, dilation, and schedule reports."""

from .. import _lazy

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

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        "WorkloadParams": "congestion",
        "edge_congestion_profile": "congestion",
        "measure_params": "congestion",
        "measure_params_from_patterns": "congestion",
        "design_objective": "objective",
        "pick_best_parameter": "objective",
        "score_solo_run": "objective",
        "CongestionProfile": "profile",
        "profile_patterns": "profile",
        "PhaseTimeline": "schedule",
        "ScheduleReport": "schedule",
        "phase_schedule_length": "schedule",
    },
)
