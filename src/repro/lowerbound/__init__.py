"""Hard instances and analysis for the Theorem 3.1 lower bound."""

from .. import _lazy

__all__ = [
    "CrossingPattern",
    "CrossingSearchResult",
    "EmpiricalScheduleResult",
    "HardInstance",
    "average_layer_phase_load",
    "certified_min_phases",
    "crossing_from_delays",
    "edge_overload_probability",
    "empirical_min_schedule",
    "heaviest_layer_phase",
    "layer_overload_probability",
    "log_crossing_pattern_count",
    "lower_bound_formula",
    "paper_parameters",
    "sample_hard_instance",
    "search_crossing_patterns",
]

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        "EmpiricalScheduleResult": "analysis",
        "average_layer_phase_load": "analysis",
        "edge_overload_probability": "analysis",
        "empirical_min_schedule": "analysis",
        "layer_overload_probability": "analysis",
        "log_crossing_pattern_count": "analysis",
        "lower_bound_formula": "analysis",
        "CrossingPattern": "crossing",
        "crossing_from_delays": "crossing",
        "heaviest_layer_phase": "crossing",
        "CrossingSearchResult": "exhaustive",
        "certified_min_phases": "exhaustive",
        "search_crossing_patterns": "exhaustive",
        "HardInstance": "hard_instance",
        "paper_parameters": "hard_instance",
        "sample_hard_instance": "hard_instance",
    },
)
