"""Appendix A: removing shared randomness from Bellagio algorithms."""

from .. import _lazy

__all__ = [
    "BellagioResult",
    "DistinctElements",
    "NewmanPipelineResult",
    "reduce_seed_space_and_run",
    "run_with_private_randomness",
    "true_distinct_counts",
]

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        "DistinctElements": "distinct_elements",
        "true_distinct_counts": "distinct_elements",
        "BellagioResult": "harness",
        "run_with_private_randomness": "harness",
        "NewmanPipelineResult": "newman_pipeline",
        "reduce_seed_space_and_run": "newman_pipeline",
    },
)
