"""Distributed MST algorithms: the paper's Section 5 k-shot case study."""

from ... import _lazy

__all__ = [
    "BoruvkaMST",
    "FragmentProgram",
    "TradeoffMST",
    "chain_budgets",
    "incident_mst_edges",
    "kruskal_mst",
    "phase_schedule",
    "random_weights",
    "star_budgets",
]

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        "BoruvkaMST": "boruvka",
        "FragmentProgram": "fragments",
        "chain_budgets": "fragments",
        "phase_schedule": "fragments",
        "star_budgets": "fragments",
        "TradeoffMST": "tradeoff",
        "incident_mst_edges": "weights",
        "kruskal_mst": "weights",
        "random_weights": "weights",
    },
)
