"""Mass scenario fuzzing through the service (ROADMAP item 5).

A seeded generator mass-produces (topology, algorithm mix, fault plan,
scheduler, transport, seeds) scenarios expressed in the service spec
language; a differential oracle runs each one every which way — solo,
scheduled, both transports, through the sharded service — and
cross-checks the outcomes; a shrinker minimizes any divergence to a
tiny reproducer; a corpus replays found reproducers as regression
tests. ``python -m repro fuzz`` drives the pipeline; docs/FUZZING.md
has the workflow.
"""

from .. import _lazy

__all__ = [
    "ALGORITHM_FAMILIES",
    "BuiltScenario",
    "Corpus",
    "CorpusEntry",
    "DifferentialOracle",
    "Divergence",
    "INJECT_ENV",
    "OracleReport",
    "Scenario",
    "ScenarioGenerator",
    "ShrinkResult",
    "Shrinker",
    "TOPOLOGY_KINDS",
    "from_env",
    "injector",
]

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        "Corpus": "corpus",
        "CorpusEntry": "corpus",
        "INJECT_ENV": "inject",
        "from_env": "inject",
        "injector": "inject",
        "DifferentialOracle": "oracle",
        "Divergence": "oracle",
        "OracleReport": "oracle",
        "ALGORITHM_FAMILIES": "scenario",
        "TOPOLOGY_KINDS": "scenario",
        "BuiltScenario": "scenario",
        "Scenario": "scenario",
        "ScenarioGenerator": "scenario",
        "Shrinker": "shrink",
        "ShrinkResult": "shrink",
    },
)
