"""Parallel execution and solo-run caching for experiment sweeps.

Two cooperating pieces (see ``docs/PERFORMANCE.md``):

* :class:`~repro.parallel.runner.ParallelRunner` — an ordered
  process-pool map (``workers=N`` / ``REPRO_WORKERS``) whose results are
  bit-identical to the serial loop, because every sweep cell derives all
  randomness from explicit seeds;
* :class:`~repro.parallel.cache.SoloRunCache` — a content-addressed
  cache of solo reference runs keyed by ``(network fingerprint,
  algorithm fingerprint, algorithm id, seed, message_bits)``, held in
  memory.

:func:`~repro.parallel.cache.default_cache` supplies the process-wide
cache every :class:`~repro.core.workload.Workload` consults unless told
otherwise; ``REPRO_SOLO_CACHE=0`` switches it off.
"""

from .. import _lazy

__all__ = [
    "CACHE_ENV",
    "ParallelRunner",
    "SoloRunCache",
    "WORKERS_ENV",
    "algorithm_fingerprint",
    "default_cache",
    "network_fingerprint",
    "reset_default_cache",
    "resolve_workers",
    "set_default_cache",
]

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        "CACHE_ENV": "cache",
        "SoloRunCache": "cache",
        "algorithm_fingerprint": "cache",
        "default_cache": "cache",
        "network_fingerprint": "cache",
        "reset_default_cache": "cache",
        "set_default_cache": "cache",
        "WORKERS_ENV": "runner",
        "ParallelRunner": "runner",
        "resolve_workers": "runner",
    },
)
