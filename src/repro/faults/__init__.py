"""Seeded fault injection and resilient execution (the chaos layer).

The paper's schedules are probabilistic objects whose guarantees should
degrade gracefully under perturbation; this package makes perturbation a
first-class, exactly reproducible workload:

* :class:`FaultPlan` — declarative, seeded fault models: per-edge message
  drop / duplication / extra delay, transient edge outages, and node
  crash-stop.
* :class:`FaultInjector` / :class:`NullInjector` / :class:`SeededInjector`
  — the engine-facing interface, mirroring telemetry's
  ``Recorder``/``NullRecorder`` split: the default
  :data:`NULL_INJECTOR` is zero-overhead and keeps every fault-free run
  bit-identical to pre-chaos behaviour; the seeded injector's decisions
  are a pure function of ``(plan seed, stream, tick, sender, receiver)``.
* :class:`ResilientAlgorithm` / :func:`wrap_workload` — an ACK-based
  retransmission transport with bounded retries and exponential backoff
  that makes any black-box algorithm tolerate bounded message loss while
  staying a legal CONGEST algorithm.
* :func:`crash_point` / :class:`InjectedCrash`
  (:mod:`repro.faults.crashpoints`) — named process-death injection
  points, armed in-process or via ``REPRO_CRASH_POINT``, which the
  scheduling service threads through its write-ahead-journal critical
  sections so crash recovery is testable at every point.

See ``docs/ROBUSTNESS.md`` for the fault-model semantics and
``python -m repro chaos`` for the survival-curve CLI.
"""

from .. import _lazy

__all__ = [
    "EdgeOutage",
    "FaultInjector",
    "FaultPlan",
    "InjectedCrash",
    "NULL_INJECTOR",
    "NodeCrash",
    "NullInjector",
    "ResilientAlgorithm",
    "SeededInjector",
    "arm",
    "armed",
    "crash_point",
    "disarm",
    "window_rounds",
    "wrap_workload",
]

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        "InjectedCrash": "crashpoints",
        "arm": "crashpoints",
        "armed": "crashpoints",
        "crash_point": "crashpoints",
        "disarm": "crashpoints",
        "NULL_INJECTOR": "injector",
        "FaultInjector": "injector",
        "NullInjector": "injector",
        "SeededInjector": "injector",
        "EdgeOutage": "plan",
        "FaultPlan": "plan",
        "NodeCrash": "plan",
        "ResilientAlgorithm": "retransmit",
        "window_rounds": "retransmit",
        "wrap_workload": "retransmit",
    },
)
