"""Recorders: where runs report what they are doing, and how long it takes.

Two implementations of one small interface:

* :class:`NullRecorder` — the default everywhere. Every method is a
  no-op and ``enabled`` is ``False``, so instrumented code can guard its
  per-round bookkeeping with ``if recorder.enabled:`` and pay nothing on
  the hot path (the E15 micro-benchmark asserts this stays under 2%).
* :class:`InMemoryRecorder` — collects **spans** (named wall-clock
  intervals via :func:`time.perf_counter`), **events** (instants),
  timestamped counter **samples** (per-round series), and a
  :class:`~repro.telemetry.metrics.MetricsRegistry` of counters, gauges
  and histograms. Exporters in :mod:`repro.telemetry.export` turn the
  collected data into Chrome ``trace_event`` JSON, JSONL, or a table.

Recorders never touch any random number generator, so attaching one to a
scheduler cannot change outputs, delays, or reports — only observe them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter, time
from typing import Any, Dict, List, Tuple

from .metrics import MetricsRegistry

__all__ = [
    "EventRecord",
    "InMemoryRecorder",
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "SampleRecord",
    "SpanRecord",
]


@dataclass
class SpanRecord:
    """One completed named interval."""

    name: str
    category: str
    start: float
    end: float
    depth: int
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Wall-clock seconds spent inside the span."""
        return self.end - self.start


@dataclass(frozen=True)
class EventRecord:
    """One instant event."""

    name: str
    ts: float
    attrs: Dict[str, Any]


#: One timestamped counter sample: ``(name, ts, value)``.
SampleRecord = Tuple[str, float, float]


class _NullSpan:
    """Reusable no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Recorder:
    """The recording interface (also usable as a base class).

    Subclasses override what they care about; the base implementation is
    a no-op for every method, which is exactly what
    :class:`NullRecorder` needs.
    """

    #: Hot loops guard per-iteration recording on this flag.
    enabled: bool = False

    def span(self, name: str, category: str = "phase", **attrs: Any):
        """Context manager timing a named interval."""
        return _NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        """Record an instant event."""

    def counter(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to a monotonic counter."""

    def gauge(self, name: str, value: float) -> None:
        """Set a gauge to its latest value."""

    def observe(self, name: str, value: float) -> None:
        """Feed one observation into a histogram."""

    def sample(self, name: str, value: float) -> None:
        """Record a timestamped sample of a time series (per-round data)."""

    def snapshot(self) -> Dict[str, Any]:
        """Dict snapshot of the metrics registry (empty when disabled)."""
        return {}


class NullRecorder(Recorder):
    """The zero-overhead default recorder: records nothing."""

    __slots__ = ()


#: Shared default instance; safe because it is stateless.
NULL_RECORDER = NullRecorder()


class _Span:
    """Context manager produced by :meth:`InMemoryRecorder.span`."""

    __slots__ = ("_recorder", "_name", "_category", "_attrs", "_start")

    def __init__(
        self,
        recorder: "InMemoryRecorder",
        name: str,
        category: str,
        attrs: Dict[str, Any],
    ):
        self._recorder = recorder
        self._name = name
        self._category = category
        self._attrs = attrs

    def __enter__(self) -> "_Span":
        self._recorder._depth += 1
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = perf_counter()
        recorder = self._recorder
        recorder._depth -= 1
        if exc_type is not None:
            self._attrs.setdefault("error", exc_type.__name__)
        recorder.spans.append(
            SpanRecord(
                name=self._name,
                category=self._category,
                start=self._start,
                end=end,
                depth=recorder._depth,
                attrs=self._attrs,
            )
        )
        return False

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the span while it is open."""
        self._attrs.update(attrs)


class InMemoryRecorder(Recorder):
    """Collects spans, events, samples, and metrics in process memory."""

    enabled = True

    def __init__(self) -> None:
        #: ``perf_counter()`` at creation — the zero point of every
        #: relative timestamp this recorder hands to exporters.
        self.origin = perf_counter()
        #: Wall-clock (``time.time()``) captured at the same instant as
        #: :attr:`origin`, so traces recorded by different processes
        #: (parallel drain workers) can be aligned on one timeline:
        #: ``wall = wall_origin + relative(ts)``.
        self.wall_origin = time()
        self.spans: List[SpanRecord] = []
        self.events: List[EventRecord] = []
        self.samples: List[SampleRecord] = []
        self.metrics = MetricsRegistry()
        self._depth = 0

    # -- recording -----------------------------------------------------

    def span(self, name: str, category: str = "phase", **attrs: Any) -> _Span:
        """Open a timed span; record it when the context manager exits."""
        return _Span(self, name, category, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Record an instant event at the current time."""
        self.events.append(EventRecord(name, perf_counter(), attrs))

    def counter(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to a monotonic counter."""
        self.metrics.counter_add(name, value)

    def gauge(self, name: str, value: float) -> None:
        """Set a gauge to its latest value."""
        self.metrics.gauge_set(name, value)

    def observe(self, name: str, value: float) -> None:
        """Feed one observation into a histogram."""
        self.metrics.observe(name, value)

    def sample(self, name: str, value: float) -> None:
        """Record a timestamped sample of a time series."""
        self.samples.append((name, perf_counter(), value))

    def snapshot(self) -> Dict[str, Any]:
        """Dict snapshot of the metrics registry."""
        return self.metrics.snapshot()

    # -- queries -------------------------------------------------------

    def spans_named(self, name: str) -> List[SpanRecord]:
        """All completed spans with the given name."""
        return [s for s in self.spans if s.name == name]

    def total_seconds(self, name: str) -> float:
        """Summed duration of all spans with the given name."""
        return sum(s.duration for s in self.spans_named(name))

    def relative(self, ts: float) -> float:
        """A timestamp shifted so the recorder's creation is 0."""
        return ts - self.origin

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InMemoryRecorder(spans={len(self.spans)}, "
            f"events={len(self.events)}, samples={len(self.samples)})"
        )
