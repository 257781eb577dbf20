"""Round-level telemetry: spans, metrics, and trace exporters.

The paper's concluding remarks argue that congestion must be tracked
*alongside* dilation — message complexity alone "does not characterize
the related congestion". This package gives every run the machinery to
see where rounds, messages, and wall-clock time actually go:

* :class:`Recorder` — the interface; :data:`NULL_RECORDER` (the default
  everywhere) records nothing at zero cost, :class:`InMemoryRecorder`
  collects spans, events, per-round samples, and metrics;
* :class:`MetricsRegistry` — counters / gauges / histograms with a
  JSON-friendly snapshot, merged into
  :class:`~repro.metrics.schedule.ScheduleReport` when recording;
* exporters — Chrome ``trace_event`` JSON (open in ``chrome://tracing``
  or Perfetto), JSONL, and an aligned text summary.

See ``docs/OBSERVABILITY.md`` for the full guide, or try::

    python -m repro trace quickstart --out trace.json
"""

from .. import _lazy

__all__ = [
    "EventRecord",
    "HistogramStats",
    "InMemoryRecorder",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "SpanRecord",
    "chrome_trace",
    "jsonl_records",
    "load_trace_spans",
    "profile_recorder",
    "profile_spans",
    "profile_table",
    "prometheus_text",
    "report_profile",
    "summary_table",
    "write_chrome_trace",
    "write_jsonl",
]

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        "chrome_trace": "export",
        "jsonl_records": "export",
        "summary_table": "export",
        "write_chrome_trace": "export",
        "write_jsonl": "export",
        "HistogramStats": "metrics",
        "MetricsRegistry": "metrics",
        "load_trace_spans": "profile",
        "profile_recorder": "profile",
        "profile_spans": "profile",
        "profile_table": "profile",
        "report_profile": "profile",
        "prometheus_text": "prometheus",
        "NULL_RECORDER": "recorder",
        "EventRecord": "recorder",
        "InMemoryRecorder": "recorder",
        "NullRecorder": "recorder",
        "Recorder": "recorder",
        "SpanRecord": "recorder",
    },
)
