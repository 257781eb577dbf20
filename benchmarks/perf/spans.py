"""In-memory spans recorded by the benchmark around calls into each layer.

The program under test is not instrumented: the traced pass of a
workload calls each layer's public functions itself and wraps every call
in :meth:`SpanRecorder.span`. A span keeps its name, start, end, the
span that was open when it started (its parent) and the id of the rep it
belongs to. Spans stay in memory until :meth:`SpanRecorder.write_jsonl`
is called at exit, so recording costs two clock reads and one list
append per span.

A span's *self time* is its duration minus the part of it covered by its
direct children; the self time of a rep's root span is the share of the
traced region that no named layer accounts for.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional

__all__ = ["Span", "SpanRecorder"]


class Span:
    """One recorded interval; also the context manager that closes it."""

    __slots__ = ("name", "start", "end", "parent", "rep", "index", "_recorder")

    def __init__(self, recorder: "SpanRecorder", name: str, parent: Optional[int]):
        self.name = name
        self.parent = parent
        self.rep = recorder.rep
        self.index = -1  # position in ``recorder.spans`` once entered
        self.start = 0.0
        self.end = 0.0
        self._recorder = recorder

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __enter__(self) -> "Span":
        recorder = self._recorder
        self.index = len(recorder.spans)
        recorder._stack.append(self.index)
        recorder.spans.append(self)
        self.start = recorder.clock()
        return self

    def __exit__(self, *exc) -> bool:
        recorder = self._recorder
        self.end = recorder.clock()
        recorder._stack.pop()
        return False


class SpanRecorder:
    """Records nested spans; ``rep`` tags every span opened after it is set."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.rep = 0
        self._stack: List[int] = []

    def span(self, name: str) -> Span:
        """A context manager recording one span under the open span."""
        parent = self._stack[-1] if self._stack else None
        return Span(self, name, parent)

    def self_times(self) -> List[float]:
        """Per span (by index): duration minus its direct children's."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def totals(self, rep: int) -> Dict[str, float]:
        """Summed duration per span name over one rep."""
        sums: Dict[str, float] = {}
        for span in self.spans:
            if span.rep == rep:
                sums[span.name] = sums.get(span.name, 0.0) + span.duration
        return sums

    def write_jsonl(self, path) -> None:
        """One JSON object per span: name, start, end, parent, rep, self."""
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span.index,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "rep": span.rep,
                            "self": own[span.index],
                        }
                    )
                    + "\n"
                )
