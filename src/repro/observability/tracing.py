"""Span-based tracing: where does a supervised round spend its time?

A *span* is a named, timed section of work; spans nest (a
``supervisor.round`` span contains ``supervisor.bidding``,
``supervisor.execution``, ... children), carry static ``attributes``
set at creation, and collect timestamped ``annotations`` appended while
they are open (the chaos harness logs every injected fault this way).

The :class:`Tracer` keeps one stack of open spans (the DES substrate is
single-threaded) and a bounded list of finished ones.  Finished spans
export as JSON Lines — one object per line, self-contained, streamable —
with the schema documented in DESIGN.md §8:

.. code-block:: json

    {"name": "supervisor.round", "span_id": 7, "parent_id": null,
     "start": 0.1031, "end": 0.1192, "duration": 0.0161,
     "attributes": {"index": 3},
     "annotations": [{"at": 0.1033, "message": "fault.injected",
                      "machine": "C2", "kind": "crash"}]}

Timestamps come from an injectable ``clock`` (default
:func:`time.perf_counter`) so tests can drive spans with a fake clock
and assert exact durations.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, IO

from repro.observability.metrics import sorted_quantile

__all__ = ["SpanRecord", "Tracer"]


@dataclass
class SpanRecord:
    """One (possibly still open) span."""

    name: str
    span_id: int
    parent_id: int | None
    start: float
    end: float | None = None
    attributes: dict[str, object] = field(default_factory=dict)
    annotations: list[dict[str, object]] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Elapsed seconds (``nan`` while the span is still open)."""
        return math.nan if self.end is None else self.end - self.start

    def annotate(self, message: str, at: float, **attrs: object) -> None:
        """Append a timestamped event to this span."""
        self.annotations.append({"at": at, "message": message, **attrs})

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form (one JSONL line)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": None if self.end is None else self.duration,
            "attributes": self.attributes,
            "annotations": self.annotations,
        }


class _SpanContext:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_record")

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self._record = record

    def __enter__(self) -> SpanRecord:
        return self._record

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._record.attributes.setdefault("error", exc_type.__name__)
        self._tracer._finish(self._record)


class Tracer:
    """Collects nested spans; exports them as JSON Lines.

    Parameters
    ----------
    clock:
        Monotonic time source; injectable for tests.
    max_spans:
        Bound on retained finished spans.  Past it new spans are still
        timed (their metrics side-effects happen) but not retained;
        ``dropped`` counts them, so a truncated export is detectable.

    Examples
    --------
    >>> ticks = iter(range(100))
    >>> tracer = Tracer(clock=lambda: float(next(ticks)))
    >>> with tracer.span("round", index=0):
    ...     with tracer.span("bidding"):
    ...         _ = tracer.annotate("retry", machine="C2")
    >>> [s.name for s in tracer.finished]
    ['bidding', 'round']
    >>> tracer.finished[0].parent_id, tracer.finished[1].parent_id
    (1, None)
    >>> tracer.finished[1].duration  # ticks 0..4: starts, annotate, ends
    4.0
    """

    def __init__(
        self,
        *,
        clock: Callable[[], float] = time.perf_counter,
        max_spans: int = 100_000,
    ) -> None:
        if max_spans < 1:
            raise ValueError("max_spans must be at least 1")
        self.clock = clock
        self.max_spans = int(max_spans)
        self.finished: list[SpanRecord] = []
        self.dropped = 0
        self._stack: list[SpanRecord] = []
        self._next_id = 1

    # ------------------------------------------------------------ recording

    def span(self, name: str, **attributes: object) -> _SpanContext:
        """Open a span as a context manager; nests under any open span."""
        record = SpanRecord(
            name=name,
            span_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            start=self.clock(),
            attributes=dict(attributes),
        )
        self._next_id += 1
        self._stack.append(record)
        return _SpanContext(self, record)

    def annotate(self, message: str, **attrs: object) -> bool:
        """Attach an event to the innermost open span.

        Returns ``False`` (and records nothing) when no span is open —
        callers need not care whether tracing context exists.
        """
        if not self._stack:
            return False
        self._stack[-1].annotate(message, at=self.clock(), **attrs)
        return True

    @property
    def current(self) -> SpanRecord | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def _finish(self, record: SpanRecord) -> None:
        record.end = self.clock()
        # Close out-of-order finishes defensively: pop through the record.
        while self._stack:
            top = self._stack.pop()
            if top is record:
                break
        if len(self.finished) < self.max_spans:
            self.finished.append(record)
        else:
            self.dropped += 1

    # ------------------------------------------------------------ queries

    def durations_by_name(self) -> dict[str, list[float]]:
        """Finished-span durations grouped by span name."""
        grouped: dict[str, list[float]] = {}
        for record in self.finished:
            grouped.setdefault(record.name, []).append(record.duration)
        return grouped

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-name aggregates: count, total, mean, p50/p95/p99, max.

        Computed exactly over all finished spans (span counts are small
        compared to per-job observations, so no reservoir is needed).
        """
        result: dict[str, dict[str, float]] = {}
        for name, durations in sorted(self.durations_by_name().items()):
            ordered = sorted(durations)
            result[name] = {
                "count": len(ordered),
                "total": sum(ordered),
                "mean": sum(ordered) / len(ordered),
                "p50": sorted_quantile(ordered, 0.50),
                "p95": sorted_quantile(ordered, 0.95),
                "p99": sorted_quantile(ordered, 0.99),
                "max": ordered[-1],
            }
        return result

    # ------------------------------------------------------------ export

    def dumps_jsonl(self) -> str:
        """Finished spans as JSON Lines (one span object per line)."""
        return "\n".join(json.dumps(s.to_dict(), sort_keys=True) for s in self.finished)

    def export_jsonl(self, destination: str | IO[str]) -> int:
        """Write the JSONL export to a path or open file; returns #spans."""
        payload = self.dumps_jsonl()
        if payload:
            payload += "\n"
        if hasattr(destination, "write"):
            destination.write(payload)
        else:
            with open(destination, "w", encoding="utf-8") as handle:
                handle.write(payload)
        return len(self.finished)
