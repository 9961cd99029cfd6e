"""Minimal discrete-event simulation core.

A classic event-calendar design: a priority queue of timestamped
handlers, a clock that jumps from event to event, and handlers that may
schedule further events.  Deliberately small — just enough to run the
machine processes and the mechanism protocol.  Events fire in time
order, and simultaneous events in the order they were scheduled
(stable FIFO tie-breaking); a run goes on until the calendar is empty.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

__all__ = ["Simulator"]


class Simulator:
    """A discrete-event simulator with a monotone clock.

    The calendar is one heap of ``(time, seq, handler)`` tuples; the
    sequence number breaks ties between simultaneous events in
    scheduling order, so handlers are never compared.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[["Simulator"], None]]] = []
        self._seq = itertools.count()
        self.now: float = 0.0

    def schedule(self, delay: float, handler: Callable[["Simulator"], None]) -> None:
        """Schedule ``handler`` to run ``delay`` seconds from now."""
        if delay < 0.0:
            raise ValueError(f"delay must be non-negative, got {delay:g}")
        heapq.heappush(self._heap, (self.now + delay, next(self._seq), handler))

    def schedule_at(self, time: float, handler: Callable[["Simulator"], None]) -> None:
        """Schedule ``handler`` at absolute ``time`` (>= the current clock)."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at {time:g}, before the current time {self.now:g}"
            )
        heapq.heappush(self._heap, (time, next(self._seq), handler))

    def run(self) -> None:
        """Process events in time order until none is left."""
        heap = self._heap
        pop = heapq.heappop
        while heap:
            self.now, _, handler = pop(heap)
            handler(self)

    def pending(self) -> int:
        """Number of scheduled events not yet fired."""
        return len(self._heap)
