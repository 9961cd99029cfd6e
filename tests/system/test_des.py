"""Unit tests for the discrete-event simulation core."""

from __future__ import annotations

import pytest

from repro.system import Simulator


class TestEventQueue:
    """The calendar's firing order: by time, then by scheduling order."""

    def test_time_ordering(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda s: order.append("b"))
        sim.schedule(1.0, lambda s: order.append("a"))
        sim.schedule_at(3.0, lambda s: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_fifo_tiebreak_for_simultaneous_events(self):
        sim = Simulator()
        order = []
        for k in range(5):
            sim.schedule(1.0, lambda s, k=k: order.append(k))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_event_scheduled_now_fires_after_pending_simultaneous_ones(self):
        # A handler scheduling at the current time queues behind the
        # events already due at that time, never ahead of them.
        sim = Simulator()
        order = []

        def first(s: Simulator) -> None:
            order.append("first")
            s.schedule(0.0, lambda s2: order.append("scheduled-now"))
            s.schedule_at(s.now, lambda s2: order.append("scheduled-at-now"))

        sim.schedule(1.0, first)
        sim.schedule(1.0, lambda s: order.append("second"))
        sim.schedule(2.0, lambda s: order.append("later"))
        sim.run()
        assert order == [
            "first", "second", "scheduled-now", "scheduled-at-now", "later"
        ]


class TestSimulator:
    def test_clock_advances_with_events(self):
        sim = Simulator()
        times = []
        sim.schedule(1.5, lambda s: times.append(s.now))
        sim.schedule(0.5, lambda s: times.append(s.now))
        sim.run()
        assert times == [0.5, 1.5]
        assert sim.now == 1.5

    def test_handlers_can_schedule_more_events(self):
        sim = Simulator()
        fired = []

        def first(s: Simulator) -> None:
            fired.append(("first", s.now))
            s.schedule(2.0, lambda s2: fired.append(("second", s2.now)))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == [("first", 1.0), ("second", 3.0)]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda s: None)

    def test_schedule_at_in_the_past_rejected(self):
        sim = Simulator()
        sim.schedule(2.0, lambda s: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda s: None)
        assert sim.pending() == 0

    def test_pending_count(self):
        sim = Simulator()
        assert sim.pending() == 0
        sim.schedule(1.0, lambda s: None)
        sim.schedule(2.0, lambda s: None)
        assert sim.pending() == 2
        seen = []
        sim.schedule(1.5, lambda s: seen.append(s.pending()))
        sim.run()
        assert seen == [1]  # the 2.0 event is still due
        assert sim.pending() == 0

    def test_deterministic_large_run(self):
        # A chain of self-scheduling events: stable order and timing.
        sim = Simulator()
        count = 0

        def tick(s: Simulator) -> None:
            nonlocal count
            count += 1
            if count < 1000:
                s.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        assert count == 1000
        assert sim.now == pytest.approx(0.999)
