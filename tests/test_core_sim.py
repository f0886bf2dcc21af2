"""Tests for the discrete-event kernel."""

import pytest

from repro.sim.core import EventScheduler


class TestEventScheduler:
    def test_fires_in_time_order(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(2.0, lambda: fired.append("late"))
        sched.schedule(1.0, lambda: fired.append("early"))
        sched.run(until=3.0)
        assert fired == ["early", "late"]

    def test_ties_fire_in_insertion_order(self):
        sched = EventScheduler()
        fired = []
        for name in ("a", "b", "c"):
            sched.schedule(1.0, lambda n=name: fired.append(n))
        sched.run(until=2.0)
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_times(self):
        sched = EventScheduler()
        seen = []
        sched.schedule(0.5, lambda: seen.append(sched.now))
        sched.run(until=1.0)
        assert seen == [0.5]
        assert sched.now == 1.0

    def test_events_can_schedule_events(self):
        sched = EventScheduler()
        fired = []

        def recurring():
            fired.append(sched.now)
            if len(fired) < 3:
                sched.schedule(1.0, recurring)

        sched.schedule(1.0, recurring)
        sched.run(until=10.0)
        assert fired == [1.0, 2.0, 3.0]

    def test_events_beyond_horizon_not_fired(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(5.0, lambda: fired.append("x"))
        sched.run(until=4.0)
        assert fired == []
        sched.run(until=6.0)
        assert fired == ["x"]

    def test_event_at_horizon_fires(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(2.0, lambda: fired.append("x"))
        sched.run(until=2.0)
        assert fired == ["x"]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventScheduler().schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        sched = EventScheduler()
        sched.schedule(1.0, lambda: sched.schedule_at(0.5, lambda: None))
        with pytest.raises(ValueError, match="past"):
            sched.run(until=2.0)

    def test_run_backwards_rejected(self):
        sched = EventScheduler()
        sched.run(until=5.0)
        with pytest.raises(ValueError):
            sched.run(until=4.0)
