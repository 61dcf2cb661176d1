"""Tests for the discrete-event kernel."""

import pytest

from repro.engine.clock import SimClock
from repro.engine.kernel import Engine, Event


class ListSource:
    def __init__(self, events):
        self._events = list(events)

    def events(self):
        return iter(self._events)


class TestOrdering:
    def test_time_orders_dispatch(self):
        engine = Engine()
        seen = []
        engine.subscribe("a", seen.append)
        engine.schedule(2.0, "a", "late")
        engine.schedule(1.0, "a", "early")
        engine.run()
        assert [e.payload for e in seen] == ["early", "late"]

    def test_priority_breaks_time_ties(self):
        engine = Engine()
        seen = []
        engine.subscribe("a", seen.append)
        engine.schedule(1.0, "a", "second", priority=1)
        engine.schedule(1.0, "a", "first", priority=0)
        engine.run()
        assert [e.payload for e in seen] == ["first", "second"]

    def test_insertion_order_breaks_remaining_ties(self):
        engine = Engine()
        seen = []
        engine.subscribe("a", seen.append)
        for i in range(5):
            engine.schedule(1.0, "a", i)
        engine.run()
        assert [e.payload for e in seen] == [0, 1, 2, 3, 4]

    def test_interleaves_sources_with_scheduled_events(self):
        engine = Engine()
        seen = []
        engine.subscribe("s", seen.append)
        engine.subscribe("q", seen.append)
        engine.add_source(
            ListSource([Event(1.0, "s", "s1"), Event(3.0, "s", "s2")])
        )
        engine.schedule(2.0, "q", "q1")
        engine.run()
        assert [e.payload for e in seen] == ["s1", "q1", "s2"]

    def test_source_going_backwards_is_an_error(self):
        engine = Engine()
        engine.add_source(
            ListSource([Event(5.0, "s"), Event(1.0, "s")])
        )
        with pytest.raises(ValueError, match="backwards in time"):
            engine.run()


class TestClock:
    def test_clock_advances_to_event_times(self):
        engine = Engine()
        engine.subscribe("a", lambda e: None)
        engine.schedule(7.5, "a")
        engine.run()
        assert engine.clock.now_s == 7.5

    def test_handler_advancing_clock_does_not_rewind(self):
        # hardware models own their elapsed time: a handler may push the
        # clock past later queued events, which must still dispatch
        clock = SimClock()
        engine = Engine(clock=clock)
        seen = []
        engine.subscribe("a", lambda e: (seen.append(e), clock.advance(10.0)))
        engine.schedule(1.0, "a")
        engine.schedule(2.0, "a")
        engine.run()
        assert len(seen) == 2
        assert clock.now_s == 21.0

    def test_scheduling_in_the_past_is_an_error(self):
        engine = Engine(clock=SimClock(start_s=100.0))
        with pytest.raises(ValueError, match="in the past"):
            engine.schedule(99.0, "a")

    def test_advance_to_is_monotonic(self):
        clock = SimClock(start_s=5.0)
        assert clock.advance_to(3.0) == 5.0
        assert clock.advance_to(9.0) == 9.0


class TestDispatch:
    def test_publish_dispatches_immediately_at_current_time(self):
        engine = Engine()
        seen = []
        engine.subscribe("note", seen.append)
        engine.subscribe("a", lambda e: engine.publish("note", "from-a"))
        engine.schedule(4.0, "a")
        engine.run()
        assert [(e.time_s, e.payload) for e in seen] == [(4.0, "from-a")]

    def test_observers_see_every_event_in_order(self):
        engine = Engine()
        log = []
        engine.add_observer(lambda e: log.append(e.kind))
        engine.subscribe("a", lambda e: engine.publish("b"))
        engine.schedule(1.0, "a")
        engine.run()
        assert log == ["b", "a"]  # publish dispatches inside the handler
        assert engine.stats.by_kind == {"a": 1, "b": 1}

    def test_until_and_max_events_bound_the_run(self):
        engine = Engine()
        seen = []
        engine.subscribe("a", seen.append)
        for t in (1.0, 2.0, 3.0):
            engine.schedule(t, "a")
        engine.run(until_s=2.0)
        assert [e.time_s for e in seen] == [1.0, 2.0]
        engine.run(max_events=1)
        assert [e.time_s for e in seen] == [1.0, 2.0, 3.0]

    def test_stats_record_span_and_counts(self):
        engine = Engine()
        engine.subscribe("a", lambda e: None)
        engine.schedule(1.0, "a")
        engine.schedule(9.0, "a")
        stats = engine.run()
        assert stats.n_events == 2
        assert stats.first_time_s == 1.0
        assert stats.last_time_s == 9.0


class TestRng:
    def test_component_keyed_and_memoized(self):
        a = Engine(seed=7)
        b = Engine(seed=7)
        assert a.rng("x") is a.rng("x")
        assert float(a.rng("x").random()) == float(b.rng("x").random())
        assert float(a.rng("y").random()) != float(b.rng("x").random())
