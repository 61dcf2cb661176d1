"""Observer-hook semantics of the engine.

Observers are the passive metrics/tracing attachment point
(:mod:`repro.obs` rides on them), so their contract is load-bearing:
they run after the handlers of every dispatched event, in registration
order, and a raising observer is isolated — counted in
``EngineStats.n_observer_errors``, never felt by handlers, other
observers, or the timeline.
"""

from repro.engine.kernel import Engine


def _loaded_engine() -> Engine:
    engine = Engine()
    engine.schedule(1.0, "tick", payload="a")
    engine.schedule(2.0, "tock", payload="b")
    return engine


class TestDelivery:
    def test_observer_sees_every_dispatched_event(self):
        engine = _loaded_engine()
        seen = []
        engine.add_observer(lambda e: seen.append((e.kind, e.time_s)))
        engine.subscribe("tick", lambda e: engine.publish("derived"))
        stats = engine.run()
        assert seen == [("derived", 1.0), ("tick", 1.0), ("tock", 2.0)]
        assert len(seen) == stats.n_events

    def test_observers_run_in_registration_order(self):
        engine = _loaded_engine()
        order = []
        engine.add_observer(lambda e: order.append(("first", e.kind)))
        engine.add_observer(lambda e: order.append(("second", e.kind)))
        engine.run()
        assert order == [
            ("first", "tick"), ("second", "tick"),
            ("first", "tock"), ("second", "tock"),
        ]

    def test_observers_run_after_handlers(self):
        engine = _loaded_engine()
        order = []
        engine.add_observer(lambda e: order.append("observer"))
        engine.subscribe("tick", lambda e: order.append("handler"))
        engine.run(max_events=1)
        assert order == ["handler", "observer"]


class TestErrorIsolation:
    def test_raising_observer_is_counted_not_propagated(self):
        engine = _loaded_engine()

        def bad(event):
            raise RuntimeError("observer bug")

        engine.add_observer(bad)
        stats = engine.run()  # must not raise
        assert stats.n_events == 2
        assert stats.n_observer_errors == 2

    def test_raising_observer_does_not_starve_later_observers(self):
        engine = _loaded_engine()
        seen = []

        def bad(event):
            raise RuntimeError("observer bug")

        engine.add_observer(bad)
        engine.add_observer(lambda e: seen.append(e.kind))
        engine.run()
        assert seen == ["tick", "tock"]

    def test_raising_observer_does_not_corrupt_timeline(self):
        def run(with_bad_observer: bool):
            engine = Engine()
            log = []
            engine.subscribe("tick", lambda e: log.append((e.kind, e.payload)))
            engine.subscribe("tock", lambda e: log.append((e.kind, e.payload)))
            if with_bad_observer:
                def bad(event):
                    raise RuntimeError("observer bug")

                engine.add_observer(bad)
            engine.schedule(1.0, "tick", payload="a")
            engine.schedule(1.0, "tock", payload="b", priority=-1)
            engine.schedule(2.0, "tick", payload="c")
            stats = engine.run()
            return log, stats.n_events, stats.by_kind, engine.clock.now_s

        clean = run(with_bad_observer=False)
        noisy = run(with_bad_observer=True)
        assert clean == noisy
