"""Tests for the dual-clocked tracer and its ambient enablement."""

import threading

from repro.engine.clock import SimClock
from repro.engine.kernel import Engine
from repro.obs import trace
from repro.obs.trace import Tracer


class TestSpans:
    def test_nesting_records_parent_links(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.spans
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert outer.seq < inner.seq

    def test_span_yields_itself_for_outcome_attrs(self):
        tracer = Tracer()
        with tracer.span("solve", n=3) as sp:
            sp.set(ok=True)
        assert tracer.spans[0].attrs == {"n": 3, "ok": True}

    def test_sim_clock_drives_sim_times(self):
        clock = SimClock()
        tracer = Tracer(clock=clock)
        with tracer.span("s"):
            clock.advance_to(10.0)
        span = tracer.spans[0]
        assert span.sim_start_s == 0.0
        assert span.sim_end_s == 10.0
        assert span.sim_duration_s == 10.0

    def test_unbound_clock_leaves_sim_times_none(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        assert tracer.spans[0].sim_start_s is None
        assert tracer.spans[0].sim_duration_s is None
        assert tracer.spans[0].wall_duration_s is not None

    def test_span_closed_even_when_body_raises(self):
        tracer = Tracer()
        try:
            with tracer.span("boom"):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        assert tracer.spans[0].wall_end_s is not None
        assert not tracer._stack

    def test_span_tree_nests_and_omits_wall_clock(self):
        clock = SimClock()
        tracer = Tracer(clock=clock)
        with tracer.span("root"):
            with tracer.span("child", k=1):
                clock.advance_to(5.0)
        (root,) = tracer.span_tree()
        assert root["name"] == "root"
        assert root["children"][0]["name"] == "child"
        assert root["children"][0]["attrs"] == {"k": 1}
        assert "wall_start_s" not in root
        assert root["sim_end_s"] == 5.0


class TestEngineObservation:
    def test_observe_adopts_engine_clock_and_meters_events(self):
        engine = Engine()
        tracer = Tracer()
        tracer.observe(engine)
        engine.schedule(1.0, "tick")
        engine.schedule(2.0, "tock")
        engine.run()
        assert [e.name for e in tracer.events] == ["tick", "tock"]
        assert [e.sim_time_s for e in tracer.events] == [1.0, 2.0]
        assert tracer.events[0].attrs["engine_seq"] == 0

    def test_engine_observation_is_pure_readout(self):
        def run(observed: bool) -> list[str]:
            engine = Engine()
            seen: list[str] = []
            engine.subscribe("tick", lambda e: seen.append(e.kind))
            if observed:
                Tracer().observe(engine)
            engine.schedule(1.0, "tick")
            engine.run()
            return seen

        assert run(observed=False) == run(observed=True)


class TestPayloadRoundTrip:
    def test_round_trip_preserves_structure(self):
        clock = SimClock()
        tracer = Tracer(clock=clock)
        with tracer.span("root", n=2):
            tracer.point("retry", attempt=1)
            clock.advance_to(3.0)
        back = Tracer.from_payload(tracer.to_payload())
        assert back.span_tree() == tracer.span_tree()
        assert [e.name for e in back.events] == ["retry"]
        assert back._next_seq == tracer._next_seq

    def test_exotic_attrs_serialized_via_repr(self):
        import json

        tracer = Tracer()
        with tracer.span("s", obj=object()):
            pass
        payload = tracer.to_payload()
        json.dumps(payload)  # must not raise
        assert payload["spans"][0]["attrs"]["obj"].startswith("<object")


class TestAmbientEnablement:
    def test_disabled_helpers_are_no_ops(self):
        assert trace.current_tracer() is None
        with trace.span("nothing") as sp:
            assert sp is None
        assert trace.point("nothing") is None
        trace.observe_engine(Engine())  # must not raise

    def test_active_tracer_captures_module_helpers(self):
        tracer = Tracer()
        with trace.tracing(tracer):
            with trace.span("s", k=1) as sp:
                assert sp is tracer.spans[0]
                trace.point("p")
        assert [s.name for s in tracer.spans] == ["s"]
        assert [e.name for e in tracer.events] == ["p"]
        assert trace.current_tracer() is None

    def test_tracing_nests_innermost_wins(self):
        outer, inner = Tracer(), Tracer()
        with trace.tracing(outer):
            with trace.tracing(inner):
                trace.point("p")
            assert trace.current_tracer() is outer
        assert not outer.events
        assert [e.name for e in inner.events] == ["p"]

    def test_tracers_are_thread_local(self):
        tracer = Tracer()
        seen: list = []

        def worker():
            seen.append(trace.current_tracer())

        with trace.tracing(tracer):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen == [None]
