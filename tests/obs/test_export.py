"""Tests for the Chrome-trace / JSONL / Prometheus exporters."""

import json

from repro.engine.clock import SimClock
from repro.engine.kernel import Engine
from repro.engine.sources import SequenceSource
from repro.net.topologies import line_topology
from repro.obs.export import (
    SIM_PID,
    WALL_PID,
    chrome_trace,
    events_jsonl,
    export_run,
    prometheus_text,
    run_summary,
    span_tree_json,
    state_timeline_jsonl,
    strip_wall,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, tracing
from repro.state.model import NetworkState
from repro.state.store import StateStore


def traced_run() -> Tracer:
    clock = SimClock()
    tracer = Tracer(clock=clock)
    with tracer.span("scenario", seed=1):
        tracer.point("retry", attempt=1)
        clock.advance_to(2.0)
        with tracer.span("solve"):
            clock.advance_to(3.0)
    return tracer


class TestChromeTrace:
    def test_spans_on_both_tracks(self):
        trace = chrome_trace(traced_run())
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert {e["pid"] for e in complete} == {SIM_PID, WALL_PID}
        sim_spans = {e["name"]: e for e in complete if e["pid"] == SIM_PID}
        assert sim_spans["scenario"]["ts"] == 0.0
        assert sim_spans["scenario"]["dur"] == 3_000_000.0
        assert sim_spans["solve"]["ts"] == 2_000_000.0

    def test_points_become_instants(self):
        trace = chrome_trace(traced_run())
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert all(e["s"] == "t" for e in instants)
        assert {e["name"] for e in instants} == {"retry"}

    def test_strip_wall_removes_wall_track(self):
        trace = strip_wall(chrome_trace(traced_run()))
        assert all(e["pid"] == SIM_PID for e in trace["traceEvents"])

    def test_stripped_trace_is_deterministic(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        a = json.dumps(strip_wall(chrome_trace(traced_run())), sort_keys=True)
        b = json.dumps(strip_wall(chrome_trace(traced_run())), sort_keys=True)
        assert a == b

    def test_generated_stamp_honours_source_date_epoch(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        trace = chrome_trace(traced_run())
        assert trace["otherData"]["generated_unix"] == 1700000000.0


class TestTextArtifacts:
    def test_events_jsonl_in_seq_order(self):
        rows = [json.loads(line)
                for line in events_jsonl(traced_run()).splitlines()]
        assert [r["record"] for r in rows] == ["span", "event", "span"]
        assert [r["seq"] for r in rows] == [0, 1, 2]

    def test_span_tree_json_round_trips(self):
        tracer = traced_run()
        assert json.loads(span_tree_json(tracer)) == tracer.span_tree()

    def test_run_summary_mentions_spans_and_counters(self):
        registry = MetricsRegistry()
        registry.counter("rounds").inc(5)
        text = run_summary(traced_run(), registry)
        assert "2 spans" in text
        assert "rounds" in text

    def test_run_summary_empty(self):
        assert "(empty)" in run_summary(None, None)

    def test_run_summary_engine_line_counts_observer_errors(self):
        tracer = Tracer()
        engine = Engine()
        engine.subscribe("tick", lambda event: None)
        engine.add_source(SequenceSource("tick", [1, 2, 3]))
        tracer.observe(engine)

        def bad_observer(event):
            raise RuntimeError("boom")

        engine.add_observer(bad_observer)
        engine.run()
        text = run_summary(tracer)
        assert "engine: 1 engine(s), 3 events" in text
        assert "tick=3" in text
        assert "3 observer errors" in text

    def test_run_summary_counts_state_transitions(self):
        tracer = Tracer()
        base = NetworkState.from_topology(line_topology(3))
        store = StateStore(base, name="ctrl")
        with tracing(tracer):
            store.commit({}, label="round")
            store.commit({}, label="round")
        assert "state: 2 transitions" in run_summary(tracer)


class TestStateTimeline:
    def make_traced_store(self):
        tracer = Tracer()
        base = NetworkState.from_topology(line_topology(3))
        store = StateStore(base, name="ctrl")
        link_id = sorted(base.links)[0]
        with tracing(tracer):
            store.commit({link_id: {"capacity_gbps": 0.0}}, label="fail")
        return tracer

    def test_one_line_per_transition(self):
        tracer = self.make_traced_store()
        (line,) = state_timeline_jsonl(tracer).splitlines()
        row = json.loads(line)
        assert row["store"] == "ctrl"
        assert row["version"] == 1
        assert row["parent"] == 0
        assert row["label"] == "fail"
        assert row["n_deltas"] == 1
        assert row["n_dark"] == 1

    def test_empty_without_transitions(self):
        assert state_timeline_jsonl(traced_run()) == ""

    def test_export_run_writes_state_timeline(self, tmp_path):
        written = export_run(tmp_path, self.make_traced_store())
        assert "state_timeline" in written
        assert written["state_timeline"].name == "state_timeline.jsonl"
        assert written["state_timeline"].read_text().count("\n") == 1


class TestPrometheusText:
    def test_counter_and_gauge_lines(self):
        reg = MetricsRegistry()
        reg.counter("faults.applied", kind="drop").inc(3)
        reg.gauge("workers").set(2)
        text = prometheus_text(reg)
        assert "# TYPE faults_applied counter" in text
        assert 'faults_applied{kind="drop"} 3.0' in text
        assert "workers 2.0" in text

    def test_histogram_exposition_is_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 9.0):
            h.observe(v)
        text = prometheus_text(reg)
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1.0"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_count 3" in text

    def test_summary_flattened_to_seconds_series(self):
        reg = MetricsRegistry()
        reg.summary("solve").add(0.5)
        text = prometheus_text(reg)
        assert "solve_seconds_count 1" in text
        assert "solve_seconds_sum 0.5" in text
        assert "solve_seconds_min 0.5" in text

    def test_names_sanitized(self):
        reg = MetricsRegistry()
        reg.counter("te.solve-calls").inc()
        assert "te_solve_calls 1.0" in prometheus_text(reg)

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""


class TestExportRun:
    def test_writes_full_artifact_set(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        written = export_run(tmp_path / "obs", traced_run(), reg)
        assert sorted(written) == ["events", "metrics", "span_tree", "trace"]
        for path in written.values():
            assert path.is_file() and path.stat().st_size > 0
        loaded = json.loads((tmp_path / "obs" / "trace.json").read_text())
        assert loaded["otherData"]["generator"] == "repro.obs"

    def test_absent_inputs_skip_files(self, tmp_path):
        written = export_run(tmp_path, None, MetricsRegistry())
        assert written == {}
