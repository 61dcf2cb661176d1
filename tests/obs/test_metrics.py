"""Tests for the mergeable metrics registry and its BENCH.json report."""

import json
import math
import threading

import pytest

from repro.obs import metrics
from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry


class TestInstruments:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc()
        reg.counter("hits").inc(2)
        assert reg.counter_value("hits") == 3.0

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("hits").inc(-1)

    def test_labels_separate_series(self):
        reg = MetricsRegistry()
        reg.counter("faults", kind="drop").inc()
        reg.counter("faults", kind="dup").inc(4)
        assert reg.counter_value("faults", kind="drop") == 1.0
        assert reg.counter_value("faults", kind="dup") == 4.0
        assert reg.counters() == {
            "faults{kind=drop}": 1.0,
            "faults{kind=dup}": 4.0,
        }

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        reg.counter("c", a=1, b=2).inc()
        assert reg.counter_value("c", b=2, a=1) == 1.0

    def test_gauge_last_writer_wins(self):
        reg = MetricsRegistry()
        reg.gauge("workers").set(4)
        reg.gauge("workers").set(2)
        assert reg.gauges() == {"workers": 2.0}

    def test_histogram_buckets_cumulative_semantics(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.7, 5.0):
            h.observe(v)
        assert h.counts == [1, 2]
        assert h.inf_count == 1
        assert h.n == 4
        assert h.total == pytest.approx(6.25)

    def test_histogram_bucket_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("lat", buckets=(0.1, 1.0))
        with pytest.raises(ValueError):
            reg.histogram("lat", buckets=(0.5,))

    def test_histogram_default_buckets(self):
        assert MetricsRegistry().histogram("lat").buckets == DEFAULT_BUCKETS

    def test_summary_matches_bench_aggregate(self):
        reg = MetricsRegistry()
        s = reg.summary("solve")
        s.add(1.0)
        s.add(3.0, meta={"workers": 2})
        assert s.count == 2
        assert s.mean_s == 2.0
        assert s.min_s == 1.0
        assert s.max_s == 3.0
        assert s.as_dict()["meta"] == {"workers": 2}

    def test_summary_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().summary("s").add(-0.1)

    def test_empty_and_reset(self):
        reg = MetricsRegistry()
        assert reg.empty
        reg.counter("c").inc()
        assert not reg.empty
        reg.reset()
        assert reg.empty


class TestMerge:
    def _filled(self, n: int) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("points").inc(n)
        reg.gauge("last").set(n)
        reg.histogram("lat", buckets=(1.0, 10.0)).observe(float(n))
        reg.summary("solve").add(float(n))
        return reg

    def test_counters_add(self):
        merged = self._filled(1).merge(self._filled(2))
        assert merged.counter_value("points") == 3.0

    def test_histograms_add_bucketwise(self):
        merged = self._filled(1).merge(self._filled(20))
        h = merged.histograms()["lat"]
        assert h.counts == [1, 0]
        assert h.inf_count == 1
        assert h.n == 2

    def test_summaries_combine(self):
        merged = self._filled(1).merge(self._filled(3))
        s = merged.summaries()["solve"]
        assert (s.count, s.min_s, s.max_s) == (2, 1.0, 3.0)

    def test_gauge_takes_incoming_value(self):
        merged = self._filled(1).merge(self._filled(2))
        assert merged.gauges()["last"] == 2.0

    def test_merge_worker_count_invariance(self):
        # the same six shards, folded via one vs two "workers"
        def fold(groups):
            fleet = MetricsRegistry()
            for group in groups:
                partial = MetricsRegistry()
                for shard in group:
                    partial.merge(shard)
                fleet.merge(partial)
            return fleet

        one = fold([[self._filled(i) for i in range(1, 7)]])
        two = fold([[self._filled(i) for i in (1, 3, 5)],
                    [self._filled(i) for i in (2, 4, 6)]])
        assert one.counters() == two.counters()
        assert one.histograms()["lat"].counts == two.histograms()["lat"].counts
        a, b = one.summaries()["solve"], two.summaries()["solve"]
        assert (a.count, a.total_s, a.min_s, a.max_s) == (
            b.count, b.total_s, b.min_s, b.max_s
        )

    def test_merge_bucket_mismatch_rejected(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("lat", buckets=(1.0,)).observe(0.5)
        b.histogram("lat", buckets=(2.0,)).observe(0.5)
        with pytest.raises(ValueError):
            a.merge(b)


class TestPayloadRoundTrip:
    def test_round_trip_preserves_everything(self):
        reg = MetricsRegistry()
        reg.counter("c", kind="x").inc(7)
        reg.gauge("g").set(3.5)
        reg.histogram("h", buckets=(0.5, 5.0)).observe(2.0)
        reg.summary("s").add(0.25, meta={"note": "hi"})
        back = MetricsRegistry.from_payload(reg.to_payload())
        assert back.counters() == reg.counters()
        assert back.gauges() == reg.gauges()
        assert back.histograms()["h"].counts == reg.histograms()["h"].counts
        assert back.summaries()["s"].as_dict() == reg.summaries()["s"].as_dict()

    def test_empty_summary_min_restored_as_inf(self):
        reg = MetricsRegistry()
        reg.summary("s")  # created but never added to
        back = MetricsRegistry.from_payload(reg.to_payload())
        assert back.summaries()["s"].min_s == math.inf

    def test_payload_is_plain_json(self):
        import json

        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.histogram("h").observe(0.1)
        json.dumps(reg.to_payload())  # must not raise


class TestAmbientRegistry:
    def test_isolated_routes_module_helpers(self):
        with metrics.isolated() as reg:
            metrics.counter("inner").inc()
        assert reg.counter_value("inner") == 1.0
        assert metrics.current() is metrics.REGISTRY

    def test_isolated_nests(self):
        with metrics.isolated() as outer:
            with metrics.isolated() as inner:
                metrics.counter("c").inc()
            assert inner.counter_value("c") == 1.0
            assert outer.counter_value("c") == 0.0

    def test_isolated_accepts_existing_registry(self):
        reg = MetricsRegistry()
        with metrics.isolated(reg) as seen:
            assert seen is reg
            assert metrics.current() is reg

    def test_timestamp_honours_source_date_epoch(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        assert metrics.timestamp_unix() == 1700000000.0

    def test_timestamp_ignores_garbage_epoch(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "not-a-number")
        assert metrics.timestamp_unix() > 1700000000.0


class TestBenchReport:
    def test_time_records_on_exception(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with reg.summary("work").time(workers=2):
                raise RuntimeError("boom")
        assert reg.get_summary("work").count == 1
        assert reg.get_summary("work").meta == {"workers": 2}

    def test_collect_schema(self):
        reg = MetricsRegistry()
        reg.summary("a").add(0.5, {"workers": 2})
        reg.counter("hit").inc()
        report = metrics.collect(reg, extra={"note": "x"})
        assert report["schema"] == metrics.BENCH_SCHEMA
        assert "generated_unix" in report and "host" in report
        assert report["timers"]["a"]["count"] == 1
        assert report["timers"]["a"]["meta"] == {"workers": 2}
        assert report["events"] == {"hit": 1}
        assert report["extra"] == {"note": "x"}
        assert "gauges" not in report and "histograms" not in report

    def test_collect_defaults_to_current_registry(self):
        with metrics.isolated():
            metrics.summary("inner").add(0.1)
            assert list(metrics.collect()["timers"]) == ["inner"]

    def test_write_bench_round_trips(self, tmp_path):
        reg = MetricsRegistry()
        reg.summary("a").add(0.25)
        path = metrics.write_bench(tmp_path / "BENCH.json", reg)
        payload = json.loads(path.read_text())
        assert payload["timers"]["a"]["total_s"] == pytest.approx(0.25)

    def test_isolated_threads_are_independent(self):
        seen = {}

        def worker(tag):
            with metrics.isolated() as reg:
                for _ in range(50):
                    metrics.counter(tag).inc()
            seen[tag] = reg.counters()

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen == {"t0": {"t0": 50.0}, "t1": {"t1": 50.0}}
