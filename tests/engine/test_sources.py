"""Tests for the stock event sources and trace ingestion guards."""

import numpy as np
import pytest

from repro.engine.kernel import Engine
from repro.engine.sources import (
    EwmaAlarmMonitor,
    ScheduledRounds,
    SequenceSource,
    TelemetryFeed,
    TelemetrySource,
)
from repro.telemetry.timebase import Timebase
from repro.telemetry.traces import SnrTrace, iter_link_samples


def trace(link_id, values, *, interval_s=900.0, start_s=0.0, cable="c"):
    values = np.asarray(values, dtype=float)
    return SnrTrace(
        link_id=link_id,
        cable_name=cable,
        timebase=Timebase(
            n_samples=len(values), interval_s=interval_s, start_s=start_s
        ),
        snr_db=values,
        baseline_db=float(values[0]),
        events=(),
    )


class TestTelemetryFeedValidation:
    def test_empty_mapping_rejected(self):
        with pytest.raises(ValueError, match="at least one trace"):
            TelemetryFeed({})

    def test_mismatched_timebase_names_the_link(self):
        traces = {
            "l0": trace("l0", [16.0, 16.0]),
            "l1": trace("l1", [16.0, 16.0, 16.0]),
        }
        with pytest.raises(ValueError, match="share one timebase.*'l1'"):
            TelemetryFeed(traces)

    def test_mismatched_start_names_the_link(self):
        traces = {
            "l0": trace("l0", [16.0, 16.0]),
            "l1": trace("l1", [16.0, 16.0], start_s=900.0),
        }
        with pytest.raises(ValueError, match="'l1'"):
            TelemetryFeed(traces)

    def test_samples_stream_in_trace_order(self):
        feed = TelemetryFeed(
            {"b": trace("b", [1.0, 2.0]), "a": trace("a", [3.0, 4.0])}
        )
        samples = list(feed.iter_samples())
        assert [s.index for s in samples] == [0, 1]
        assert list(samples[0].snr_db) == ["b", "a"]
        assert samples[1].snr_db == {"b": 2.0, "a": 4.0}
        assert samples[1].time_s == 900.0


class TestFromSeries:
    def test_unsorted_times_name_link_and_index(self):
        series = {
            "good": ([0.0, 900.0, 1800.0], [16.0, 16.0, 16.0]),
            "bad": ([0.0, 1800.0, 900.0], [16.0, 16.0, 16.0]),
        }
        with pytest.raises(
            ValueError, match="'bad'.*not strictly increasing.*index 2"
        ):
            TelemetryFeed.from_series(series)

    def test_non_uniform_spacing_names_the_link(self):
        series = {"jitter": ([0.0, 900.0, 2000.0], [16.0, 16.0, 16.0])}
        with pytest.raises(ValueError, match="'jitter'.*not uniformly"):
            TelemetryFeed.from_series(series)

    def test_grid_mismatch_names_the_link(self):
        series = {
            "l0": ([0.0, 900.0], [16.0, 16.0]),
            "l1": ([100.0, 1000.0], [16.0, 16.0]),
        }
        with pytest.raises(ValueError, match="share one timebase.*'l1'"):
            TelemetryFeed.from_series(series)

    def test_length_mismatch_names_the_link(self):
        series = {"short": ([0.0, 900.0], [16.0])}
        with pytest.raises(ValueError, match="'short'.*1 samples for 2"):
            TelemetryFeed.from_series(series)

    def test_valid_series_round_trips(self):
        series = {
            "l0": ([0.0, 900.0, 1800.0], [16.0, 15.0, 14.0]),
            "l1": ([0.0, 900.0, 1800.0], [10.0, 11.0, 12.0]),
        }
        feed = TelemetryFeed.from_series(series)
        assert feed.timebase.interval_s == 900.0
        assert feed.sample(2).snr_db == {"l0": 14.0, "l1": 12.0}


class TestIterLinkSamples:
    def test_stride_and_cap(self):
        traces = {"l0": trace("l0", list(range(10)))}
        rows = list(iter_link_samples(traces, stride=4))
        assert [r[0] for r in rows] == [0, 4, 8]
        rows = list(iter_link_samples(traces, stride=4, max_samples=2))
        assert [r[0] for r in rows] == [0, 4]

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one trace"):
            list(iter_link_samples({}))
        with pytest.raises(ValueError, match="stride"):
            list(iter_link_samples({"l0": trace("l0", [1.0])}, stride=0))


class TestScheduledRounds:
    def test_interval_finer_than_grid_rejected(self):
        feed = TelemetryFeed({"l0": trace("l0", [16.0, 16.0])})
        with pytest.raises(ValueError, match="finer"):
            ScheduledRounds(feed, te_interval_s=60.0)

    def test_round_events_at_stride_times(self):
        feed = TelemetryFeed({"l0": trace("l0", list(range(8)))})
        source = ScheduledRounds(feed, te_interval_s=1800.0, max_rounds=3)
        events = list(source.events())
        assert [e.time_s for e in events] == [0.0, 1800.0, 3600.0]
        assert all(e.kind == "te.round" for e in events)
        assert [e.payload.snr_db["l0"] for e in events] == [0.0, 2.0, 4.0]


class TestSequenceSource:
    def test_items_keep_order_at_fixed_time(self):
        source = SequenceSource("drill", ["a", "b"], time_s=5.0)
        events = list(source.events())
        assert [(e.time_s, e.payload) for e in events] == [
            (5.0, (0, "a")),
            (5.0, (1, "b")),
        ]


class TestEwmaAlarmMonitor:
    def test_alarm_published_on_dip_entry_only(self):
        values = [16.0] * 60 + [5.0] * 5 + [16.0] * 5
        feed = TelemetryFeed({"l0": trace("l0", values)})
        engine = Engine()
        monitor = EwmaAlarmMonitor(["l0"], k_sigma=5.0)
        alarms = []
        engine.subscribe(EwmaAlarmMonitor.KIND, alarms.append)
        engine.subscribe(
            TelemetrySource.KIND,
            lambda e: monitor.observe(engine, e.payload),
        )
        engine.add_source(TelemetrySource(feed))
        engine.run()
        assert len(alarms) == 1  # one dip -> one alarm, not one per sample
        assert alarms[0].payload["link_id"] == "l0"
        assert alarms[0].payload["index"] == 60


class TestFromSeriesNanTolerance:
    def test_nan_time_names_link_and_index(self):
        series = {"holey": ([0.0, float("nan"), 1800.0], [16.0, 16.0, 16.0])}
        with pytest.raises(ValueError, match="'holey'.*non-finite sample time.*index 1"):
            TelemetryFeed.from_series(series)

    def test_nan_values_get_finite_baseline(self):
        series = {
            "l0": ([0.0, 900.0, 1800.0, 2700.0], [16.0, float("nan"), 14.0, 15.0])
        }
        feed = TelemetryFeed.from_series(series)
        baseline = feed.traces_by_link["l0"].baseline_db
        assert np.isfinite(baseline)
        assert baseline == 15.0  # median of the finite samples only

    def test_all_nan_values_fall_back_to_zero_baseline(self):
        series = {"dark": ([0.0, 900.0], [float("nan"), float("nan")])}
        feed = TelemetryFeed.from_series(series)
        assert feed.traces_by_link["dark"].baseline_db == 0.0


class TestEwmaAlarmMonitorNanTolerance:
    def test_nan_samples_are_skipped_and_counted(self):
        values = [16.0] * 60 + [float("nan")] * 5 + [16.0] * 5
        feed = TelemetryFeed({"l0": trace("l0", values)})
        monitor = EwmaAlarmMonitor(["l0"], k_sigma=5.0)
        for sample in feed.iter_samples():
            monitor.observe(None, sample)
        assert monitor.n_skipped == 5
        detector = monitor._detectors["l0"]
        assert detector.baseline_db == pytest.approx(16.0, abs=0.01)

    def test_dropout_inside_dip_does_not_fake_recovery(self):
        values = [16.0] * 60 + [5.0, float("nan"), 5.0] + [16.0] * 5
        feed = TelemetryFeed({"l0": trace("l0", values)})
        engine = Engine()
        monitor = EwmaAlarmMonitor(["l0"], k_sigma=5.0)
        alarms = []
        engine.subscribe(EwmaAlarmMonitor.KIND, alarms.append)
        engine.subscribe(
            TelemetrySource.KIND,
            lambda e: monitor.observe(engine, e.payload),
        )
        engine.add_source(TelemetrySource(feed))
        engine.run()
        assert len(alarms) == 1  # the NaN neither closed nor reopened the dip

    def test_unknown_link_gets_detector_on_first_sight(self):
        from repro.engine.sources import TelemetrySample

        monitor = EwmaAlarmMonitor(["l0"])
        sample = TelemetrySample(index=0, time_s=0.0, snr_db={"l0": 16.0, "l9": 16.0})
        monitor.observe(None, sample)
        assert "l9" in monitor._detectors
