"""Tests for the engine's event source and the telemetry feed's ingestion guards."""

import numpy as np
import pytest

from repro.engine.sources import SequenceSource
from repro.telemetry.timebase import Timebase
from repro.telemetry.traces import SnrTrace, TelemetryFeed, iter_link_samples


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


class TestSequenceSource:
    def test_items_keep_order_at_fixed_time(self):
        source = SequenceSource("drill", ["a", "b"], time_s=5.0)
        events = list(source.events())
        assert [(e.time_s, e.payload) for e in events] == [
            (5.0, (0, "a")),
            (5.0, (1, "b")),
        ]


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
