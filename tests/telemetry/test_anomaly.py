"""Tests for the EWMA dip detector and the per-link alarm monitor."""

import numpy as np
import pytest

from repro.optics.impairments import AmplifierDegradation
from repro.telemetry.anomaly import (
    DipAlert,
    EwmaAlarmMonitor,
    EwmaDipDetector,
    SignalState,
)
from repro.telemetry.timebase import Timebase
from repro.telemetry.traces import (
    NoiseModel,
    TelemetrySample,
    synthesize_cable_traces,
)


def detect_dips(trace):
    """Every alert the detector raises over a whole trace."""
    detector = EwmaDipDetector()
    alerts = []
    for i, sample in enumerate(trace.snr_db):
        alert = detector.update(float(sample), i)
        if alert is not None:
            alerts.append(alert)
    tail = detector.flush(len(trace.snr_db))
    if tail is not None:
        alerts.append(tail)
    return alerts


def make_trace(events=(), days=20.0, sigma=0.15, seed=4):
    tb = Timebase.from_duration(days=days)
    return synthesize_cable_traces(
        "anomaly-cable",
        np.array([15.0]),
        tb,
        list(events),
        {},
        NoiseModel(sigma_db=sigma, wander_amplitude_db=0.0),
        np.random.default_rng(seed),
    )[0]


class TestDetectorMechanics:
    def test_validation(self):
        with pytest.raises(ValueError):
            EwmaDipDetector(alpha=0.0)
        with pytest.raises(ValueError):
            EwmaDipDetector(k_sigma=0.0)
        with pytest.raises(ValueError):
            EwmaDipDetector(warmup=1)
        with pytest.raises(ValueError):
            EwmaDipDetector(min_sigma_db=0.0)

    def test_warmup_never_alarms(self):
        detector = EwmaDipDetector(warmup=16)
        for i in range(15):
            assert detector.update(15.0 if i < 10 else 0.0, i) is None
        assert detector.state in (SignalState.WARMING_UP, SignalState.NORMAL)

    def test_baseline_converges(self):
        detector = EwmaDipDetector(warmup=8)
        for i in range(200):
            detector.update(12.0, i)
        assert detector.baseline_db == pytest.approx(12.0, abs=0.01)

    def test_dip_opens_and_closes(self):
        detector = EwmaDipDetector(warmup=8, k_sigma=4.0)
        for i in range(50):
            detector.update(15.0, i)
        assert detector.update(5.0, 50) is None  # dip opens
        assert detector.state is SignalState.DIP
        alert = detector.update(15.0, 60)  # recovery
        assert isinstance(alert, DipAlert)
        assert alert.start_index == 50
        assert alert.end_index == 60
        assert alert.depth_db == pytest.approx(10.0, abs=0.3)
        assert detector.state is SignalState.NORMAL

    def test_statistics_frozen_during_dip(self):
        detector = EwmaDipDetector(warmup=8)
        for i in range(50):
            detector.update(15.0, i)
        before = detector.baseline_db
        for i in range(50, 90):
            detector.update(3.0, i)  # a long dip
        assert detector.baseline_db == pytest.approx(before)

    def test_flush_closes_open_dip(self):
        detector = EwmaDipDetector(warmup=8)
        for i in range(50):
            detector.update(15.0, i)
        detector.update(2.0, 50)
        alert = detector.flush(51)
        assert alert is not None
        assert alert.n_samples == 1

    def test_flush_noop_when_normal(self):
        detector = EwmaDipDetector(warmup=8)
        for i in range(20):
            detector.update(15.0, i)
        assert detector.flush(20) is None


class TestOnRealisticTraces:
    def test_detects_injected_event(self):
        event = AmplifierDegradation(5 * 86_400.0, 6 * 3600.0, 8.0)
        trace = make_trace([event])
        alerts = detect_dips(trace)
        assert len(alerts) >= 1
        big = max(alerts, key=lambda a: a.depth_db)
        assert big.depth_db == pytest.approx(8.0, abs=1.0)
        event_idx = trace.timebase.index_at(event.start_s)
        assert abs(big.start_index - event_idx) <= 2

    def test_quiet_trace_quiet_detector(self):
        alerts = detect_dips(make_trace())
        assert len(alerts) == 0

    def test_false_positive_rate_low(self):
        # 20 clean traces: the 5-sigma chart should rarely fire
        fired = 0
        for seed in range(20):
            fired += len(detect_dips(make_trace(seed=seed)))
        assert fired <= 2

    def test_two_events_two_alerts(self):
        events = [
            AmplifierDegradation(4 * 86_400.0, 4 * 3600.0, 6.0),
            AmplifierDegradation(12 * 86_400.0, 4 * 3600.0, 9.0),
        ]
        alerts = detect_dips(make_trace(events))
        deep = [a for a in alerts if a.depth_db > 3.0]
        assert len(deep) == 2

    def test_detection_beats_threshold_crossing(self):
        """The monitoring pitch: a dip to 8 dB never crosses the 6.5 dB
        failure threshold, yet the detector sees it."""
        event = AmplifierDegradation(5 * 86_400.0, 6 * 3600.0, 7.0)  # 15 -> 8
        trace = make_trace([event])
        assert trace.snr_db.min() > 6.5  # invisible to the binary rule
        alerts = detect_dips(trace)
        assert any(a.depth_db > 5.0 for a in alerts)


class TestNanTolerance:
    def test_nan_skipped_and_counted(self):
        detector = EwmaDipDetector(warmup=8)
        for i in range(50):
            detector.update(15.0, i)
        baseline = detector.baseline_db
        for i in range(50, 55):
            assert detector.update(float("nan"), i) is None
        assert detector.n_skipped == 5
        assert detector.baseline_db == baseline  # statistics untouched
        assert detector.state is SignalState.NORMAL

    def test_nan_during_warmup_does_not_advance_warmup(self):
        detector = EwmaDipDetector(warmup=8)
        for i in range(4):
            detector.update(float("nan"), i)
        assert detector.state is SignalState.WARMING_UP
        for i in range(4, 12):
            detector.update(15.0, i)
        assert detector.state is SignalState.NORMAL
        assert detector.baseline_db == pytest.approx(15.0)

    def test_nan_during_dip_neither_closes_nor_deepens_it(self):
        detector = EwmaDipDetector(warmup=8, k_sigma=4.0)
        for i in range(50):
            detector.update(15.0, i)
        detector.update(5.0, 50)
        assert detector.state is SignalState.DIP
        assert detector.update(float("nan"), 51) is None
        assert detector.state is SignalState.DIP
        alert = detector.update(15.0, 52)
        assert alert is not None
        assert alert.depth_db == pytest.approx(10.0, abs=0.5)

    def test_inf_also_skipped(self):
        detector = EwmaDipDetector(warmup=8)
        detector.update(float("inf"), 0)
        detector.update(float("-inf"), 1)
        assert detector.n_skipped == 2


def samples(values, link_id="l0"):
    """One telemetry sample per value, on the 15-minute grid."""
    return [
        TelemetrySample(index=i, time_s=900.0 * i, snr_db={link_id: float(v)})
        for i, v in enumerate(values)
    ]


class TestEwmaAlarmMonitor:
    def test_link_in_dip_from_entry_until_recovery(self):
        monitor = EwmaAlarmMonitor(["l0"], k_sigma=5.0)
        values = [16.0] * 60 + [5.0] * 5 + [16.0] * 5
        dipping = [s.index for s in samples(values) if monitor.observe(s)]
        assert dipping == [60, 61, 62, 63, 64]

    def test_nan_samples_are_skipped_and_counted(self):
        monitor = EwmaAlarmMonitor(["l0"], k_sigma=5.0)
        for sample in samples([16.0] * 60 + [float("nan")] * 5 + [16.0] * 5):
            monitor.observe(sample)
        assert monitor.n_skipped == 5
        detector = monitor._detectors["l0"]
        assert detector.baseline_db == pytest.approx(16.0, abs=0.01)

    def test_dropout_inside_dip_does_not_fake_recovery(self):
        monitor = EwmaAlarmMonitor(["l0"], k_sigma=5.0)
        values = [16.0] * 60 + [5.0, float("nan"), 5.0] + [16.0] * 5
        dipping = [s.index for s in samples(values) if monitor.observe(s)]
        # the NaN neither closed nor reopened the dip
        assert dipping == [60, 61, 62]

    def test_unknown_link_gets_detector_on_first_sight(self):
        monitor = EwmaAlarmMonitor(["l0"])
        sample = TelemetrySample(index=0, time_s=0.0, snr_db={"l0": 16.0, "l9": 16.0})
        monitor.observe(sample)
        assert "l9" in monitor._detectors
