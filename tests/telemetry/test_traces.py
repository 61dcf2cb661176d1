"""Tests for SNR trace synthesis."""

import numpy as np
import pytest

from repro.optics.impairments import (
    AmplifierDegradation,
    Impairment,
    ImpairmentScope,
    RootCause,
)
from repro.telemetry.timebase import Timebase
from repro.telemetry.traces import (
    MEASUREMENT_FLOOR_DB,
    NoiseModel,
    SnrTrace,
    synthesize_cable_traces,
)


def fiber_cut(start_s, duration_s):
    """Cable-wide loss of light."""
    return Impairment(
        start_s, duration_s, float("inf"), ImpairmentScope.CABLE, RootCause.FIBER_CUT
    )


def transceiver_fault(start_s, duration_s, penalty_db):
    """A single-wavelength SNR penalty."""
    return Impairment(
        start_s, duration_s, penalty_db, ImpairmentScope.WAVELENGTH, RootCause.HARDWARE
    )


@pytest.fixture
def timebase():
    return Timebase.from_duration(days=30.0)


def make_traces(timebase, cable_events=(), wavelength_events=None, noise=None,
                baselines=(15.0, 16.0, 17.0), seed=3):
    return synthesize_cable_traces(
        "cableX",
        np.array(baselines),
        timebase,
        list(cable_events),
        wavelength_events or {},
        noise or NoiseModel(sigma_db=0.1, wander_amplitude_db=0.0),
        np.random.default_rng(seed),
    )


class TestShape:
    def test_one_trace_per_wavelength(self, timebase):
        traces = make_traces(timebase)
        assert len(traces) == 3
        assert all(len(t) == timebase.n_samples for t in traces)

    def test_link_ids(self, timebase):
        traces = make_traces(timebase)
        assert [t.link_id for t in traces] == [
            "cableX:w000",
            "cableX:w001",
            "cableX:w002",
        ]

    def test_trace_length_mismatch_rejected(self, timebase):
        with pytest.raises(ValueError, match="does not match"):
            SnrTrace(
                link_id="x",
                cable_name="c",
                timebase=timebase,
                snr_db=np.zeros(5),
                baseline_db=15.0,
                events=(),
            )

    def test_empty_baselines_rejected(self, timebase):
        with pytest.raises(ValueError, match="non-empty"):
            make_traces(timebase, baselines=())

    def test_bad_wavelength_index_rejected(self, timebase):
        with pytest.raises(ValueError, match="out of range"):
            make_traces(
                timebase,
                wavelength_events={7: [transceiver_fault(0.0, 3600.0, 5.0)]},
            )


class TestBaselineAndNoise:
    def test_mean_tracks_baseline(self, timebase):
        traces = make_traces(timebase)
        for t, base in zip(traces, (15.0, 16.0, 17.0)):
            assert np.mean(t.snr_db) == pytest.approx(base, abs=0.15)
            assert t.baseline_db == base

    def test_noise_sigma_realised(self, timebase):
        traces = make_traces(
            timebase, noise=NoiseModel(sigma_db=0.3, wander_amplitude_db=0.0)
        )
        assert np.std(traces[0].snr_db) == pytest.approx(0.3, rel=0.25)

    def test_zero_noise_is_flat(self, timebase):
        traces = make_traces(
            timebase, noise=NoiseModel(sigma_db=0.0, wander_amplitude_db=0.0)
        )
        assert np.ptp(traces[0].snr_db) == 0.0

    def test_wander_bounded_by_amplitude(self, timebase):
        traces = make_traces(
            timebase,
            noise=NoiseModel(sigma_db=0.0, wander_amplitude_db=0.5),
        )
        assert np.ptp(traces[0].snr_db) <= 1.0 + 1e-9

    def test_ar1_autocorrelation(self):
        tb = Timebase.from_duration(days=365.0)
        traces = make_traces(
            tb, noise=NoiseModel(sigma_db=0.3, rho=0.9, wander_amplitude_db=0.0)
        )
        x = traces[0].snr_db - np.mean(traces[0].snr_db)
        rho_hat = np.dot(x[:-1], x[1:]) / np.dot(x, x)
        assert rho_hat == pytest.approx(0.9, abs=0.03)

    def test_white_noise_fast_path_matches_filter(self):
        # rho == 0 takes a pure-numpy shortcut; it must produce exactly
        # what the IIR filter would, including the rng draw order
        from repro.telemetry.traces import _ar1_noise
        from scipy.signal import lfilter

        rng_fast = np.random.default_rng(42)
        fast = _ar1_noise(500, 3, 0.3, 0.0, rng_fast)

        rng_ref = np.random.default_rng(42)
        innovations = rng_ref.standard_normal((3, 500))
        y_prev = rng_ref.standard_normal(3)
        zi = (0.0 * y_prev)[:, None]
        ref, _ = lfilter([1.0], [1.0, -0.0], innovations, axis=1, zi=zi)
        np.testing.assert_allclose(fast, 0.3 * ref, rtol=0, atol=0)

        # the rng stream must advance identically on both paths
        assert rng_fast.standard_normal() == rng_ref.standard_normal()

    def test_white_noise_variance(self):
        rng = np.random.default_rng(0)
        from repro.telemetry.traces import _ar1_noise

        out = _ar1_noise(20_000, 2, 0.5, 0.0, rng)
        assert out.shape == (2, 20_000)
        assert np.std(out) == pytest.approx(0.5, abs=0.02)


class TestEvents:
    def test_cable_event_hits_all_wavelengths(self, timebase):
        event = AmplifierDegradation(86_400.0, 7_200.0, 6.0)
        traces = make_traces(timebase, cable_events=[event])
        idx = timebase.index_at(86_400.0 + 3_600.0)
        for t, base in zip(traces, (15.0, 16.0, 17.0)):
            assert t.snr_db[idx] == pytest.approx(base - 6.0, abs=0.5)

    def test_wavelength_event_hits_only_its_row(self, timebase):
        fault = transceiver_fault(86_400.0, 7_200.0, 8.0)
        traces = make_traces(timebase, wavelength_events={1: [fault]})
        idx = timebase.index_at(86_400.0 + 3_600.0)
        assert traces[1].snr_db[idx] == pytest.approx(16.0 - 8.0, abs=0.5)
        assert traces[0].snr_db[idx] == pytest.approx(15.0, abs=0.5)
        assert traces[2].snr_db[idx] == pytest.approx(17.0, abs=0.5)

    def test_loss_of_light_pins_to_floor(self, timebase):
        cut = fiber_cut(86_400.0, 7_200.0)
        traces = make_traces(timebase, cable_events=[cut])
        idx = timebase.index_at(86_400.0 + 3_600.0)
        for t in traces:
            assert t.snr_db[idx] == MEASUREMENT_FLOOR_DB

    def test_trace_never_below_floor(self, timebase):
        cut = fiber_cut(0.0, timebase.duration_s)
        traces = make_traces(timebase, cable_events=[cut])
        assert all(t.min_db >= MEASUREMENT_FLOOR_DB for t in traces)

    def test_event_outside_horizon_ignored(self, timebase):
        event = AmplifierDegradation(timebase.duration_s + 1e6, 3600.0, 10.0)
        traces = make_traces(timebase, cable_events=[event])
        assert np.mean(traces[0].snr_db) == pytest.approx(15.0, abs=0.15)

    def test_events_recorded_on_trace(self, timebase):
        event = AmplifierDegradation(100.0, 3600.0, 6.0)
        fault = transceiver_fault(200.0, 3600.0, 8.0)
        traces = make_traces(
            timebase, cable_events=[event], wavelength_events={0: [fault]}
        )
        assert len(traces[0].events) == 2
        assert len(traces[1].events) == 1

    def test_snr_recovers_after_event(self, timebase):
        event = AmplifierDegradation(86_400.0, 3_600.0, 10.0)
        traces = make_traces(timebase, cable_events=[event])
        after = timebase.index_at(86_400.0 + 3 * 3_600.0)
        assert traces[0].snr_db[after] == pytest.approx(15.0, abs=0.5)


class TestNoiseModelValidation:
    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            NoiseModel(sigma_db=-0.1)

    def test_rejects_rho_out_of_range(self):
        with pytest.raises(ValueError):
            NoiseModel(rho=1.0)

    def test_rejects_negative_wander(self):
        with pytest.raises(ValueError):
            NoiseModel(wander_amplitude_db=-1.0)

    def test_rejects_zero_period(self):
        with pytest.raises(ValueError):
            NoiseModel(wander_period_days=0.0)
