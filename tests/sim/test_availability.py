"""Tests for the binary-vs-dynamic availability replay."""

import numpy as np
import pytest

from repro.optics.impairments import (
    AmplifierDegradation,
    Impairment,
    ImpairmentScope,
    RootCause,
)
from repro.sim.availability import availability_report, compare_availability
from repro.telemetry.timebase import Timebase
from repro.telemetry.traces import NoiseModel, synthesize_cable_traces


def fiber_cut(start_s, duration_s):
    """Cable-wide loss of light."""
    return Impairment(
        start_s, duration_s, float("inf"), ImpairmentScope.CABLE, RootCause.FIBER_CUT
    )


def make_trace(events=(), baseline=15.0, days=30.0):
    tb = Timebase.from_duration(days=days)
    return synthesize_cable_traces(
        "c",
        np.array([baseline]),
        tb,
        list(events),
        {},
        NoiseModel(sigma_db=0.05, wander_amplitude_db=0.0),
        np.random.default_rng(0),
    )[0]


class TestCompareAvailability:
    def test_healthy_link_no_downtime(self):
        la = compare_availability(make_trace())
        assert la.binary_downtime_h == 0.0
        assert la.dynamic_downtime_h == 0.0
        assert la.binary_availability == 1.0

    def test_partial_dip_avoided(self):
        # dip to ~5 dB: binary failure, dynamic keeps running at 50G
        event = AmplifierDegradation(86_400.0, 7_200.0, 10.0)
        la = compare_availability(make_trace([event]))
        assert la.n_binary_failures == 1
        assert la.n_avoided == 1
        assert la.binary_downtime_h == pytest.approx(2.0, abs=0.5)
        assert la.dynamic_downtime_h == 0.0
        assert la.downtime_saved_h == la.binary_downtime_h

    def test_fiber_cut_not_avoided(self):
        cut = fiber_cut(86_400.0, 7_200.0)
        la = compare_availability(make_trace([cut]))
        assert la.n_binary_failures == 1
        assert la.n_avoided == 0
        assert la.dynamic_downtime_h == pytest.approx(2.0, abs=0.5)

    def test_deep_dip_counts_as_softened_when_shoulders_usable(self):
        # a dip that bottoms out below 3 dB but passes through the
        # usable band: partially softened, not avoided
        shallow = AmplifierDegradation(86_400.0, 10_800.0, 11.0)  # -> ~4 dB
        deep = AmplifierDegradation(86_400.0 + 3_600.0, 3_600.0, 4.0)  # -> ~0 dB
        la = compare_availability(make_trace([shallow, deep]))
        assert la.n_binary_failures == 1
        assert la.n_avoided == 0
        assert la.n_softened == 1
        assert la.dynamic_downtime_h < la.binary_downtime_h

    def test_availability_improves_never_worsens(self):
        event = AmplifierDegradation(86_400.0, 7_200.0, 10.0)
        la = compare_availability(make_trace([event]))
        assert la.dynamic_availability >= la.binary_availability


class TestAvailabilityReport:
    def test_aggregates(self):
        traces = [
            make_trace([AmplifierDegradation(86_400.0, 7_200.0, 10.0)]),
            make_trace([fiber_cut(86_400.0, 7_200.0)]),
            make_trace(),
        ]
        report = availability_report(traces)
        assert report.n_links == 3
        assert report.n_binary_failures == 2
        assert report.n_avoided == 1
        assert report.avoided_fraction == pytest.approx(0.5)
        assert report.total_downtime_saved_h > 0
        assert report.mean_dynamic_availability >= report.mean_binary_availability

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            availability_report([])

    def test_paper_scale_avoided_fraction(self):
        """On the calibrated backbone, ~25% of failures are avoidable."""
        from repro.telemetry.dataset import BackboneConfig, BackboneDataset

        ds = BackboneDataset(BackboneConfig(n_cables=10, years=1.0, seed=3))
        report = availability_report(ds.iter_traces())
        assert 0.10 <= report.avoided_fraction <= 0.45
