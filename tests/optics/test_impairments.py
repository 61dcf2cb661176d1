"""Tests for the impairment event taxonomy."""

import pytest

from repro.optics.impairments import (
    AmplifierDegradation,
    Impairment,
    ImpairmentScope,
    RootCause,
)


class TestImpairmentBasics:
    def test_end_time(self):
        imp = AmplifierDegradation(100.0, 50.0, 4.0)
        assert imp.end_s == pytest.approx(150.0)

    def test_rejects_zero_duration(self):
        with pytest.raises(ValueError):
            Impairment(0.0, 0.0, 1.0, ImpairmentScope.CABLE, RootCause.HARDWARE)

    def test_rejects_negative_penalty(self):
        with pytest.raises(ValueError):
            Impairment(0.0, 10.0, -1.0, ImpairmentScope.CABLE, RootCause.HARDWARE)

    def test_overlap_semantics_half_open(self):
        imp = AmplifierDegradation(100.0, 50.0, 4.0)
        assert imp.overlaps(120.0, 130.0)
        assert imp.overlaps(0.0, 101.0)
        assert not imp.overlaps(150.0, 200.0)  # starts exactly at end
        assert not imp.overlaps(0.0, 100.0)  # ends exactly at start


class TestFactories:
    def test_amplifier_degradation_partial(self):
        deg = AmplifierDegradation(0.0, 60.0, 5.0)
        assert deg.root_cause is RootCause.HARDWARE
        assert not deg.is_loss_of_light
        assert deg.snr_penalty_db == 5.0


class TestRootCauseLabels:
    def test_all_causes_have_labels(self):
        for cause in RootCause:
            assert cause.label
