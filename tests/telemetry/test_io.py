"""Tests for trace/summary persistence."""

import numpy as np
import pytest

from repro.telemetry.dataset import BackboneConfig, BackboneDataset
from repro.telemetry.io import load_summaries, save_summaries
from repro.telemetry.stats import summarize_trace
from repro.telemetry.timebase import Timebase
from repro.telemetry.traces import NoiseModel, synthesize_cable_traces


@pytest.fixture
def traces():
    tb = Timebase.from_duration(days=3.0)
    return synthesize_cable_traces(
        "io-cable",
        np.array([14.0, 15.0, 16.0]),
        tb,
        [],
        {},
        NoiseModel(sigma_db=0.1),
        np.random.default_rng(0),
    )


class TestSummaryRoundTrip:
    def test_full_round_trip(self, traces, tmp_path):
        summaries = [summarize_trace(t) for t in traces]
        path = save_summaries(tmp_path / "summaries.json", summaries)
        loaded = load_summaries(path)
        assert loaded == summaries

    def test_dataset_summaries_round_trip(self, tmp_path):
        ds = BackboneDataset(BackboneConfig.small(years=0.05, n_cables=2))
        summaries = ds.summaries()
        path = save_summaries(tmp_path / "s.json", summaries)
        assert load_summaries(path) == summaries

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_summaries(tmp_path / "x.json", [])

    def test_version_checked(self, traces, tmp_path):
        import json

        summaries = [summarize_trace(traces[0])]
        path = save_summaries(tmp_path / "s.json", summaries)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="version"):
            load_summaries(path)
