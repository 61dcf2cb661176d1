"""Tests for the fiber plant (IP <-> optical binding)."""

import numpy as np
import pytest

from repro.net.plant import FiberPlant, PlantConfig
from repro.net.topologies import (
    abilene,
    b4_like,
    figure7_topology,
    site_coordinates,
    us_backbone_like,
)
from repro.optics.impairments import ImpairmentScope


@pytest.fixture(scope="module")
def plant():
    topo = abilene()
    return FiberPlant(topo, site_coordinates(topo), seed=1)


class TestCoordinates:
    def test_known_topologies_have_coordinates(self):
        for builder in (abilene, us_backbone_like, b4_like):
            topo = builder()
            coords = site_coordinates(topo)
            assert set(coords) == set(topo.nodes)

    def test_unknown_topology_raises(self):
        with pytest.raises(KeyError, match="no site coordinates"):
            site_coordinates(figure7_topology())

    def test_missing_site_rejected(self):
        topo = abilene()
        coords = site_coordinates(topo)
        del coords["Seattle"]
        with pytest.raises(ValueError, match="no coordinates"):
            FiberPlant(topo, coords)


class TestDistances:
    def test_haversine_sanity(self):
        # Seattle -> NYC great circle is ~3,870 km; routed ~1.3x
        d = FiberPlant.distance_km((-122.3, 47.6), (-74.0, 40.7))
        assert 4_500 < d < 5_600

    def test_zero_distance(self):
        assert FiberPlant.distance_km((0.0, 0.0), (0.0, 0.0)) == 0.0

    def test_transpacific_not_wrapped_wrong(self):
        # Seattle -> Tokyo must be ~7,700 km geodesic, not half the globe
        d = FiberPlant.distance_km((-122.3, 47.6), (139.7, 35.7))
        assert d < 1.35 * 13_000


class TestSegments:
    def test_one_segment_per_duplex_pair(self, plant):
        assert len(plant.segments) == 14  # abilene's duplex pairs
        for segment in plant.segments.values():
            assert len(segment.link_ids) == 2

    def test_span_count_matches_distance(self, plant):
        for segment in plant.segments.values():
            expected = max(
                int(np.ceil(segment.distance_km / 80.0)),
                plant.config.min_spans,
            )
            assert segment.n_spans == expected

    def test_segment_of(self, plant):
        link = plant.topology.real_links()[0]
        segment = plant.segment_of(link.link_id)
        assert link.link_id in segment.link_ids
        with pytest.raises(KeyError):
            plant.segment_of("nope")

    def test_srlg_map_complete(self, plant):
        srlgs = plant.srlg_map()
        assert srlgs.validate_against(plant.topology) == []
        assert len(srlgs) == len(plant.segments)

    def test_deterministic(self):
        topo = abilene()
        a = FiberPlant(topo, site_coordinates(topo), seed=5)
        b = FiberPlant(topo, site_coordinates(topo), seed=5)
        assert a.segments == b.segments


class TestBaselines:
    def test_longer_cables_lower_snr(self, plant):
        baselines = plant.baseline_snrs()
        segments = sorted(plant.segments.values(), key=lambda s: s.distance_km)
        short = np.mean([baselines[i] for i in segments[0].link_ids])
        long = np.mean([baselines[i] for i in segments[-1].link_ids])
        # quality penalties add noise; the trend must still be visible
        assert short > long - 2.0

    def test_directions_share_cable_baseline(self, plant):
        baselines = plant.baseline_snrs()
        for segment in plant.segments.values():
            a, b = segment.link_ids
            assert abs(baselines[a] - baselines[b]) < 3.5  # ripple only

    def test_baselines_in_operational_band(self, plant):
        values = np.array(list(plant.baseline_snrs().values()))
        assert values.min() > 6.5  # all links can carry their 100G
        assert values.max() < 30.0

    def test_headroom_and_topology_stamp(self, plant):
        headroom = plant.headroom_map()
        stamped = plant.with_headroom()
        for link_id, h in headroom.items():
            assert stamped.link(link_id).headroom_gbps == pytest.approx(h)
        # original untouched
        assert all(l.headroom_gbps == 0 for l in plant.topology.links)


class TestTelemetry:
    def test_one_trace_per_link(self, plant):
        traces = plant.synthesize_telemetry(days=10.0)
        assert set(traces) == {l.link_id for l in plant.topology.real_links()}

    def test_shared_fate_of_directions(self, plant):
        traces = plant.synthesize_telemetry(days=60.0)
        for segment in plant.segments.values():
            a, b = segment.link_ids
            ev_a = [e for e in traces[a].events if e.scope is ImpairmentScope.CABLE]
            ev_b = [e for e in traces[b].events if e.scope is ImpairmentScope.CABLE]
            assert ev_a == ev_b

    def test_traces_share_timebase(self, plant):
        traces = plant.synthesize_telemetry(days=5.0)
        assert len({t.timebase for t in traces.values()}) == 1

    def test_deterministic(self, plant):
        a = plant.synthesize_telemetry(days=2.0)
        b = plant.synthesize_telemetry(days=2.0)
        link = next(iter(a))
        np.testing.assert_array_equal(a[link].snr_db, b[link].snr_db)

    def test_drives_controller_end_to_end(self, plant):
        """The full integration: plant telemetry through the closed loop."""
        from repro.core.controller import DynamicCapacityController
        from repro.core.policies import run_policy
        from repro.net.demands import gravity_demands
        from repro.sim.replay import replay_controller

        demands = gravity_demands(
            plant.topology, 2000.0, np.random.default_rng(2)
        )
        controller = DynamicCapacityController(
            plant.topology, policy=run_policy(), seed=0
        )
        traces = plant.synthesize_telemetry(days=2.0)
        result = replay_controller(
            controller, traces, demands, te_interval_s=12 * 3600.0
        )
        assert result.n_rounds == 4
        assert result.mean_throughput_gbps > 0
