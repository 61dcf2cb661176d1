"""Tests for closed-loop controller replay."""

import numpy as np
import pytest

from repro.core.controller import DynamicCapacityController
from repro.core.policies import crawl_policy, run_policy
from repro.net.demands import gravity_demands
from repro.net.topologies import line_topology
from repro.optics.impairments import AmplifierDegradation
from repro.sim.replay import replay_controller
from repro.telemetry.timebase import Timebase
from repro.telemetry.traces import NoiseModel, synthesize_cable_traces


def build_scenario(days=2.0, events=()):
    """A 3-node line whose middle links carry synthetic SNR traces."""
    topo = line_topology(3)
    tb = Timebase.from_duration(days=days)
    link_ids = [l.link_id for l in topo.real_links()]
    traces = synthesize_cable_traces(
        "replay-cable",
        np.full(len(link_ids), 16.0),
        tb,
        list(events),
        {},
        NoiseModel(sigma_db=0.05, wander_amplitude_db=0.0),
        np.random.default_rng(1),
    )
    traces_by_link = dict(zip(link_ids, traces))
    demands = gravity_demands(topo, 500.0, np.random.default_rng(2))
    return topo, traces_by_link, demands


class TestReplay:
    def test_round_count(self):
        topo, traces, demands = build_scenario(days=2.0)
        ctrl = DynamicCapacityController(topo, policy=run_policy(), seed=0)
        result = replay_controller(
            ctrl, traces, demands, te_interval_s=8 * 3600.0
        )
        assert result.n_rounds == 6  # 48h / 8h
        assert len(result.reports) == 6

    def test_upgrades_happen_once_then_stable(self):
        topo, traces, demands = build_scenario()
        ctrl = DynamicCapacityController(topo, policy=run_policy(), seed=0)
        result = replay_controller(ctrl, traces, demands, te_interval_s=8 * 3600.0)
        assert result.n_upgrades[0] > 0
        assert result.n_upgrades[1:].sum() == 0  # SNR stable: no churn

    def test_event_causes_downgrade_and_recovery(self):
        # a deep dip on the whole cable in the middle of the horizon
        event = AmplifierDegradation(86_400.0, 6 * 3600.0, 11.0)  # 16 -> 5 dB
        topo, traces, demands = build_scenario(days=3.0, events=[event])
        ctrl = DynamicCapacityController(topo, policy=run_policy(), seed=0)
        result = replay_controller(ctrl, traces, demands, te_interval_s=4 * 3600.0)
        assert result.n_downgrades.sum() > 0
        # throughput dips during the event but recovers
        assert result.throughput_gbps.min() < result.throughput_gbps.max()
        assert result.throughput_gbps[-1] == pytest.approx(
            result.throughput_gbps[0], rel=0.05
        )

    def test_crawl_never_upgrades(self):
        topo, traces, demands = build_scenario()
        ctrl = DynamicCapacityController(topo, policy=crawl_policy(), seed=0)
        result = replay_controller(ctrl, traces, demands, te_interval_s=8 * 3600.0)
        assert result.n_upgrades.sum() == 0

    def test_total_downtime_accumulates(self):
        topo, traces, demands = build_scenario()
        ctrl = DynamicCapacityController(topo, policy=run_policy(), seed=0)
        result = replay_controller(ctrl, traces, demands, te_interval_s=8 * 3600.0)
        assert result.total_downtime_s == pytest.approx(ctrl.total_downtime_s)

    def test_max_rounds(self):
        topo, traces, demands = build_scenario(days=5.0)
        ctrl = DynamicCapacityController(topo, policy=run_policy(), seed=0)
        result = replay_controller(
            ctrl, traces, demands, te_interval_s=4 * 3600.0, max_rounds=3
        )
        assert result.n_rounds == 3

    def test_resume_reports_every_journaled_round(self, tmp_path):
        topo, traces, demands = build_scenario()

        def run(**kwargs):
            ctrl = DynamicCapacityController(topo, policy=run_policy(), seed=0)
            return replay_controller(
                ctrl, traces, demands, te_interval_s=8 * 3600.0,
                journal_dir=str(tmp_path), **kwargs,
            )

        full = run(max_rounds=4)
        resumed = run(max_rounds=2, resume=True)
        assert resumed.n_rounds == 4
        np.testing.assert_array_equal(resumed.times_s, full.times_s)
        np.testing.assert_array_equal(resumed.throughput_gbps, full.throughput_gbps)

    def test_validation_errors(self):
        topo, traces, demands = build_scenario()
        ctrl = DynamicCapacityController(topo, seed=0)
        with pytest.raises(ValueError, match="at least one trace"):
            replay_controller(ctrl, {}, demands)
        with pytest.raises(ValueError, match="finer"):
            replay_controller(ctrl, traces, demands, te_interval_s=60.0)

    def test_rejected_inputs_leave_no_journal(self, tmp_path):
        topo, traces, demands = build_scenario(days=1.0)

        def fresh(**kw):
            ctrl = DynamicCapacityController(topo, seed=0)
            return replay_controller(
                ctrl, traces, demands, journal_dir=str(tmp_path), **kw
            )

        with pytest.raises(ValueError, match="finer"):
            fresh(te_interval_s=60.0)
        assert list(tmp_path.iterdir()) == []
        assert fresh().n_rounds > 0

    def test_mismatched_timebases_rejected(self):
        topo, traces, demands = build_scenario()
        other_tb = Timebase.from_duration(days=1.0)
        alien = synthesize_cable_traces(
            "x",
            np.array([16.0]),
            other_tb,
            [],
            {},
            NoiseModel(),
            np.random.default_rng(0),
        )[0]
        broken = dict(traces)
        broken[list(broken)[0]] = alien
        ctrl = DynamicCapacityController(topo, seed=0)
        with pytest.raises(ValueError, match="share one timebase"):
            replay_controller(ctrl, broken, demands)
