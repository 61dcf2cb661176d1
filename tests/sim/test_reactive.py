"""Tests for the reaction-time simulator."""

import numpy as np
import pytest

from repro.core.controller import DynamicCapacityController
from repro.core.policies import run_policy
from repro.net.demands import gravity_demands
from repro.net.topologies import line_topology
from repro.optics.impairments import AmplifierDegradation
from repro.sim.reactive import reactive_replay
from repro.telemetry.timebase import Timebase
from repro.telemetry.traces import NoiseModel, synthesize_cable_traces


def build_scenario(days=4.0, events=(), seed=1, baseline=15.0):
    topo = line_topology(3)
    tb = Timebase.from_duration(days=days)
    link_ids = [l.link_id for l in topo.real_links()]
    traces = synthesize_cable_traces(
        "reactive-cable",
        np.full(len(link_ids), baseline),
        tb,
        list(events),
        {},
        NoiseModel(sigma_db=0.08, wander_amplitude_db=0.0),
        np.random.default_rng(seed),
    )
    demands = gravity_demands(topo, 400.0, np.random.default_rng(2))
    return topo, dict(zip(link_ids, traces)), demands


def run(mode, events=(), **kw):
    topo, traces, demands = build_scenario(events=events)
    controller = DynamicCapacityController(topo, policy=run_policy(), seed=0)
    return reactive_replay(controller, traces, demands, mode=mode, **kw)


#: a dip from 15 dB to ~5 dB for six hours, starting 45 minutes after a
#: scheduled round so the scheduled mode is blind to it for over 3 hours
DIP = AmplifierDegradation(2.0 * 86_400.0 + 2_700.0, 6 * 3600.0, 10.0)


class TestModes:
    def test_validation(self):
        topo, traces, demands = build_scenario()
        controller = DynamicCapacityController(topo, seed=0)
        with pytest.raises(ValueError, match="unknown mode"):
            reactive_replay(controller, traces, demands, mode="psychic")
        with pytest.raises(ValueError, match="at least one trace"):
            reactive_replay(controller, {}, demands)
        with pytest.raises(ValueError, match="finer"):
            reactive_replay(controller, traces, demands, te_interval_s=60.0)

    def test_too_fine_interval_leaves_no_journal(self, tmp_path):
        # a rejected run must not write a journal: the next fresh run on
        # the same directory would refuse to clobber it
        topo, traces, demands = build_scenario(days=1.0)

        def fresh(**kw):
            controller = DynamicCapacityController(topo, policy=run_policy(), seed=0)
            return reactive_replay(
                controller, traces, demands, journal_dir=str(tmp_path), **kw
            )

        with pytest.raises(ValueError, match="finer"):
            fresh(te_interval_s=60.0)
        assert list(tmp_path.iterdir()) == []
        assert fresh().n_scheduled_rounds > 0

    def test_mode_validated_before_traces(self):
        # a bad mode must fail fast, even when the traces are also bad:
        # mode is caller intent, traces are data, and intent is checked first
        topo, _, demands = build_scenario()
        controller = DynamicCapacityController(topo, seed=0)
        with pytest.raises(ValueError, match="unknown mode 'psychic'"):
            reactive_replay(controller, {}, demands, mode="psychic")

    def test_mode_error_lists_the_choices(self):
        topo, traces, demands = build_scenario()
        controller = DynamicCapacityController(topo, seed=0)
        with pytest.raises(
            ValueError, match="scheduled.*reactive.*proactive"
        ):
            reactive_replay(controller, traces, demands, mode="RUN")

    def test_quiet_horizon_no_emergencies_no_loss(self):
        for mode in ("scheduled", "reactive", "proactive"):
            result = run(mode)
            assert result.n_emergency_rounds == 0
            assert result.lost_gbps_hours == pytest.approx(0.0)

    def test_scheduled_round_count(self):
        result = run("scheduled")
        # 4 days at 4-hour rounds
        assert result.n_scheduled_rounds == 24
        assert result.total_rounds == 24

    def test_reactive_fires_emergency_on_dip(self):
        result = run("reactive", events=[DIP])
        assert result.n_emergency_rounds >= 1

    def test_reaction_reduces_lost_traffic(self):
        slow = run("scheduled", events=[DIP])
        fast = run("reactive", events=[DIP])
        assert slow.lost_gbps_hours > 0
        assert fast.lost_gbps_hours < slow.lost_gbps_hours

    def test_reactive_loss_bounded_by_one_sample(self):
        # reactive mode reacts at the sample after the crossing: at most
        # ~one 15-minute interval of loss per event edge per link
        result = run("reactive", events=[DIP])
        assert result.lost_gbps_hours <= 400.0 * 0.25 * 4  # generous bound

    def test_proactive_no_worse_than_reactive(self):
        reactive = run("reactive", events=[DIP])
        proactive = run("proactive", events=[DIP])
        assert proactive.lost_gbps_hours <= reactive.lost_gbps_hours + 1e-6

    def test_proactive_does_not_spam_rounds(self):
        result = run("proactive", events=[DIP])
        # one dip: a handful of rounds, not one per sample
        assert result.n_emergency_rounds < 12

    def test_throughput_tracked(self):
        result = run("reactive", events=[DIP])
        assert result.mean_throughput_gbps > 0


#: a shallow 1 dB dip from a 16 dB baseline: never crosses the 200G
#: threshold (14.5 dB), so reactive mode is blind to it — but it is
#: ~12 sigma of the 0.08 dB noise floor, so the EWMA detector flags it
SHALLOW_DIP = AmplifierDegradation(2.0 * 86_400.0 + 2_700.0, 6 * 3600.0, 1.0)


def run_high_margin(mode):
    topo, traces, demands = build_scenario(
        events=[SHALLOW_DIP], baseline=16.0
    )
    controller = DynamicCapacityController(topo, policy=run_policy(), seed=0)
    return reactive_replay(controller, traces, demands, mode=mode)


class TestProactiveEwma:
    """Proactive mode acts on EWMA dip alarms, not threshold crossings."""

    def test_shallow_dip_invisible_to_reactive(self):
        result = run_high_margin("reactive")
        assert result.n_emergency_rounds == 0
        assert result.lost_gbps_hours == pytest.approx(0.0)

    def test_shallow_dip_triggers_proactive_emergency(self):
        # the pessimistic view (snr - 4 dB) drops the dipping link below
        # the 200G rung, so the policy walks it down ahead of any crossing
        result = run_high_margin("proactive")
        assert result.n_emergency_rounds >= 1

    def test_proactive_emergencies_are_bounded(self):
        # the fire-only-if-the-policy-would-act guard: one shallow dip
        # must not trigger a round at every 15-minute sample
        result = run_high_margin("proactive")
        assert result.n_emergency_rounds < 12

    def test_proactive_no_loss_on_shallow_dip(self):
        # walking down early keeps every configured threshold below the
        # actual SNR, so no reaction lag is ever charged
        result = run_high_margin("proactive")
        assert result.lost_gbps_hours == pytest.approx(0.0)
