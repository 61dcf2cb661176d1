"""Tests for drain-before-change in the control loop."""

import numpy as np
import pytest

from repro.bvt.transceiver import ChangeProcedure
from repro.core.controller import DynamicCapacityController
from repro.core.policies import run_policy
from repro.net.demands import gravity_demands
from repro.net.topologies import abilene


@pytest.fixture
def setup():
    topo = abilene()
    demands = gravity_demands(topo, 3000.0, np.random.default_rng(1))
    snrs = {l.link_id: 16.0 for l in topo.real_links()}
    return topo, demands, snrs


class TestDrainBeforeChange:
    def test_without_drain_traffic_is_disrupted(self, setup):
        topo, demands, snrs = setup
        ctrl = DynamicCapacityController(
            topo,
            policy=run_policy(),
            procedure=ChangeProcedure.STANDARD,
            seed=0,
        )
        report = ctrl.step(snrs, demands)
        assert report.upgrades
        assert report.traffic_disrupted_gbps > 0
        assert report.interim_solution is None

    def test_with_drain_no_traffic_disrupted(self, setup):
        topo, demands, snrs = setup
        ctrl = DynamicCapacityController(
            topo,
            policy=run_policy(),
            procedure=ChangeProcedure.STANDARD,
            drain_before_change=True,
            seed=0,
        )
        report = ctrl.step(snrs, demands)
        assert report.upgrades
        assert report.traffic_disrupted_gbps == 0.0
        assert report.interim_solution is not None

    def test_interim_avoids_upgraded_links(self, setup):
        topo, demands, snrs = setup
        ctrl = DynamicCapacityController(
            topo, policy=run_policy(), drain_before_change=True, seed=0
        )
        report = ctrl.step(snrs, demands)
        for upgrade in report.upgrades:
            assert report.interim_solution.link_flow(upgrade.link_id) == 0.0

    def test_interim_is_valid_te_state(self, setup):
        topo, demands, snrs = setup
        ctrl = DynamicCapacityController(
            topo, policy=run_policy(), drain_before_change=True, seed=0
        )
        report = ctrl.step(snrs, demands)
        assert report.interim_solution.is_valid()

    def test_no_upgrades_no_interim(self, setup):
        topo, demands, snrs = setup
        ctrl = DynamicCapacityController(
            topo, policy=run_policy(), drain_before_change=True, seed=0
        )
        ctrl.step(snrs, demands)
        second = ctrl.step(snrs, demands)  # stable: nothing to change
        assert second.upgrades == ()
        assert second.interim_solution is None
        assert second.traffic_disrupted_gbps == 0.0

    def test_final_state_unaffected_by_drain(self, setup):
        """Draining changes the journey, not the destination."""
        topo, demands, snrs = setup
        plain = DynamicCapacityController(topo, policy=run_policy(), seed=0)
        drained = DynamicCapacityController(
            topo, policy=run_policy(), drain_before_change=True, seed=0
        )
        r1 = plain.step(snrs, demands)
        r2 = drained.step(snrs, demands)
        assert {l.link_id: l.capacity_gbps for l in plain.state} == {
            l.link_id: l.capacity_gbps for l in drained.state
        }
        assert r1.throughput_gbps == pytest.approx(r2.throughput_gbps, rel=1e-6)
