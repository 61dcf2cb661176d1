"""Tests for SRLG-aware upgrade batching in the controller."""

import numpy as np
import pytest

from repro.core.controller import DynamicCapacityController
from repro.core.policies import run_policy
from repro.net.demands import gravity_demands
from repro.net.srlg import duplex_srlgs
from repro.net.topologies import abilene


@pytest.fixture
def setup():
    topo = abilene()
    demands = gravity_demands(topo, 3000.0, np.random.default_rng(1))
    snrs = {l.link_id: 16.0 for l in topo.real_links()}
    return topo, demands, snrs


class TestSrlgAwareController:
    def test_batches_reported(self, setup):
        topo, demands, snrs = setup
        ctrl = DynamicCapacityController(
            topo, policy=run_policy(), srlgs=duplex_srlgs(topo), seed=0
        )
        report = ctrl.step(snrs, demands)
        assert report.upgrades
        # duplex pairs upgrading both directions force >= 2 batches
        assert report.n_reconfiguration_batches >= 2

    def test_without_srlgs_single_batch(self, setup):
        topo, demands, snrs = setup
        ctrl = DynamicCapacityController(topo, policy=run_policy(), seed=0)
        report = ctrl.step(snrs, demands)
        assert report.upgrades
        assert report.n_reconfiguration_batches == 1

    def test_no_upgrades_zero_batches(self, setup):
        topo, demands, snrs = setup
        ctrl = DynamicCapacityController(
            topo, policy=run_policy(), srlgs=duplex_srlgs(topo), seed=0
        )
        ctrl.step(snrs, demands)
        second = ctrl.step(snrs, demands)
        assert second.upgrades == ()
        assert second.n_reconfiguration_batches == 0

    def test_final_capacities_identical(self, setup):
        """Scheduling changes the order, never the outcome."""
        topo, demands, snrs = setup
        plain = DynamicCapacityController(topo, policy=run_policy(), seed=0)
        scheduled = DynamicCapacityController(
            topo, policy=run_policy(), srlgs=duplex_srlgs(topo), seed=0
        )
        plain.step(snrs, demands)
        scheduled.step(snrs, demands)
        assert {l.link_id: l.capacity_gbps for l in plain.state} == {
            l.link_id: l.capacity_gbps for l in scheduled.state
        }
