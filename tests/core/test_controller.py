"""Tests for the dynamic-capacity control loop."""

import numpy as np
import pytest

from repro.bvt.transceiver import ChangeProcedure
from repro.core.controller import DynamicCapacityController
from repro.core.policies import crawl_policy, run_policy, walk_policy
from repro.net.demands import Demand, gravity_demands
from repro.net.topologies import abilene, line_topology


def healthy_snrs(topology, snr_db=16.0):
    return {l.link_id: snr_db for l in topology.real_links()}


@pytest.fixture
def demands():
    topo = abilene()
    return gravity_demands(topo, 3000.0, np.random.default_rng(1))


class TestUpgradePath:
    def test_headroom_turns_into_throughput(self, demands):
        topo = abilene()
        dynamic = DynamicCapacityController(topo, policy=run_policy(), seed=0)
        static = DynamicCapacityController(topo, policy=crawl_policy(), seed=0)
        snrs = healthy_snrs(topo)
        dyn_report = dynamic.step(snrs, demands)
        static_report = static.step(snrs, demands)
        assert dyn_report.throughput_gbps > static_report.throughput_gbps
        assert dyn_report.upgrades
        assert static_report.upgrades == ()

    def test_upgrades_land_on_ladder(self, demands):
        topo = abilene()
        ctrl = DynamicCapacityController(topo, policy=run_policy(), seed=0)
        report = ctrl.step(healthy_snrs(topo), demands)
        for upgrade in report.upgrades:
            assert upgrade.new_capacity_gbps in (125.0, 150.0, 175.0, 200.0)
            assert ctrl.state.capacity_of(upgrade.link_id) == upgrade.new_capacity_gbps

    def test_solution_valid(self, demands):
        topo = abilene()
        ctrl = DynamicCapacityController(topo, policy=run_policy(), seed=0)
        report = ctrl.step(healthy_snrs(topo), demands)
        assert report.solution.is_valid()

    def test_efficient_procedure_downtime_small(self, demands):
        topo = abilene()
        ctrl = DynamicCapacityController(
            topo, policy=run_policy(), procedure=ChangeProcedure.EFFICIENT, seed=0
        )
        report = ctrl.step(healthy_snrs(topo), demands)
        assert report.upgrades
        # ~35 ms per change
        assert report.reconfiguration_downtime_s < 0.1 * len(report.upgrades)

    def test_standard_procedure_downtime_large(self, demands):
        topo = abilene()
        ctrl = DynamicCapacityController(
            topo, policy=run_policy(), procedure=ChangeProcedure.STANDARD, seed=0
        )
        report = ctrl.step(healthy_snrs(topo), demands)
        assert report.reconfiguration_downtime_s > 30.0 * len(report.upgrades)

    def test_second_step_no_churn_when_stable(self, demands):
        topo = abilene()
        ctrl = DynamicCapacityController(topo, policy=run_policy(), seed=0)
        snrs = healthy_snrs(topo)
        ctrl.step(snrs, demands)
        second = ctrl.step(snrs, demands)
        # capacities already match the SNR: nothing to change
        assert second.upgrades == ()
        assert second.downgrades == ()


class TestDowngradePath:
    def test_degradation_flaps_not_fails(self, demands):
        topo = abilene()
        ctrl = DynamicCapacityController(topo, policy=walk_policy(), seed=0)
        snrs = healthy_snrs(topo)
        victim = topo.real_links()[0].link_id
        ctrl.step(snrs, demands)
        snrs[victim] = 4.0  # below 100G threshold, above 50G's
        report = ctrl.step(snrs, demands)
        flap = [d for d in report.downgrades if d.link_id == victim]
        assert len(flap) == 1
        assert flap[0].new_capacity_gbps == 50.0
        assert not flap[0].is_failure
        assert victim not in report.failed_links

    def test_loss_of_light_fails_link(self, demands):
        topo = abilene()
        ctrl = DynamicCapacityController(topo, policy=walk_policy(), seed=0)
        snrs = healthy_snrs(topo)
        victim = topo.real_links()[0].link_id
        snrs[victim] = 0.0
        report = ctrl.step(snrs, demands)
        assert victim in report.failed_links
        assert ctrl.state.capacity_of(victim) == 0.0
        # the TE solution must not touch the dead link
        assert report.solution.link_flow(victim) == 0.0

    def test_failed_link_restores(self, demands):
        topo = abilene()
        ctrl = DynamicCapacityController(topo, policy=crawl_policy(), seed=0)
        snrs = healthy_snrs(topo)
        victim = topo.real_links()[0].link_id
        snrs[victim] = 0.0
        ctrl.step(snrs, demands)
        assert ctrl.state.capacity_of(victim) == 0.0
        snrs[victim] = 16.0
        ctrl.step(snrs, demands)
        # crawl restores to the provisioned rate, never higher
        assert ctrl.state.capacity_of(victim) == 100.0

    def test_unknown_link_rejected(self, demands):
        topo = abilene()
        ctrl = DynamicCapacityController(topo, seed=0)
        with pytest.raises(KeyError):
            ctrl.step({"nope": 10.0}, demands)


class TestInjectableTe:
    def test_custom_te_algorithm_used(self):
        from repro.te.cspf import cspf_allocate

        topo = line_topology(3)
        demands = [Demand("n0", "n2", 150.0)]
        ctrl = DynamicCapacityController(
            topo, policy=run_policy(), te_algorithm=cspf_allocate, seed=0
        )
        report = ctrl.step(healthy_snrs(topo), demands)
        # CSPF routes unsplit; with parallel fake links its single best
        # path carries at most 100, so allocation is partial
        assert 0 < report.throughput_gbps <= 150.0

    def test_downtime_accumulates(self, demands):
        topo = abilene()
        ctrl = DynamicCapacityController(topo, policy=run_policy(), seed=0)
        snrs = healthy_snrs(topo)
        r1 = ctrl.step(snrs, demands)
        assert ctrl.total_downtime_s == pytest.approx(
            r1.reconfiguration_downtime_s
        )
