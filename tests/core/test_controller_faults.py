"""Tests for the hardened control loop: retry, stale hold, TE fallback."""

import math

import numpy as np
import pytest

from repro.core.controller import (
    STALE_HOLD_ROUNDS,
    DynamicCapacityController,
    RetryPolicy,
)
from repro.core.policies import crawl_policy, run_policy
from repro.net.demands import gravity_demands
from repro.net.topologies import line_topology
from repro.seeds import component_rng


class ScriptedInjector:
    """Duck-typed injector with pre-scripted verdicts (then clean)."""

    def __init__(self, bvt=(), te=()):
        self.bvt = list(bvt)
        self.te = list(te)

    def bvt_verdict(self, link_id):
        return self.bvt.pop(0) if self.bvt else None

    def te_fails(self):
        return self.te.pop(0) if self.te else False


def make_controller(**kwargs):
    topo = line_topology(3)
    kwargs.setdefault("policy", crawl_policy())
    return DynamicCapacityController(topo, **kwargs), topo


@pytest.fixture
def demands():
    topo = line_topology(3)
    return gravity_demands(topo, 300.0, np.random.default_rng(1))


def healthy(topo, snr_db=16.0):
    return {l.link_id: snr_db for l in topo.real_links()}


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter_frac=1.0)

    def test_delays_grow_exponentially_without_jitter(self):
        policy = RetryPolicy(base_delay_s=1.0, multiplier=2.0, jitter_frac=0.0)
        rng = component_rng(0, "unused")
        assert [policy.delay_s(a, rng) for a in range(3)] == [1.0, 2.0, 4.0]

    def test_jitter_stays_within_fraction(self):
        policy = RetryPolicy(base_delay_s=10.0, multiplier=1.0, jitter_frac=0.2)
        rng = component_rng(0, "jitter")
        for _ in range(100):
            assert 8.0 <= policy.delay_s(0, rng) <= 12.0


class TestZeroCostWhenDisabled:
    def test_zero_retry_equals_no_retry_config(self, demands):
        a, topo = make_controller(policy=run_policy(), seed=0)
        b, _ = make_controller(
            policy=run_policy(), seed=0, retry=RetryPolicy(max_retries=0)
        )
        for snr in (16.0, 5.0, 16.0):
            ra = a.step(healthy(topo, snr), demands)
            rb = b.step(healthy(topo, snr), demands)
            assert ra.throughput_gbps == rb.throughput_gbps
            assert ra.reconfiguration_downtime_s == rb.reconfiguration_downtime_s
        assert {l.link_id: l.capacity_gbps for l in a.state} == {
            l.link_id: l.capacity_gbps for l in b.state
        }

    def test_clean_run_reports_no_fault_fields(self, demands):
        ctrl, topo = make_controller(policy=run_policy(), retry=RetryPolicy())
        report = ctrl.step(healthy(topo), demands)
        assert report.n_retries == 0
        assert report.retry_backoff_s == 0.0
        assert report.reconfig_failed_links == ()
        assert not report.te_fallback
        assert report.stale_links == ()
        assert report.fault_capacity_loss_gbps == 0.0
        assert report.ber_violations == ()

    def test_clean_run_audits_clean(self, demands):
        ctrl, topo = make_controller(policy=run_policy())
        for snr in (16.0, 5.0, 16.0):
            assert ctrl.step(healthy(topo, snr), demands).ber_violations == ()


class TestBvtRetry:
    def test_retry_recovers_from_transient_failure(self, demands):
        ctrl, topo = make_controller(retry=RetryPolicy(max_retries=2))
        ctrl.bind_faults(ScriptedInjector(bvt=["fail"]))
        report = ctrl.step(healthy(topo, 5.0), demands)  # forces downgrades
        assert report.n_retries == 1
        assert report.retry_backoff_s > 0.0
        assert report.reconfig_failed_links == ()
        assert all(d.new_capacity_gbps == 50.0 for d in report.downgrades)

    def test_exhausted_retries_take_link_dark(self, demands):
        ctrl, topo = make_controller(retry=RetryPolicy(max_retries=2))
        ctrl.bind_faults(ScriptedInjector(bvt=["fail"] * 3))
        report = ctrl.step(healthy(topo, 5.0), demands)
        dark = report.reconfig_failed_links
        assert len(dark) == 1
        link = dark[0]
        # the link went dark rather than holding an SNR-infeasible rate
        assert ctrl.state.capacity_of(link) == 0.0
        assert link in report.failed_links
        assert report.fault_capacity_loss_gbps > 0.0
        assert report.n_retries == 2

    def test_no_retry_policy_fails_fast(self, demands):
        ctrl, topo = make_controller(retry=None)
        ctrl.bind_faults(ScriptedInjector(bvt=["fail"]))
        report = ctrl.step(healthy(topo, 5.0), demands)
        assert report.n_retries == 0
        assert len(report.reconfig_failed_links) == 1

    def test_backoff_deterministic_under_fixed_seed(self, demands):
        def run():
            ctrl, topo = make_controller(
                retry=RetryPolicy(max_retries=3), seed=42
            )
            ctrl.bind_faults(ScriptedInjector(bvt=["fail", "fail"]))
            return ctrl.step(healthy(topo, 5.0), demands).retry_backoff_s

        first, second = run(), run()
        assert first == second
        assert first > 0.0

    def test_power_cycle_verdict_costs_standard_downtime(self, demands):
        fast, topo = make_controller(policy=run_policy(), seed=0)
        slow, _ = make_controller(policy=run_policy(), seed=0)
        slow.bind_faults(ScriptedInjector(bvt=["power_cycle"] * 64))
        fast_report = fast.step(healthy(topo), demands)
        slow_report = slow.step(healthy(topo), demands)
        assert fast_report.upgrades
        # the laser power-cycle path is seconds, the in-service swap ms
        assert (
            slow_report.reconfiguration_downtime_s
            > 100 * fast_report.reconfiguration_downtime_s
        )


class TestStaleTelemetry:
    def test_hold_then_fallback(self, demands):
        ctrl, topo = make_controller()
        link = topo.real_links()[0].link_id
        ctrl.step(healthy(topo), demands)  # seed last-good readings
        snrs = healthy(topo)
        snrs[link] = math.nan
        # held at the last good reading, no downgrade
        for _ in range(STALE_HOLD_ROUNDS):
            report = ctrl.step(snrs, demands)
            assert report.stale_links == (link,)
            assert ctrl.state.capacity_of(link) == 100.0
        # hold expired — fall back to the 50 Gbps floor
        report = ctrl.step(snrs, demands)
        assert ctrl.state.capacity_of(link) == 50.0
        assert report.fault_capacity_loss_gbps == 50.0
        assert any(d.link_id == link for d in report.downgrades)

    def test_finite_reading_resets_the_hold(self, demands):
        ctrl, topo = make_controller()
        link = topo.real_links()[0].link_id
        ctrl.step(healthy(topo), demands)
        snrs = healthy(topo)
        for _ in range(2):
            snrs[link] = math.nan
            for _ in range(STALE_HOLD_ROUNDS):
                ctrl.step(snrs, demands)
            snrs[link] = 16.0
            ctrl.step(snrs, demands)
        assert ctrl.state.capacity_of(link) == 100.0  # never fell back

    def test_dark_link_never_restores_on_stale_reading(self, demands):
        ctrl, topo = make_controller()
        link = topo.real_links()[0].link_id
        snrs = healthy(topo)
        snrs[link] = -60.0  # loss of light: link fails
        ctrl.step(snrs, demands)
        assert ctrl.state.capacity_of(link) == 0.0
        snrs[link] = math.nan
        report = ctrl.step(snrs, demands)
        assert ctrl.state.capacity_of(link) == 0.0
        assert link not in report.restored_links


class TestTeFallback:
    def test_first_round_failure_degrades_to_empty(self, demands):
        ctrl, topo = make_controller(retry=RetryPolicy(max_retries=1))
        ctrl.bind_faults(ScriptedInjector(te=[True, True]))
        report = ctrl.step(healthy(topo), demands)
        assert report.te_fallback
        assert report.throughput_gbps == 0.0
        assert report.upgrades == ()
        assert report.n_retries == 1

    def test_later_failure_holds_last_good_solution(self, demands):
        ctrl, topo = make_controller(retry=None)
        injector = ScriptedInjector(te=[False, True])
        ctrl.bind_faults(injector)
        good = ctrl.step(healthy(topo), demands)
        held = ctrl.step(healthy(topo), demands)
        assert held.te_fallback
        assert held.throughput_gbps == good.throughput_gbps

    def test_recovery_after_fallback(self, demands):
        ctrl, topo = make_controller(retry=None)
        ctrl.bind_faults(ScriptedInjector(te=[True]))
        assert ctrl.step(healthy(topo), demands).te_fallback
        clean = ctrl.step(healthy(topo), demands)
        assert not clean.te_fallback
        assert clean.throughput_gbps > 0.0
