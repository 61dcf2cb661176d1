"""Property-based fuzzing of the closed-loop controller.

Whatever SNR sequence telemetry throws at it, stale (NaN) readings
included, the controller must keep its invariants: no link runs above
the rate its SNR supports, capacities stay on the modulation ladder
(or zero), TE solutions audit clean, downtime only accrues when
hardware is touched, the loop is deterministic given its seed, and the
TE cache (round reuse included) changes nothing a round reports or
carries forward.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller import DynamicCapacityController, RetryPolicy
from repro.core.policies import crawl_policy, run_policy, walk_policy
from repro.faults.inject import FaultInjector
from repro.faults.spec import FaultPlan, FaultSpec
from repro.net.demands import gravity_demands
from repro.net.topologies import figure7_topology
from repro.optics.modulation import DEFAULT_MODULATIONS
from repro.recovery.reports import report_payload

LADDER = set(DEFAULT_MODULATIONS.capacities_gbps) | {0.0}

snr_values = st.floats(min_value=0.0, max_value=22.0)
#: readings as telemetry delivers them: a NaN is a stale sample
readings = st.one_of(snr_values, st.just(float("nan")))
policies = st.sampled_from([run_policy, walk_policy, crawl_policy])


def make_controller(policy_factory, te_cache=None, **kwargs):
    topo = figure7_topology()
    controller = DynamicCapacityController(
        topo, policy=policy_factory(), seed=1, **kwargs
    )
    controller.configure_te_cache(te_cache)
    return topo, controller, gravity_demands(topo, 600.0, np.random.default_rng(0))


@st.composite
def recurring_rounds(draw):
    """SNR rows for up to 8 rounds, drawn from a pool of at most three,
    so that rounds repeat and the round-reuse path runs."""
    pool = draw(
        st.lists(
            st.lists(snr_values, min_size=8, max_size=8), min_size=1, max_size=3
        )
    )
    picks = draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8)
    )
    return [pool[i] for i in picks]


class TestControllerInvariants:
    @settings(max_examples=20, deadline=None)
    @given(
        rounds=st.lists(
            st.lists(readings, min_size=8, max_size=8),
            min_size=1,
            max_size=4,
        ),
        policy_factory=policies,
    )
    def test_invariants_hold_under_arbitrary_snr(self, rounds, policy_factory):
        topo, controller, demands = make_controller(policy_factory)
        link_ids = [l.link_id for l in topo.real_links()]
        for snr_row in rounds:
            snrs = dict(zip(link_ids, snr_row))
            report = controller.step(snrs, demands)
            # no link sits above what its decision-time SNR supports,
            # held and fallen-back readings included
            assert report.ber_violations == ()
            # capacities stay on the ladder
            for link in controller.state.links.values():
                assert link.capacity_gbps in LADDER
            # the TE state respects physics
            assert report.solution.is_valid()
            # no flow on failed links
            for link_id in report.failed_links:
                assert report.solution.link_flow(link_id) == 0.0
            # downtime only when hardware changed
            if report.n_capacity_changes == 0 and not report.failed_links:
                assert report.reconfiguration_downtime_s == 0.0
            assert report.reconfiguration_downtime_s >= 0.0

    @settings(max_examples=10, deadline=None)
    @given(
        snr_row=st.lists(snr_values, min_size=8, max_size=8),
        policy_factory=policies,
    )
    def test_determinism(self, snr_row, policy_factory):
        topo_a, ctrl_a, demands = make_controller(policy_factory)
        topo_b, ctrl_b, _ = make_controller(policy_factory)
        link_ids = [l.link_id for l in topo_a.real_links()]
        snrs = dict(zip(link_ids, snr_row))
        ra = ctrl_a.step(snrs, demands)
        rb = ctrl_b.step(snrs, demands)
        assert {l.link_id: l.capacity_gbps for l in ctrl_a.state} == {
            l.link_id: l.capacity_gbps for l in ctrl_b.state
        }
        assert ra.throughput_gbps == pytest.approx(rb.throughput_gbps)

    @settings(max_examples=10, deadline=None)
    @given(snr=st.floats(min_value=7.0, max_value=22.0))
    def test_healthy_snr_never_fails_links(self, snr):
        topo, controller, demands = make_controller(run_policy)
        snrs = {l.link_id: snr for l in topo.real_links()}
        report = controller.step(snrs, demands)
        assert report.failed_links == ()
        assert all(l.capacity_gbps >= 100.0 for l in controller.state.links.values())

    @settings(max_examples=10, deadline=None)
    @given(
        first=st.floats(min_value=7.0, max_value=22.0),
        dip=st.floats(min_value=0.0, max_value=6.4),
    )
    def test_dip_and_recovery_round_trip(self, first, dip):
        """SNR dip then full recovery always restores service."""
        topo, controller, demands = make_controller(run_policy)
        link_ids = [l.link_id for l in topo.real_links()]
        healthy = {i: first for i in link_ids}
        controller.step(healthy, demands)
        victim = link_ids[0]
        controller.step({**healthy, victim: dip}, demands)
        assert controller.state.capacity_of(victim) < 100.0  # flapped or failed
        controller.step(healthy, demands)
        assert controller.state.capacity_of(victim) >= 100.0


class TestCachedEqualsUncached:
    """``te_cache=None`` (memo, structure reuse, round reuse) against
    ``te_cache=False``, compared after every round."""

    @staticmethod
    def _assert_rounds_equal(rounds, policy_factory, plan=None, **kwargs):
        (topo, cached, demands), (_, uncached, _) = (
            make_controller(policy_factory, te_cache=te_cache, **kwargs)
            for te_cache in (None, False)
        )
        if plan is not None:
            cached.bind_faults(FaultInjector(plan))
            uncached.bind_faults(FaultInjector(plan))
        link_ids = [l.link_id for l in topo.real_links()]
        for snr_row in rounds:
            snrs = dict(zip(link_ids, snr_row))
            a = cached.step(snrs, demands)
            b = uncached.step(snrs, demands)
            assert report_payload(a) == report_payload(b)
            assert cached.runtime_payload() == uncached.runtime_payload()

    @settings(max_examples=25, deadline=None)
    @given(rounds=recurring_rounds(), policy_factory=policies)
    def test_every_round_matches(self, rounds, policy_factory):
        self._assert_rounds_equal(rounds, policy_factory)

    @settings(max_examples=25, deadline=None)
    @given(
        rounds=recurring_rounds(),
        policy_factory=policies,
        fault_seed=st.integers(0, 2**16),
    )
    def test_every_round_matches_under_faults(
        self, rounds, policy_factory, fault_seed
    ):
        # TE failures and BVT faults draw from the injector's streams
        # once per attempt: a reused round must draw exactly as many
        plan = FaultPlan(
            specs=(
                FaultSpec("te.exception", probability=0.3),
                FaultSpec("bvt.failure", probability=0.2),
                FaultSpec("bvt.power_cycle", probability=0.1),
            ),
            seed=fault_seed,
        )
        self._assert_rounds_equal(
            rounds, policy_factory, plan, retry=RetryPolicy(max_retries=1)
        )
