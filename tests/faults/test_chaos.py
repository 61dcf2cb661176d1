"""Tests for the chaos harness and its invariant checks."""

import pytest

from repro.faults.chaos import chaos_verdicts, run_chaos_point


@pytest.fixture(scope="module")
def zero_point():
    return run_chaos_point(intensity=0.0)


@pytest.fixture(scope="module")
def faulty_point():
    return run_chaos_point(intensity=1.0)


class TestZeroIntensity:
    def test_is_fault_free(self, zero_point):
        assert zero_point["fault_counts"] == {}
        assert zero_point["n_retries"] == 0
        assert zero_point["n_te_fallbacks"] == 0
        assert zero_point["n_reconfig_failures"] == 0
        assert zero_point["n_stale_link_rounds"] == 0
        assert zero_point["fault_capacity_loss_gbps"] == 0.0

    def test_matches_plain_replay_bit_for_bit(self, zero_point):
        """Intensity 0 goes through faults=None — the golden path."""
        again = run_chaos_point(intensity=0.0)
        assert again == zero_point

    def test_paired_runs_identical(self, zero_point):
        assert zero_point["byte_identical"]


class TestFaultyPoint:
    def test_deterministic_and_ber_safe(self, faulty_point):
        assert faulty_point["byte_identical"]
        assert faulty_point["n_ber_violations"] == 0

    def test_faults_actually_fired(self, faulty_point):
        assert faulty_point["fault_counts"]
        assert faulty_point["n_retries"] > 0

    def test_degrades_relative_to_clean(self, zero_point, faulty_point):
        assert (
            faulty_point["mean_throughput_gbps"]
            <= zero_point["mean_throughput_gbps"] * 1.10
        )

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            run_chaos_point(policy="sprint")


class TestAuditUnderStaleTelemetry:
    """The controller audit is the run's one BER check; at intensity 4
    it must see held and fallen-back readings and stay clean."""

    # seeds 0 (run, crawl), 1 (crawl) and 3 (run) decide a dark link on
    # stale telemetry, so the no-relight check below is not vacuous
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("policy", ["run", "walk", "crawl"])
    def test_audit_clean_and_no_dark_link_relit_on_stale_reading(
        self, policy, seed
    ):
        from repro.core.controller import DynamicCapacityController, RetryPolicy
        from repro.core.policies import POLICIES
        from repro.faults.chaos import _chaos_inputs
        from repro.faults.inject import FaultInjector
        from repro.faults.spec import FaultPlan
        from repro.sim.replay import replay_controller

        topology, traces_by_link, demands = _chaos_inputs(2.0, seed)
        controller = DynamicCapacityController(
            topology,
            policy=POLICIES[policy](),
            seed=seed,
            retry=RetryPolicy(max_retries=3),
        )
        dark_before: list[set[str]] = []
        step = controller.step

        def recording_step(snr_db, round_demands):
            dark_before.append(
                {l for l, s in controller.state.links.items() if s.capacity_gbps <= 0}
            )
            return step(snr_db, round_demands)

        controller.step = recording_step
        result = replay_controller(
            controller,
            traces_by_link,
            demands,
            te_interval_s=3600.0,
            faults=FaultInjector(FaultPlan.standard(4.0, seed=seed)),
        )
        assert all(r.ber_violations == () for r in result.reports)
        assert sum(len(r.stale_links) for r in result.reports) > 0
        for dark, report in zip(dark_before, result.reports, strict=True):
            relit = set(report.restored_links) & set(report.stale_links)
            assert not relit & dark


class TestVerdicts:
    def test_clean_sweep_has_no_verdicts(self, zero_point, faulty_point):
        assert chaos_verdicts([zero_point, faulty_point]) == []

    def test_determinism_break_is_flagged(self, zero_point):
        broken = {**zero_point, "byte_identical": False}
        assert any(
            "byte-identical" in v for v in chaos_verdicts([broken])
        )

    def test_ber_violation_is_flagged(self, zero_point):
        broken = {**zero_point, "n_ber_violations": 2}
        assert any("BER" in v for v in chaos_verdicts([broken]))

    def test_throughput_rise_beyond_slack_is_flagged(self, zero_point):
        low = {**zero_point, "intensity": 0.0, "mean_throughput_gbps": 100.0}
        high = {**zero_point, "intensity": 1.0, "mean_throughput_gbps": 150.0}
        assert any("monotonic" in v for v in chaos_verdicts([low, high]))
        # within slack: no complaint
        near = {**zero_point, "intensity": 1.0, "mean_throughput_gbps": 105.0}
        assert chaos_verdicts([low, near]) == []
