"""Tests for the fault injector and the faulted telemetry view."""

import math

import numpy as np
import pytest

from repro.faults.inject import FaultInjector, FaultyTelemetryFeed, as_injector
from repro.faults.spec import FaultPlan, FaultSpec
from repro.telemetry.timebase import Timebase
from repro.telemetry.traces import SnrTrace, TelemetryFeed


def make_feed(n=96, links=("l0", "l1"), base=16.0):
    timebase = Timebase(n_samples=n, interval_s=900.0)
    return TelemetryFeed(
        {
            link_id: SnrTrace(
                link_id=link_id,
                cable_name="c",
                timebase=timebase,
                snr_db=base + 0.01 * np.arange(n) + i,
                baseline_db=base,
                events=(),
            )
            for i, link_id in enumerate(links)
        }
    )


def plan_of(*specs, seed=5):
    return FaultPlan(specs=tuple(specs), seed=seed)


class TestAsInjector:
    def test_none_passes_through(self):
        assert as_injector(None) is None

    def test_plan_is_armed(self):
        injector = as_injector(FaultPlan.standard())
        assert isinstance(injector, FaultInjector)

    def test_existing_injector_reused(self):
        injector = FaultInjector(FaultPlan.standard())
        assert as_injector(injector) is injector

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError, match="faults must be"):
            as_injector("chaos please")


class TestWrapFeed:
    def test_no_telemetry_specs_returns_base_unchanged(self):
        feed = make_feed()
        injector = FaultInjector(
            plan_of(FaultSpec("bvt.failure", probability=0.5))
        )
        assert injector.wrap_feed(feed) is feed

    def test_empty_plan_is_identity(self):
        feed = make_feed()
        wrapped = FaultyTelemetryFeed(feed, FaultInjector(plan_of()))
        for index in (0, 10, 95):
            assert wrapped.sample(index).snr_db == feed.sample(index).snr_db

    def test_zero_intensity_standard_plan_is_identity(self):
        feed = make_feed()
        injector = FaultInjector(FaultPlan.standard(0.0))
        wrapped = injector.wrap_feed(feed)
        got = [s.snr_db for s in wrapped.iter_samples()]
        want = [s.snr_db for s in feed.iter_samples()]
        assert got == want
        assert injector.counts == {}


class TestDeterminism:
    def test_same_plan_same_faulted_values(self):
        plan = FaultPlan.standard(2.0, seed=9)
        a = FaultInjector(plan).wrap_feed(make_feed())
        b = FaultInjector(plan).wrap_feed(make_feed())
        for index in range(96):
            sa, sb = a.sample(index).snr_db, b.sample(index).snr_db
            for link_id in sa:
                va, vb = sa[link_id], sb[link_id]
                assert va == vb or (math.isnan(va) and math.isnan(vb))

    def test_read_order_does_not_matter(self):
        plan = FaultPlan.standard(2.0, seed=9)
        forward = FaultInjector(plan).wrap_feed(make_feed())
        backward = FaultInjector(plan).wrap_feed(make_feed())
        fwd = {i: forward.sample(i).snr_db for i in range(96)}
        bwd = {i: backward.sample(i).snr_db for i in reversed(range(96))}
        for i in range(96):
            for link_id in fwd[i]:
                va, vb = fwd[i][link_id], bwd[i][link_id]
                assert va == vb or (math.isnan(va) and math.isnan(vb))

    def test_strided_iteration_matches_random_access(self):
        plan = FaultPlan.standard(2.0, seed=9)
        feed = FaultInjector(plan).wrap_feed(make_feed())
        strided = {s.index: s.snr_db for s in feed.iter_samples(stride=4)}
        for index, snrs in strided.items():
            direct = feed.sample(index).snr_db
            for link_id in snrs:
                va, vb = snrs[link_id], direct[link_id]
                assert va == vb or (math.isnan(va) and math.isnan(vb))

    def test_different_seeds_differ(self):
        spec = FaultSpec("telemetry.corrupt", probability=1.0, magnitude_db=5.0)
        a = FaultInjector(plan_of(spec, seed=1)).wrap_feed(make_feed())
        b = FaultInjector(plan_of(spec, seed=2)).wrap_feed(make_feed())
        assert a.sample(3).snr_db != b.sample(3).snr_db


class TestTelemetryKinds:
    def test_dropout_serves_nan_inside_windows(self):
        # a rate this high makes "no window drawn" astronomically unlikely
        spec = FaultSpec("telemetry.dropout", rate_per_day=50.0, duration_s=3600.0)
        injector = FaultInjector(plan_of(spec))
        feed = injector.wrap_feed(make_feed())
        dropped = sum(
            1
            for s in feed.iter_samples()
            for v in s.snr_db.values()
            if math.isnan(v)
        )
        assert dropped > 0
        assert injector.counts["telemetry.dropout"] == dropped

    def test_stuck_windows_freeze_the_reading(self):
        import bisect

        spec = FaultSpec("telemetry.stuck", rate_per_day=50.0, duration_s=7200.0)
        feed = FaultyTelemetryFeed(make_feed(), FaultInjector(plan_of(spec)))
        windows = feed._windows["telemetry.stuck"]["l0"]
        assert windows
        tb = feed.timebase
        # group covered samples by their covering window: the reading
        # must be constant within each group (frozen at the pre-window
        # value), even though the base trace is strictly increasing
        groups: dict[int, list[int]] = {}
        for i in range(tb.n_samples):
            t = tb.start_s + i * tb.interval_s
            if windows.covers(t):
                w = bisect.bisect_right(windows.starts, t) - 1
                groups.setdefault(w, []).append(i)
        assert groups
        for indices in groups.values():
            assert len({feed.sample(i).snr_db["l0"] for i in indices}) == 1

    def test_delay_serves_old_samples(self):
        spec = FaultSpec(
            "telemetry.delay",
            rate_per_day=50.0,
            duration_s=7200.0,
            delay_samples=3,
        )
        base = make_feed()
        feed = FaultyTelemetryFeed(base, FaultInjector(plan_of(spec)))
        windows = feed._windows["telemetry.delay"]["l0"]
        tb = feed.timebase
        checked = 0
        for i in range(4, tb.n_samples):
            if windows.covers(tb.start_s + i * tb.interval_s):
                assert feed.sample(i).snr_db["l0"] == base.sample(i - 3).snr_db["l0"]
                checked += 1
        assert checked > 0

    def test_corrupt_adds_offsets_at_probability_one(self):
        spec = FaultSpec("telemetry.corrupt", probability=1.0, magnitude_db=5.0)
        base = make_feed()
        injector = FaultInjector(plan_of(spec))
        feed = injector.wrap_feed(base)
        diffs = [
            feed.sample(i).snr_db["l0"] - base.sample(i).snr_db["l0"]
            for i in range(96)
        ]
        assert all(d != 0.0 for d in diffs)
        assert np.std(diffs) > 1.0  # Gaussian with sigma 5, not a constant
        assert injector.counts["telemetry.corrupt"] == 96 * 2  # both links

    def test_link_filter_scopes_the_fault(self):
        spec = FaultSpec(
            "telemetry.corrupt", probability=1.0, magnitude_db=5.0, links=("l0",)
        )
        base = make_feed()
        feed = FaultyTelemetryFeed(base, FaultInjector(plan_of(spec)))
        assert feed.sample(7).snr_db["l1"] == base.sample(7).snr_db["l1"]
        assert feed.sample(7).snr_db["l0"] != base.sample(7).snr_db["l0"]


class TestHardwareAndSolverSeams:
    def test_bvt_verdict_deterministic_per_link(self):
        plan = plan_of(
            FaultSpec("bvt.failure", probability=0.3),
            FaultSpec("bvt.power_cycle", probability=0.3),
        )
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        seq_a = [a.bvt_verdict("l0") for _ in range(50)]
        seq_b = [b.bvt_verdict("l0") for _ in range(50)]
        assert seq_a == seq_b
        assert "fail" in seq_a and "power_cycle" in seq_a

    def test_bvt_verdict_zero_probability_draws_nothing(self):
        injector = FaultInjector(plan_of())
        assert injector.bvt_verdict("l0") is None
        assert injector._bvt_rngs == {}  # no stream was even created

    def test_te_fails_respects_probability(self):
        never = FaultInjector(plan_of())
        assert not any(never.te_fails() for _ in range(20))
        always = FaultInjector(
            plan_of(FaultSpec("te.exception", probability=1.0))
        )
        assert all(always.te_fails() for _ in range(20))
        assert always.counts["te.exception"] == 20
