"""Crash-equivalence: crash at any seam, recover, byte-diff vs reference.

The full (rounds x seams) grid runs in CI via ``repro chaos --crash``;
here a representative subset proves each seam and each simulator
resumes byte-identically, keeping the suite fast.
"""

import pytest

from repro.core.controller import DynamicCapacityController
from repro.core.policies import run_policy
from repro.faults.chaos import _chaos_inputs, crash_verdicts, run_crash_point
from repro.faults.inject import FaultInjector
from repro.faults.spec import CRASH_SEAMS, FaultPlan, FaultSpec
from repro.recovery.journal import ControllerCrash, scan_frames
from repro.sim.reactive import reactive_replay
from repro.sim.replay import replay_controller


def crash_plan(crash_round, seam, *, seed=7, base=None):
    specs = tuple(base.specs) if base is not None else ()
    specs += (
        FaultSpec("controller.crash", crash_round=crash_round, crash_seam=seam),
    )
    return FaultPlan(specs=specs, seed=seed)


class TestInjectorSeam:
    def test_crash_seam_matches_only_its_round(self):
        injector = FaultInjector(crash_plan(2, "mid-write"))
        assert injector.crash_seam(0) is None
        assert injector.crash_seam(2) == "mid-write"
        assert injector.counts["controller.crash"] == 1

    def test_no_crash_spec_is_inert(self):
        injector = FaultInjector(FaultPlan())
        assert injector.crash_seam(0) is None


class TestReplayCrashEquivalence:
    @pytest.mark.parametrize("seam", CRASH_SEAMS)
    def test_each_seam_recovers_byte_identically(self, seam, tmp_path):
        point = run_crash_point(
            crash_round=1, seam=seam, journal_dir=str(tmp_path)
        )
        assert point["crashed"]
        assert point["n_rounds"] == point["n_reference_rounds"]
        assert point["byte_identical"], point
        assert crash_verdicts([point]) == []

    @pytest.mark.parametrize("seam", CRASH_SEAMS)
    def test_crash_at_a_repeat_round_recovers_byte_identically(
        self, seam, tmp_path
    ):
        # two days are 12 rounds; rounds 2-4 sit before the dip and
        # change nothing, so round 3's frame repeats round 2's
        topology, traces_by_link, demands = _chaos_inputs(2.0, 7)
        replay_controller(
            DynamicCapacityController(topology, policy=run_policy(), seed=7),
            traces_by_link,
            demands,
            te_interval_s=4 * 3600.0,
            journal_dir=str(tmp_path / "plain"),
        )
        frames = scan_frames((tmp_path / "plain" / "wal-0.jsonl").read_bytes())[0]
        (frame,) = [f for f in frames if f["t"] == "round" and f["round"] == 3]
        assert frame["repeat"] == 2

        point = run_crash_point(
            crash_round=3, seam=seam, days=2.0, journal_dir=str(tmp_path / "crash")
        )
        assert point["crashed"]
        assert point["n_rounds"] == point["n_reference_rounds"] == 12
        assert point["byte_identical"], point
        assert crash_verdicts([point]) == []

    def test_journaled_run_matches_unjournaled(self, tmp_path):
        topology, traces_by_link, demands = _chaos_inputs(1.0, 7)

        def run(**kwargs):
            controller = DynamicCapacityController(topology, seed=7)
            return replay_controller(
                controller,
                traces_by_link,
                demands,
                te_interval_s=4 * 3600.0,
                **kwargs,
            )

        plain = run()
        journaled = run(journal_dir=str(tmp_path))
        assert plain.times_s.tolist() == journaled.times_s.tolist()
        assert plain.throughput_gbps.tolist() == journaled.throughput_gbps.tolist()
        assert plain.downtime_s.tolist() == journaled.downtime_s.tolist()

    def test_crash_with_standard_faults_resumes_identically(self, tmp_path):
        topology, traces_by_link, demands = _chaos_inputs(1.0, 7)
        standard = FaultPlan.standard(1.0, seed=7)

        def run(plan, **kwargs):
            controller = DynamicCapacityController(topology, seed=7)
            return replay_controller(
                controller,
                traces_by_link,
                demands,
                te_interval_s=4 * 3600.0,
                faults=FaultInjector(plan),
                **kwargs,
            )

        reference = run(standard)
        with pytest.raises(ControllerCrash):
            run(
                crash_plan(2, "post-commit", base=standard),
                journal_dir=str(tmp_path),
            )
        resumed = run(standard, journal_dir=str(tmp_path), resume=True)
        assert reference.times_s.tolist() == resumed.times_s.tolist()
        assert (
            reference.throughput_gbps.tolist()
            == resumed.throughput_gbps.tolist()
        )
        assert [r.n_retries for r in reference.reports] == [
            r.n_retries for r in resumed.reports
        ]
        assert [r.fault_capacity_loss_gbps for r in reference.reports] == [
            r.fault_capacity_loss_gbps for r in resumed.reports
        ]


class TestReactiveCrashEquivalence:
    @pytest.mark.parametrize("mode", ["reactive", "proactive"])
    def test_resume_reproduces_uninterrupted_result(self, mode, tmp_path):
        topology, traces_by_link, demands = _chaos_inputs(1.0, 7)

        def run(**kwargs):
            controller = DynamicCapacityController(topology, seed=7)
            return reactive_replay(
                controller,
                traces_by_link,
                demands,
                te_interval_s=4 * 3600.0,
                mode=mode,
                **kwargs,
            )

        reference = run()
        journal_dir = str(tmp_path / mode)
        with pytest.raises(ControllerCrash):
            run(faults=crash_plan(2, "mid-write"), journal_dir=journal_dir)
        resumed = run(journal_dir=journal_dir, resume=True)
        assert resumed == reference

    def test_auto_resume_detects_existing_journal(self, tmp_path):
        topology, traces_by_link, demands = _chaos_inputs(1.0, 7)

        def run(**kwargs):
            controller = DynamicCapacityController(topology, seed=7)
            return reactive_replay(
                controller,
                traces_by_link,
                demands,
                te_interval_s=4 * 3600.0,
                **kwargs,
            )

        journal_dir = str(tmp_path)
        first = run(journal_dir=journal_dir, resume="auto")  # fresh bind
        again = run(journal_dir=journal_dir, resume="auto")  # full resume
        assert again == first
