"""Tests for the runtime safety invariants (repro.recovery.invariants)."""

from types import SimpleNamespace

import pytest

from repro.core.controller import DynamicCapacityController
from repro.net.topologies import line_topology
from repro.recovery.invariants import (
    InvariantMonitor,
    InvariantViolation,
    InvariantViolationError,
)


def make_controller(seed=0):
    return DynamicCapacityController(line_topology(3), seed=seed)


def clean_report(**overrides):
    """The minimal report surface the monitor consults."""
    base = {"restored_links": (), "stale_links": ()}
    base.update(overrides)
    return SimpleNamespace(**base)


def doctor_ber_violation(controller):
    """Commit a state holding one link above its SNR-feasible capacity."""
    link_id = next(iter(controller.state.links))
    feasible = controller.table.feasible_capacity(10.0)
    controller.state_store.commit(
        {link_id: {"snr_db": 10.0, "capacity_gbps": feasible + 50.0}},
        label="doctored",
    )
    return link_id, feasible


class TestPolicyValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            InvariantMonitor(make_controller(), policy="panic")


class TestChecks:
    def test_clean_state_has_no_violations(self):
        monitor = InvariantMonitor(make_controller())
        monitor.check_round(clean_report())
        assert monitor.violations == []
        assert not monitor.fatal

    def test_ber_violation_detected(self):
        controller = make_controller()
        monitor = InvariantMonitor(controller)
        link_id, _ = doctor_ber_violation(controller)
        monitor.check_round(clean_report())
        kinds = {v.invariant for v in monitor.violations}
        assert "ber" in kinds
        assert any(v.link_id == link_id for v in monitor.violations)

    def test_stale_restore_detected(self):
        monitor = InvariantMonitor(make_controller())
        monitor.check_round(
            clean_report(restored_links=("l0", "l1"), stale_links=("l1",))
        )
        assert [v.invariant for v in monitor.violations] == ["stale-restore"]
        assert monitor.violations[0].link_id == "l1"

    def test_version_rewind_detected(self):
        monitor = InvariantMonitor(make_controller())
        monitor._last_version = 99
        monitor.check_round(clean_report())
        assert [v.invariant for v in monitor.violations] == ["version-chain"]

    def test_journal_lineage_divergence_detected(self):
        controller = make_controller()
        controller.state_store.attach_journal(
            SimpleNamespace(last_version=123)
        )
        monitor = InvariantMonitor(controller)
        monitor.check_round(clean_report())
        assert [v.invariant for v in monitor.violations] == ["journal-lineage"]


class TestPolicies:
    def test_record_keeps_running(self):
        controller = make_controller()
        monitor = InvariantMonitor(controller, policy="record")
        doctor_ber_violation(controller)
        monitor.check_round(clean_report())
        assert monitor.violations and not monitor.fatal
        monitor.raise_if_fatal()  # record never raises

    def test_degrade_forces_feasible_capacity(self):
        controller = make_controller()
        monitor = InvariantMonitor(controller, policy="degrade")
        link_id, feasible = doctor_ber_violation(controller)
        monitor.check_round(clean_report())
        assert controller.state.links[link_id].capacity_gbps == feasible
        # the enforcement is itself a journaled state transition
        assert controller.state.label == "invariant.degrade"

    def test_abort_marks_fatal_and_raises(self):
        controller = make_controller()
        monitor = InvariantMonitor(controller, policy="abort")
        doctor_ber_violation(controller)
        monitor.check_round(clean_report())
        assert monitor.fatal
        with pytest.raises(InvariantViolationError, match="ber"):
            monitor.raise_if_fatal()

    def test_fatal_monitor_ignores_later_events(self):
        controller = make_controller()
        monitor = InvariantMonitor(controller, policy="abort")
        doctor_ber_violation(controller)
        monitor.check_round(clean_report())
        n = len(monitor.violations)
        monitor.check_round(clean_report())
        assert len(monitor.violations) == n


class TestEndToEnd:
    def test_clean_replay_is_violation_free(self):
        from repro.faults.chaos import _chaos_inputs
        from repro.sim.replay import replay_controller

        topology, traces_by_link, demands = _chaos_inputs(0.5, 7)
        controller = DynamicCapacityController(topology, seed=7)
        result = replay_controller(
            controller,
            traces_by_link,
            demands,
            te_interval_s=4 * 3600.0,
            invariants="abort",  # would raise on any violation
        )
        assert result.n_rounds > 0

    @pytest.mark.parametrize("host", ["replay", "reactive"])
    def test_abort_stops_the_run_after_the_violating_round(
        self, host, monkeypatch, tmp_path
    ):
        from repro.faults.chaos import _chaos_inputs
        from repro.sim.reactive import reactive_replay
        from repro.sim.replay import replay_controller

        violation = InvariantViolation("ber", None, "doctored")
        monkeypatch.setattr(InvariantMonitor, "_check_ber", lambda self: [violation])
        topology, traces_by_link, demands = _chaos_inputs(0.5, 7)
        controller = DynamicCapacityController(topology, seed=7)
        run = replay_controller if host == "replay" else reactive_replay
        with pytest.raises(InvariantViolationError, match="doctored"):
            run(
                controller,
                traces_by_link,
                demands,
                invariants="abort",
                journal_dir=str(tmp_path),
            )
        assert controller.rounds_completed == 1
        # the journal was closed with exactly the one committed round
        resumed = DynamicCapacityController(topology, seed=7)
        assert len(resumed.bind_journal(str(tmp_path), resume=True)) == 1
