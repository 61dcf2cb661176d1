"""The controller's state integration: transitions, capacities, lineage."""

import numpy as np
import pytest

from repro.core.controller import DynamicCapacityController
from repro.core.policies import run_policy
from repro.net.demands import gravity_demands
from repro.net.topologies import abilene
from repro.obs.trace import Tracer, tracing
from repro.state.model import NetworkState


def healthy_snrs(topology, snr_db=16.0):
    return {l.link_id: snr_db for l in topology.real_links()}


@pytest.fixture
def demands():
    return gravity_demands(abilene(), 3000.0, np.random.default_rng(1))


def controller():
    return DynamicCapacityController(abilene(), policy=run_policy(), seed=0)


def test_controller_state_is_versioned_lineage(demands):
    ctrl = controller()
    assert isinstance(ctrl.state, NetworkState)
    assert ctrl.state.version == 0
    tracer = Tracer()
    with tracing(tracer):
        ctrl.step(healthy_snrs(ctrl.physical), demands)
    assert ctrl.state.version > 0
    # every commit is traced with the round's phase labels
    labels = {
        e.attrs["label"] for e in tracer.events if e.name == "state.transition"
    }
    assert labels <= {"telemetry", "adapt", "upgrades"}
    assert "telemetry" in labels


def test_capacity_view_tracks_latest_state(demands):
    ctrl = controller()
    before = ctrl.state
    report = ctrl.step(healthy_snrs(ctrl.physical), demands)
    assert report.upgrades  # run policy upgrades on healthy SNR
    for upgrade in report.upgrades:
        assert before.capacity_of(upgrade.link_id) != upgrade.new_capacity_gbps
        assert ctrl.state.capacity_of(upgrade.link_id) == upgrade.new_capacity_gbps


def test_old_snapshots_survive_later_rounds(demands):
    """Immutability: a held snapshot never changes under the controller."""
    ctrl = controller()
    genesis = ctrl.state
    genesis_caps = {s.link_id: s.capacity_gbps for s in genesis}
    ctrl.step(healthy_snrs(ctrl.physical), demands)
    assert {s.link_id: s.capacity_gbps for s in genesis} == genesis_caps
    assert ctrl.state is not genesis


def test_what_if_fork_does_not_disturb_controller(demands):
    ctrl = controller()
    ctrl.step(healthy_snrs(ctrl.physical), demands)
    v = ctrl.state.version
    fork = ctrl.state.fork(label="whatif")
    dark = fork.darken(sorted(fork.links)[:1], label="whatif.fail")
    assert len(dark.dark_links()) == 1
    # the controller's own lineage is untouched by the fork
    assert ctrl.state.version == v
    assert not ctrl.state.dark_links()
