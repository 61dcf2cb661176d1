"""StateStore: the no-op filter, commits, tracing."""

import pytest

from repro.net.topologies import line_topology
from repro.obs.trace import Tracer, tracing
from repro.state.model import NetworkState
from repro.state.store import StateStore, _same

NAN = float("nan")


def make_store():
    base = NetworkState.from_topology(line_topology(4))
    return StateStore(base, name="test"), base


def traced_commit(store, updates, label="round"):
    """Commit under a tracer; returns the commit's ``state.transition`` attrs."""
    tracer = Tracer()
    with tracing(tracer):
        store.commit(updates, label=label)
    (event,) = [e for e in tracer.events if e.name == "state.transition"]
    return event.attrs


class TestSame:
    def test_nan_equals_nan(self):
        assert _same(NAN, float("nan"))
        assert not _same(NAN, 1.0)
        assert not _same(1.0, NAN)

    def test_signed_zeros_differ(self):
        assert not _same(0.0, -0.0)
        assert not _same(-0.0, 0.0)
        assert _same(-0.0, -0.0)
        assert _same(0.0, 0.0)

    def test_other_values_compare_by_equality(self):
        assert _same(None, None)
        assert not _same(None, 0.0)
        assert _same("PM_QPSK", "PM_QPSK")
        assert not _same("PM_QPSK", "PM_8QAM")
        assert _same(2, 2)


def test_commit_returns_the_new_state_and_advances_latest():
    store, base = make_store()
    link_id = sorted(base.links)[0]
    state = store.commit({link_id: {"capacity_gbps": 50.0}}, label="flap")
    assert store.latest is state
    assert state.version == 1
    assert state.parent_version == 0
    assert state.label == "flap"
    assert state.link(link_id).capacity_gbps == 50.0


def test_no_op_fields_are_dropped_before_evolving():
    store, base = make_store()
    a, b = sorted(base.links)[:2]
    state = store.commit(
        {
            a: {"capacity_gbps": base.link(a).capacity_gbps, "penalty": 2.0},
            b: {"headroom_gbps": 0.0},
        },
        label="adapt",
    )
    # a link whose every update was a no-op stays shared with the parent
    assert state.links[b] is base.links[b]
    assert state.link(a).penalty == 2.0


def test_bad_updates_are_rejected_and_leave_latest_alone():
    store, base = make_store()
    link_id = sorted(base.links)[0]
    with pytest.raises(KeyError, match="no link"):
        store.commit({"nope": {"capacity_gbps": 1.0}}, label="bad")
    with pytest.raises(ValueError, match="immutable"):
        store.commit({link_id: {"src": base.link(link_id).src}}, label="bad")
    assert store.latest is base


def test_commit_traces_state_transition_points():
    store, base = make_store()
    link_id = sorted(base.links)[0]
    attrs = traced_commit(store, {link_id: {"capacity_gbps": 0.0}}, "fail")
    assert attrs["store"] == "test"
    assert attrs["version"] == 1
    assert attrs["parent"] == 0
    assert attrs["label"] == "fail"
    assert attrs["n_deltas"] == 1
    assert attrs["n_dark"] == 1


def test_dark_crossings_count_once_each_way():
    store, base = make_store()
    a, b, c = sorted(base.links)[:3]
    attrs = traced_commit(
        store,
        {a: {"capacity_gbps": -0.0}, b: {"capacity_gbps": -5.0},
         c: {"capacity_gbps": 0.0}},
    )
    assert (attrs["n_deltas"], attrs["n_dark"]) == (3, 3)
    assert repr(store.latest.link(a).capacity_gbps) == "-0.0"
    # dark to dark at another value is a capacity change, not a crossing
    attrs = traced_commit(store, {b: {"capacity_gbps": 0.0}})
    assert (attrs["n_deltas"], attrs["n_capacity"]) == (1, 1)
    attrs = traced_commit(store, {a: {"capacity_gbps": 100.0}})
    assert (attrs["n_deltas"], attrs["n_dark"]) == (1, 1)


def test_commit_without_tracer_is_silent():
    store, _ = make_store()
    store.commit({}, label="fork")  # must not raise
    assert store.latest.version == 1
