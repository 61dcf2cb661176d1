"""StateStore: ring buffer, monotonic commits, timeline, tracing."""

import pytest

from repro.net.topologies import line_topology
from repro.obs.trace import Tracer, tracing
from repro.state.model import NetworkState
from repro.state.store import StateStore


def make_store(capacity=64):
    base = NetworkState.from_topology(line_topology(4))
    return StateStore(base, capacity=capacity, name="test"), base


def test_commit_returns_deltas_and_advances_latest():
    store, base = make_store()
    link_id = sorted(base.links)[0]
    child = base.evolve({link_id: {"capacity_gbps": 50.0}}, label="flap")
    deltas = store.commit(child)
    assert len(deltas) == 1
    assert store.latest is child
    assert len(store) == 2
    assert [s.version for s in store] == [0, 1]


def test_commit_rejects_non_monotonic_versions():
    store, base = make_store()
    store.commit(base.fork(label="fork"))
    with pytest.raises(ValueError, match="non-monotonic"):
        store.commit(base)  # same version as an already-committed state


def test_ring_buffer_evicts_oldest_but_keeps_transitions():
    store, base = make_store(capacity=3)
    state = base
    for i in range(5):
        state = state.fork(label=f"step{i}")
        store.commit(state)
    assert len(store) == 3  # ring kept only the newest three
    assert store.oldest.version == 3
    assert len(store.transitions) == 5  # the journal is complete
    with pytest.raises(KeyError, match="not retained"):
        store.get(0)
    assert store.get(5) is state


def test_fork_from_retained_version():
    store, base = make_store()
    link_id = sorted(base.links)[0]
    v1 = base.evolve({link_id: {"capacity_gbps": 50.0}}, label="flap")
    store.commit(v1)
    whatif = store.fork(label="whatif", version=0)
    assert whatif.parent_version == 0
    assert not whatif.link(link_id).capacity_gbps == 50.0
    assert store.fork(label="whatif").parent_version == 1


def test_timeline_rows_are_plain_json():
    store, base = make_store()
    link_id = sorted(base.links)[0]
    store.commit(base.darken([link_id], label="fail"))
    (row,) = store.timeline()
    assert row["store"] == "test"
    assert row["version"] == 1
    assert row["parent"] == 0
    assert row["label"] == "fail"
    assert row["deltas"][0]["kind"] == "dark"


def test_commit_traces_state_transition_points():
    store, base = make_store()
    link_id = sorted(base.links)[0]
    tracer = Tracer()
    with tracing(tracer):
        store.commit(base.darken([link_id], label="fail"))
    (event,) = [e for e in tracer.events if e.name == "state.transition"]
    assert event.attrs["store"] == "test"
    assert event.attrs["version"] == 1
    assert event.attrs["parent"] == 0
    assert event.attrs["label"] == "fail"
    assert event.attrs["n_deltas"] == 1
    assert event.attrs["n_dark"] == 1


def test_commit_without_tracer_is_silent():
    store, base = make_store()
    store.commit(base.fork(label="fork"))  # must not raise
