"""A transition's delta is the updates its commit applied, and it round-trips.

Each commit goes through a journaled, traced :class:`StateStore` and is
sealed as a round.  The contract: the transition frame holds exactly
the fields that changed (``{link_id: {field: new value}}``), the
``state.transition`` point counts them by kind, and recovering the
journal reproduces the live state *bit-for-bit* — every LinkState
field, including NaN telemetry, signed zeros, dark-link crossings in
both directions and modulation changes.
"""

import json

import pytest

from repro.net.topologies import figure7_topology, line_topology
from repro.obs.trace import Tracer, tracing
from repro.recovery.journal import StateJournal, recover, scan_frames
from repro.state.model import NetworkState
from repro.state.store import StateStore

NAN = float("nan")


def link_reprs(state):
    """Every field of every link by ``repr``: NaN == NaN, -0.0 != 0.0."""
    return {
        link_id: {name: repr(value) for name, value in vars(link).items()}
        for link_id, link in state.links.items()
    }


class Lineage:
    """A journaled, traced store whose every commit is sealed as a round."""

    def __init__(self, directory, base):
        self.directory = directory
        self.journal = StateJournal(directory, fsync="never")
        self.journal.start(base)
        self.store = StateStore(base, name="lineage")
        self.store.attach_journal(self.journal)
        self.n_rounds = 0

    def frames(self):
        raw = (self.directory / "wal-0.jsonl").read_bytes()
        return [r for r in scan_frames(raw)[0] if r["t"] == "transition"]

    def commit(self, updates, label="t"):
        """Commit + seal; returns ``(journaled updates, counts by kind)``."""
        tracer = Tracer()
        with tracing(tracer):
            self.store.commit(updates, label=label)
        self.journal.commit_round({"round": self.n_rounds})
        self.n_rounds += 1
        (event,) = [e for e in tracer.events if e.name == "state.transition"]
        kinds = {
            name.removeprefix("n_"): n
            for name, n in event.attrs.items()
            if name.startswith("n_") and name != "n_deltas"
        }
        assert event.attrs["n_deltas"] == sum(kinds.values())
        return self.frames()[-1]["updates"], kinds

    def assert_recovers(self):
        recovered = recover(self.directory).state
        assert recovered.version == self.store.latest.version
        assert link_reprs(recovered) == link_reprs(self.store.latest)
        return recovered


@pytest.fixture
def figure7(tmp_path):
    return Lineage(tmp_path, NetworkState.from_topology(figure7_topology()))


@pytest.fixture
def line(tmp_path):
    return Lineage(tmp_path, NetworkState.from_topology(line_topology(3)))


def test_roundtrip_capacity_and_health(figure7):
    a, b = sorted(figure7.store.latest.links)[:2]
    updates = {
        a: {"capacity_gbps": 150.0, "snr_db": 11.5, "stale_rounds": 2},
        b: {"headroom_gbps": 25.0, "penalty": 3.0},
    }
    journaled, kinds = figure7.commit(updates, label="adapt")
    assert journaled == updates
    assert kinds == {"capacity": 1, "health": 4}
    figure7.assert_recovers()


def test_roundtrip_dark_transition_and_relight(figure7):
    victims = sorted(figure7.store.latest.links)[:2]
    journaled, kinds = figure7.commit(
        {v: {"capacity_gbps": 0.0} for v in victims}, label="fail"
    )
    assert journaled == {v: {"capacity_gbps": 0.0} for v in victims}
    assert kinds == {"dark": 2}
    assert len(figure7.assert_recovers().dark_links()) == 2

    journaled, kinds = figure7.commit(
        {v: {"capacity_gbps": 100.0} for v in victims}, label="relight"
    )
    assert journaled == {v: {"capacity_gbps": 100.0} for v in victims}
    assert kinds == {"dark": 2}
    assert not figure7.assert_recovers().dark_links()


def test_roundtrip_modulation_and_bvt(line):
    link_id = sorted(line.store.latest.links)[0]
    upgrade = {
        link_id: {
            "capacity_gbps": 200.0,
            "modulation": "PM_16QAM",
            "bvt_gbps": 200.0,
        }
    }
    journaled, kinds = line.commit(upgrade, label="upgrade")
    assert journaled == upgrade
    assert kinds == {"capacity": 1, "modulation": 1, "bvt": 1}

    # and back down again; the unchanged capacity is not a change
    journaled, kinds = line.commit(
        {link_id: {"capacity_gbps": 200.0, "modulation": "PM_QPSK",
                   "bvt_gbps": 100.0}},
        label="downgrade",
    )
    assert journaled == {link_id: {"modulation": "PM_QPSK", "bvt_gbps": 100.0}}
    assert kinds == {"modulation": 1, "bvt": 1}
    line.assert_recovers()


def test_roundtrip_nan_telemetry(line):
    link_id = sorted(line.store.latest.links)[0]
    journaled, kinds = line.commit(
        {link_id: {"snr_db": NAN, "stale_rounds": 1}}, label="telemetry"
    )
    assert list(journaled[link_id]) == ["snr_db", "stale_rounds"]
    assert kinds == {"health": 2}
    # NaN -> NaN is *no* transition: committing the same NaN reading
    # again must journal nothing, not an endless snr_db change
    journaled, kinds = line.commit(
        {link_id: {"snr_db": float("nan"), "stale_rounds": 1}}, label="telemetry"
    )
    assert journaled == {}
    assert kinds == {}
    line.assert_recovers()


def test_roundtrip_multi_step_chain(figure7):
    """A whole lineage recovers after every transition."""
    links = sorted(figure7.store.latest.links)
    for updates in (
        {links[0]: {"capacity_gbps": 0.0}},
        {links[1]: {"snr_db": 9.0, "capacity_gbps": 50.0}},
        {links[0]: {"capacity_gbps": 100.0, "modulation": "PM_QPSK"}},
    ):
        figure7.commit(updates)
        figure7.assert_recovers()


def test_diff_empty_on_identical_and_fork(line):
    link = line.store.latest.link(sorted(line.store.latest.links)[0])
    assert line.commit({}, label="whatif") == ({}, {})
    restated = {link.link_id: {"capacity_gbps": link.capacity_gbps,
                               "modulation": link.modulation}}
    assert line.commit(restated, label="same") == ({}, {})
    assert line.store.latest.version == 2
    line.assert_recovers()


def test_diff_rejects_different_link_sets(line):
    other = NetworkState.from_topology(line_topology(4))
    extra = sorted(set(other.links) - set(line.store.latest.links))[0]
    base = line.store.latest
    with pytest.raises(KeyError, match="no link"):
        line.store.commit({extra: {"capacity_gbps": 1.0}}, label="bad")
    assert line.store.latest is base
    assert line.frames() == []


def test_delta_payload_is_plain_json(line):
    link_id = sorted(line.store.latest.links)[0]
    line.commit({link_id: {"capacity_gbps": 0.0}}, label="fail")
    raw = (line.directory / "wal-0.jsonl").read_bytes()
    body = raw.splitlines()[0].split(b":", 2)[2]
    assert json.loads(body) == {
        "t": "transition",
        "version": 1,
        "parent": 0,
        "label": "fail",
        "updates": {link_id: {"capacity_gbps": 0.0}},
    }


def test_sign_of_zero_is_a_change(line):
    """``0.0 == -0.0`` in IEEE terms, but the two are different values."""
    link_id = sorted(line.store.latest.links)[0]
    journaled, kinds = line.commit({link_id: {"headroom_gbps": -0.0}})
    assert repr(journaled) == repr({link_id: {"headroom_gbps": -0.0}})
    assert kinds == {"health": 1}
    assert repr(line.assert_recovers().link(link_id).headroom_gbps) == "-0.0"
    # and back: -0.0 -> 0.0 is a change too, 0.0 -> 0.0 is not
    assert line.commit({link_id: {"headroom_gbps": 0.0}})[1] == {"health": 1}
    assert line.commit({link_id: {"headroom_gbps": 0.0}}) == ({}, {})


def test_dark_at_a_signed_or_negative_capacity_replays_exactly(line):
    a, b, c = sorted(line.store.latest.links)[:3]
    journaled, kinds = line.commit(
        {
            a: {"capacity_gbps": -0.0},
            b: {"capacity_gbps": -5.0},
            c: {"capacity_gbps": 0.0},
        },
        label="fail",
    )
    # one crossing per link, whatever non-positive value it lands on
    assert kinds == {"dark": 3}
    assert repr(journaled[a]["capacity_gbps"]) == "-0.0"
    recovered = line.assert_recovers()
    assert repr(recovered.link(a).capacity_gbps) == "-0.0"
    assert recovered.link(b).capacity_gbps == -5.0


def test_delta_updates_is_what_evolve_takes(line):
    a, b = sorted(line.store.latest.links)[:2]
    before = line.store.latest
    line.commit({a: {"capacity_gbps": 0.0}}, label="fail")
    line.commit(
        {b: {"snr_db": 9.0, "modulation": "PM_QPSK", "bvt_gbps": 100.0,
             "penalty": 0.0}},
        label="adapt",
    )
    frames = line.frames()
    assert [f["updates"] for f in frames] == [
        {a: {"capacity_gbps": 0.0}},
        {b: {"modulation": "PM_QPSK", "bvt_gbps": 100.0, "snr_db": 9.0}},
    ]
    replayed = before
    for frame in frames:
        replayed = replayed.evolve(frame["updates"], label=frame["label"])
    assert replayed.links == line.store.latest.links
