"""StateDelta round-tripping: evolve -> diff -> apply is the identity.

The satellite contract: replaying the diff of a transition onto its
parent reproduces the child *bit-for-bit* — every LinkState field,
including NaN telemetry, dark-link crossings in both directions and
modulation changes.
"""

import math

import pytest

from repro.net.topologies import figure7_topology, line_topology
from repro.state.delta import (
    BvtDelta,
    CapacityDelta,
    DarkDelta,
    HealthDelta,
    ModulationDelta,
    apply_deltas,
    delta_counts,
    delta_payload,
    delta_updates,
    diff,
)
from repro.state.model import NetworkState


def states_bit_identical(a, b):
    """Field-by-field equality with NaN == NaN (bitwise, not IEEE)."""
    if a.links.keys() != b.links.keys():
        return False
    for link_id, sa in a.links.items():
        sb = b.links[link_id]
        for field in vars(sa):
            va, vb = getattr(sa, field), getattr(sb, field)
            if va is vb or va == vb:
                continue
            if isinstance(va, float) and isinstance(vb, float):
                if math.isnan(va) and math.isnan(vb):
                    continue
            return False
    return True


def roundtrip(old, new):
    deltas = diff(old, new)
    replayed = apply_deltas(
        old, deltas, label=new.label, version=new.version
    )
    assert states_bit_identical(replayed, new)
    assert replayed.version == new.version
    assert replayed.parent_version == old.version
    return deltas


def test_roundtrip_capacity_and_health():
    state = NetworkState.from_topology(figure7_topology())
    a, b = sorted(state.links)[:2]
    child = state.evolve(
        {
            a: {"capacity_gbps": 150.0, "snr_db": 11.5, "stale_rounds": 2},
            b: {"headroom_gbps": 25.0, "penalty": 3.0},
        },
        label="adapt",
    )
    deltas = roundtrip(state, child)
    kinds = delta_counts(deltas)
    assert kinds == {"capacity": 1, "health": 4}


def test_roundtrip_dark_transition_and_relight():
    state = NetworkState.from_topology(figure7_topology())
    victims = sorted(state.links)[:2]
    dark = state.darken(victims, label="fail")
    deltas = roundtrip(state, dark)
    assert deltas == [DarkDelta(v, dark=True, relit_gbps=0.0) for v in victims]

    relit = dark.evolve(
        {v: {"capacity_gbps": 100.0} for v in victims}, label="relight"
    )
    deltas = roundtrip(dark, relit)
    assert deltas == [
        DarkDelta(v, dark=False, relit_gbps=100.0) for v in victims
    ]


def test_roundtrip_modulation_and_bvt():
    state = NetworkState.from_topology(line_topology(3))
    link_id = sorted(state.links)[0]
    child = state.evolve(
        {
            link_id: {
                "capacity_gbps": 200.0,
                "modulation": "PM_16QAM",
                "bvt_gbps": 200.0,
            }
        },
        label="upgrade",
    )
    deltas = roundtrip(state, child)
    assert CapacityDelta(link_id, 100.0, 200.0) in deltas or any(
        isinstance(d, CapacityDelta) for d in deltas
    )
    assert ModulationDelta(link_id, None, "PM_16QAM") in deltas
    assert BvtDelta(link_id, None, 200.0) in deltas

    # and back down again
    down = child.evolve(
        {link_id: {"modulation": "PM_QPSK", "bvt_gbps": 100.0}},
        label="downgrade",
    )
    deltas = roundtrip(child, down)
    assert ModulationDelta(link_id, "PM_16QAM", "PM_QPSK") in deltas


def test_roundtrip_nan_telemetry():
    state = NetworkState.from_topology(line_topology(3))
    link_id = sorted(state.links)[0]
    nan = float("nan")
    faulty = state.evolve(
        {link_id: {"snr_db": nan, "stale_rounds": 1}}, label="telemetry"
    )
    deltas = roundtrip(state, faulty)
    assert any(
        isinstance(d, HealthDelta) and d.field == "snr_db" for d in deltas
    )
    # NaN -> NaN is *no* transition: diff of two states holding the same
    # NaN reading must be empty, not an endless snr_db delta
    again = faulty.evolve(
        {link_id: {"snr_db": nan, "stale_rounds": 1}}, label="telemetry"
    )
    assert diff(faulty, again) == []


def test_roundtrip_multi_step_chain():
    """A whole lineage replays transition by transition."""
    state = NetworkState.from_topology(figure7_topology())
    links = sorted(state.links)
    chain = [state]
    chain.append(state.darken(links[:1], label="fail"))
    chain.append(
        chain[-1].evolve(
            {links[1]: {"snr_db": 9.0, "capacity_gbps": 50.0}}, label="flap"
        )
    )
    chain.append(
        chain[-1].evolve(
            {links[0]: {"capacity_gbps": 100.0, "modulation": "PM_QPSK"}},
            label="relight",
        )
    )
    for old, new in zip(chain, chain[1:]):
        roundtrip(old, new)


def test_diff_empty_on_identical_and_fork():
    state = NetworkState.from_topology(line_topology(3))
    assert diff(state, state) == []
    assert diff(state, state.fork(label="whatif")) == []


def test_diff_rejects_different_link_sets():
    a = NetworkState.from_topology(line_topology(3))
    b = NetworkState.from_topology(line_topology(4))
    with pytest.raises(ValueError, match="different links"):
        diff(a, b)


def test_delta_payload_is_plain_json():
    state = NetworkState.from_topology(line_topology(3))
    link_id = sorted(state.links)[0]
    dark = state.darken([link_id], label="fail")
    (payload,) = [delta_payload(d) for d in diff(state, dark)]
    assert payload == {
        "kind": "dark",
        "link_id": link_id,
        "dark": True,
        "relit_gbps": 0.0,
    }


def test_sign_of_zero_is_a_change():
    """``0.0 == -0.0`` in IEEE terms, but the two are different values."""
    state = NetworkState.from_topology(line_topology(3))
    link_id = sorted(state.links)[0]
    negative = state.evolve({link_id: {"headroom_gbps": -0.0}}, label="zero")
    (delta,) = roundtrip(state, negative)
    assert delta == HealthDelta(link_id, "headroom_gbps", 0.0, -0.0)
    replayed = apply_deltas(state, [delta], label="zero")
    assert repr(replayed.link(link_id).headroom_gbps) == "-0.0"
    # and back: -0.0 -> 0.0 is a change too, 0.0 -> 0.0 is not
    positive = negative.evolve({link_id: {"headroom_gbps": 0.0}}, label="z")
    assert len(diff(negative, positive)) == 1
    assert diff(state, state.evolve({link_id: {"headroom_gbps": 0.0}}, label="z")) == []


def test_dark_at_a_signed_or_negative_capacity_replays_exactly():
    state = NetworkState.from_topology(line_topology(3))
    a, b, c = sorted(state.links)[:3]
    dark = state.evolve(
        {
            a: {"capacity_gbps": -0.0},
            b: {"capacity_gbps": -5.0},
            c: {"capacity_gbps": 0.0},
        },
        label="fail",
    )
    deltas = roundtrip(state, dark)
    assert deltas == [
        DarkDelta(a, dark=True, relit_gbps=0.0),
        CapacityDelta(a, 0.0, -0.0),
        DarkDelta(b, dark=True, relit_gbps=0.0),
        CapacityDelta(b, 0.0, -5.0),
        DarkDelta(c, dark=True, relit_gbps=0.0),
    ]
    replayed = apply_deltas(state, deltas, label="fail")
    assert repr(replayed.link(a).capacity_gbps) == "-0.0"
    assert replayed.link(b).capacity_gbps == -5.0


def test_delta_updates_is_what_evolve_takes():
    state = NetworkState.from_topology(line_topology(3))
    a, b = sorted(state.links)[:2]
    child = state.darken([a], label="fail").evolve(
        {b: {"snr_db": 9.0, "modulation": "PM_QPSK", "bvt_gbps": 100.0}},
        label="adapt",
    )
    updates = delta_updates(diff(state, child))
    assert updates == {
        a: {"capacity_gbps": 0.0},
        b: {"modulation": "PM_QPSK", "bvt_gbps": 100.0, "snr_db": 9.0},
    }
    assert state.evolve(updates, label="adapt").links == child.links
