"""NetworkState: construction, transitions, digests, materialization."""

import pytest

from repro.net.srlg import degrade_cable, duplex_srlgs, fail_cable
from repro.net.topologies import figure7_topology, line_topology
from repro.state.digest import capacity_digest, structure_digest
from repro.state.model import NetworkState


def topology_signature(topology):
    """Everything LP assembly order depends on, in iteration order."""
    return (
        topology.nodes,
        tuple(
            (
                l.link_id,
                l.src,
                l.dst,
                l.capacity_gbps,
                l.headroom_gbps,
                l.penalty,
                l.weight,
            )
            for l in topology.links
        ),
        {n: tuple(l.link_id for l in topology.out_links(n)) for n in topology.nodes},
        {n: tuple(l.link_id for l in topology.in_links(n)) for n in topology.nodes},
    )


def test_from_topology_seeds_every_real_link():
    topology = figure7_topology()
    state = NetworkState.from_topology(topology)
    assert len(state) == len(topology.real_links())
    for link in topology.real_links():
        s = state.link(link.link_id)
        assert s.capacity_gbps == link.capacity_gbps
        assert s.configured_gbps == link.capacity_gbps
        assert not s.dark
    assert state.version == 0
    assert state.parent_version is None


def test_evolve_shares_untouched_links_structurally():
    state = NetworkState.from_topology(figure7_topology())
    (victim, *rest) = sorted(state.links)
    child = state.evolve({victim: {"capacity_gbps": 50.0}}, label="flap")
    assert child.version == state.version + 1
    assert child.parent_version == state.version
    assert child.link(victim).capacity_gbps == 50.0
    # parent is untouched, siblings are the *same* objects
    assert state.link(victim).capacity_gbps != 50.0
    for link_id in rest:
        assert child.link(link_id) is state.link(link_id)


def test_evolve_rejects_unknown_links_and_immutable_fields():
    state = NetworkState.from_topology(line_topology(3))
    with pytest.raises(KeyError, match="no link"):
        state.evolve({"nope": {"capacity_gbps": 1.0}}, label="x")
    link_id = next(iter(state.links))
    with pytest.raises(ValueError, match="immutable or unknown"):
        state.evolve({link_id: {"src": "evil"}}, label="x")


def test_darken_flap_fork_semantics():
    state = NetworkState.from_topology(figure7_topology())
    some = sorted(state.links)[:2]
    dark = state.darken(some + ["missing"], label="fail")
    assert all(dark.link(l).dark for l in some)
    assert len(dark.dark_links()) == 2
    assert len(dark.live_links()) == len(state) - 2

    flapped = state.flap(some, 50.0, label="degrade")
    for l in some:
        assert flapped.link(l).capacity_gbps == 50.0
        assert flapped.link(l).headroom_gbps == 0.0
    with pytest.raises(ValueError, match="darken"):
        state.flap(some, 0.0, label="bad")

    fork = state.fork(label="whatif")
    assert fork.version == state.version + 1
    assert fork.links == state.links


def test_digests_match_materialized_topology():
    topology = figure7_topology()
    state = NetworkState.from_topology(topology)
    some = sorted(state.links)[:3]
    for scenario in (
        state,
        state.darken(some[:1], label="fail"),
        state.flap(some, 50.0, label="degrade"),
    ):
        out = scenario.to_topology()
        assert scenario.structure_id == structure_digest(out)
        assert scenario.capacity_digest == capacity_digest(out)


def test_dark_links_leave_digests_not_nodes():
    topology = line_topology(3)
    state = NetworkState.from_topology(topology)
    dark = state.darken(sorted(state.links)[:1], label="fail")
    # the node set survives (remove_link never removes nodes) ...
    assert dark.structure_id[0] == topology.nodes
    # ... but the dark link is out of both digests
    assert len(dark.structure_id[1]) == len(state) - 1
    assert len(dark.capacity_digest[0]) == len(state) - 1


def test_to_topology_matches_srlg_fail_cable_exactly():
    topology = figure7_topology()
    srlgs = duplex_srlgs(topology)
    state = NetworkState.from_topology(topology)
    for cable in srlgs.cables():
        want = fail_cable(topology, srlgs, cable)
        got = state.darken(
            sorted(srlgs.links_of(cable)), label=f"fail:{cable}"
        ).to_topology(want.name)
        assert topology_signature(got) == topology_signature(want)


def test_to_topology_matches_srlg_degrade_cable_exactly():
    topology = figure7_topology()
    srlgs = duplex_srlgs(topology)
    state = NetworkState.from_topology(topology)
    for cable in srlgs.cables():
        want = degrade_cable(topology, srlgs, cable, capacity_gbps=50.0)
        got = state.flap(
            sorted(srlgs.links_of(cable)), 50.0, label=f"degrade:{cable}"
        ).to_topology(want.name)
        assert topology_signature(got) == topology_signature(want)


def test_capacity_of_and_queries():
    state = NetworkState.from_topology(line_topology(3))
    link_id = next(iter(state.links))
    assert state.capacity_of(link_id) == state.link(link_id).capacity_gbps
    assert state.capacity_of("missing") == 0.0
    assert state.capacity_of("missing", default=-1.0) == -1.0
    assert link_id in state
    assert "missing" not in state
    assert len(list(iter(state))) == len(state)
    with pytest.raises(KeyError, match="no link"):
        state.link("missing")
