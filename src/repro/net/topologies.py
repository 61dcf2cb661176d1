"""Canonical WAN topologies for examples, tests and benchmarks.

All builders return duplex (bidirectional) topologies with every
wavelength configured at the paper's default 100 Gbps.  Headroom is left
at zero — the controller layer fills it in from telemetry.
"""

from __future__ import annotations

import numpy as np

from repro.net.topology import Topology

DEFAULT_CAPACITY_GBPS = 100.0


def figure7_topology(capacity_gbps: float = DEFAULT_CAPACITY_GBPS) -> Topology:
    """The four-node square of the paper's Figure 7.

    A, B, C, D in a cycle: duplex links A-B, A-C, C-D, B-D at equal
    capacity.  With demands A->B = C->D = 125 Gbps the cut {A,C}|{B,D}
    carries only 200 Gbps, so satisfying both demands *requires* one
    capacity upgrade — the example's point.
    """
    topo = Topology("figure7")
    for a, b in (("A", "B"), ("A", "C"), ("C", "D"), ("B", "D")):
        topo.add_duplex_link(a, b, capacity_gbps)
    return topo


def line_topology(
    n_nodes: int, capacity_gbps: float = DEFAULT_CAPACITY_GBPS
) -> Topology:
    """A simple chain n0 - n1 - ... - n_{k-1} (easy to reason about)."""
    if n_nodes < 2:
        raise ValueError("a line needs at least two nodes")
    topo = Topology(f"line{n_nodes}")
    for i in range(n_nodes - 1):
        topo.add_duplex_link(f"n{i}", f"n{i + 1}", capacity_gbps)
    return topo


def abilene(capacity_gbps: float = DEFAULT_CAPACITY_GBPS) -> Topology:
    """The 11-node Abilene/Internet2 research backbone."""
    edges = [
        ("Seattle", "Sunnyvale"),
        ("Seattle", "Denver"),
        ("Sunnyvale", "LosAngeles"),
        ("Sunnyvale", "Denver"),
        ("LosAngeles", "Houston"),
        ("Denver", "KansasCity"),
        ("KansasCity", "Houston"),
        ("KansasCity", "Indianapolis"),
        ("Houston", "Atlanta"),
        ("Atlanta", "Indianapolis"),
        ("Atlanta", "WashingtonDC"),
        ("Indianapolis", "Chicago"),
        ("Chicago", "NewYork"),
        ("WashingtonDC", "NewYork"),
    ]
    topo = Topology("abilene")
    for a, b in edges:
        topo.add_duplex_link(a, b, capacity_gbps)
    return topo


def us_backbone_like(capacity_gbps: float = DEFAULT_CAPACITY_GBPS) -> Topology:
    """A 21-node continental backbone resembling Tier-1 US fiber maps."""
    edges = [
        ("SEA", "PDX"), ("SEA", "SLC"), ("PDX", "SFO"),
        ("SFO", "SJC"), ("SJC", "LAX"), ("SFO", "SLC"),
        ("LAX", "PHX"), ("PHX", "ELP"), ("ELP", "DAL"),
        ("SLC", "DEN"), ("DEN", "KSC"), ("DEN", "DAL"),
        ("KSC", "CHI"), ("DAL", "HOU"), ("HOU", "ATL"),
        ("CHI", "CLE"), ("CHI", "STL"), ("STL", "ATL"),
        ("CLE", "NYC"), ("ATL", "MIA"), ("ATL", "IAD"),
        ("IAD", "NYC"), ("NYC", "BOS"), ("IAD", "CLT"),
        ("CLT", "ATL"), ("KSC", "STL"), ("LAX", "SLC"),
    ]
    topo = Topology("us-backbone-like")
    for a, b in edges:
        topo.add_duplex_link(a, b, capacity_gbps)
    return topo


def random_wan(
    n_nodes: int,
    rng: np.random.Generator,
    *,
    mean_degree: float = 3.0,
    capacity_gbps: float = DEFAULT_CAPACITY_GBPS,
) -> Topology:
    """A random connected WAN: a ring backbone plus random chords.

    The ring guarantees strong connectivity; chords are added until the
    average node degree reaches ``mean_degree``.
    """
    if n_nodes < 3:
        raise ValueError("need at least three nodes for a ring")
    if mean_degree < 2.0:
        raise ValueError("mean degree below 2 cannot stay connected")
    topo = Topology(f"random{n_nodes}")
    names = [f"n{i}" for i in range(n_nodes)]
    for i in range(n_nodes):
        topo.add_duplex_link(names[i], names[(i + 1) % n_nodes], capacity_gbps)
    existing = {frozenset((names[i], names[(i + 1) % n_nodes])) for i in range(n_nodes)}
    target_duplex = int(round(mean_degree * n_nodes / 2))
    attempts = 0
    while len(existing) < target_duplex and attempts < 50 * n_nodes:
        attempts += 1
        i, j = rng.integers(0, n_nodes, size=2)
        if i == j:
            continue
        pair = frozenset((names[int(i)], names[int(j)]))
        if pair in existing:
            continue
        a, b = sorted(pair)
        topo.add_duplex_link(a, b, capacity_gbps)
        existing.add(pair)
    return topo
