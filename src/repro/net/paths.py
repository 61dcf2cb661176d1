"""Path computation over multigraph topologies.

Paths are sequences of *link ids*, not node lists: an augmented topology
has parallel real/fake links between the same nodes, and a path must say
which one it uses.  Computation runs on the link-expanded simple digraph
(:meth:`repro.net.topology.Topology.to_link_expanded_digraph`), whose
node paths map one-to-one onto link paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import networkx as nx

from repro.net.topology import Link, Topology


@dataclass(frozen=True)
class LinkPath:
    """A path through a topology as an ordered tuple of links."""

    links: tuple[Link, ...]

    def __post_init__(self) -> None:
        if not self.links:
            raise ValueError("a path needs at least one link")
        for a, b in zip(self.links, self.links[1:]):
            if a.dst != b.src:
                raise ValueError(
                    f"links {a.link_id} and {b.link_id} do not join "
                    f"({a.dst} != {b.src})"
                )

    @property
    def src(self) -> str:
        return self.links[0].src

    @property
    def dst(self) -> str:
        return self.links[-1].dst

    @property
    def nodes(self) -> tuple[str, ...]:
        return (self.src,) + tuple(l.dst for l in self.links)

    @property
    def link_ids(self) -> tuple[str, ...]:
        return tuple(l.link_id for l in self.links)

    @property
    def weight(self) -> float:
        return sum(l.weight for l in self.links)

    @property
    def penalty(self) -> float:
        return sum(l.penalty for l in self.links)

    def __len__(self) -> int:
        return len(self.links)

    def __iter__(self):
        return iter(self.links)


def path_capacity(path: LinkPath) -> float:
    """Bottleneck capacity of a path."""
    return min(l.capacity_gbps for l in path.links)


def _expanded_path_to_links(topology: Topology, node_path: list) -> LinkPath:
    links = [
        topology.link(entry[1])
        for entry in node_path
        if isinstance(entry, tuple) and entry[0] == "link"
    ]
    return LinkPath(tuple(links))


def k_shortest_paths(
    topology: Topology,
    src: str,
    dst: str,
    k: int,
    *,
    by: str = "weight",
) -> list[LinkPath]:
    """Up to ``k`` loop-free shortest paths from ``src`` to ``dst``.

    Args:
        topology: possibly-augmented multigraph.
        src / dst: endpoints (must exist).
        k: maximum number of paths.
        by: edge attribute to minimise — ``"weight"`` (routing metric)
            or ``"penalty"`` (upgrade cost).

    Returns fewer than ``k`` paths when the graph has fewer; an empty
    list when ``dst`` is unreachable.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if by not in ("weight", "penalty"):
        raise ValueError(f"unsupported path metric {by!r}")
    for node in (src, dst):
        if not topology.has_node(node):
            raise KeyError(f"no node {node!r} in topology")
    if src == dst:
        raise ValueError("src and dst must differ")
    expanded = topology.to_link_expanded_digraph()
    try:
        generator = nx.shortest_simple_paths(expanded, src, dst, weight=by)
        node_paths = list(islice(generator, k))
    except nx.NetworkXNoPath:
        return []
    return [_expanded_path_to_links(topology, p) for p in node_paths]
