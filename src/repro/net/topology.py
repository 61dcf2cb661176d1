"""The capacitated directed topology the TE layer operates on.

Two requirements shape this class:

* **parallel links.**  Algorithm 1 adds a *fake* link next to every
  upgradable physical link, so the graph is a directed multigraph and
  every link carries a unique id.
* **the U and P matrices.**  Each link records its upgrade headroom
  (``headroom_gbps``, the paper's ``U``) and the penalty of using an
  upgraded link (``penalty``, the paper's ``P``), so the augmentation
  procedure is a pure graph-to-graph transformation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # networkx loads only where a graph is exported
    import networkx as nx


@dataclass(frozen=True)
class Link:
    """One directed link (an optical wavelength at the IP layer).

    Attributes:
        link_id: unique identifier within its topology.
        src / dst: endpoints.
        capacity_gbps: usable capacity at the current modulation.
        headroom_gbps: extra capacity the SNR would support (``U``).
        penalty: cost of sending flow across this link when doing so
            implies a capacity upgrade (``P``); zero for ordinary links.
        weight: routing weight (hop count / latency proxy) used by
            shortest-path computations, independent of the penalty.
        is_fake: True for links added by the augmentation procedure.
        shadow_of: for a fake link, the id of the physical link whose
            upgrade it represents.
    """

    link_id: str
    src: str
    dst: str
    capacity_gbps: float
    headroom_gbps: float = 0.0
    penalty: float = 0.0
    weight: float = 1.0
    is_fake: bool = False
    shadow_of: str | None = None

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"self-loop {self.src}->{self.dst} not allowed")
        if self.capacity_gbps <= 0:
            raise ValueError(f"link {self.link_id} capacity must be positive")
        if self.headroom_gbps < 0:
            raise ValueError(f"link {self.link_id} headroom must be >= 0")
        if self.penalty < 0:
            raise ValueError(f"link {self.link_id} penalty must be >= 0")
        if self.weight < 0:
            raise ValueError(f"link {self.link_id} weight must be >= 0")
        if self.is_fake and self.shadow_of is None:
            raise ValueError(f"fake link {self.link_id} must shadow a real link")

    @property
    def endpoints(self) -> tuple[str, str]:
        return (self.src, self.dst)


class Topology:
    """A directed multigraph of nodes and :class:`Link` objects."""

    def __init__(self, name: str = "wan"):
        self.name = name
        self._nodes: set[str] = set()
        self._links: dict[str, Link] = {}
        self._out: dict[str, list[str]] = {}
        self._in: dict[str, list[str]] = {}
        self._id_counter = itertools.count()

    # -- construction --------------------------------------------------

    def add_node(self, node: str) -> None:
        if node not in self._nodes:
            self._nodes.add(node)
            self._out[node] = []
            self._in[node] = []

    def add_link(
        self,
        src: str,
        dst: str,
        capacity_gbps: float,
        *,
        headroom_gbps: float = 0.0,
        penalty: float = 0.0,
        weight: float = 1.0,
        link_id: str | None = None,
        is_fake: bool = False,
        shadow_of: str | None = None,
    ) -> Link:
        """Add a directed link; nodes are created implicitly."""
        if link_id is None:
            link_id = f"{src}->{dst}#{next(self._id_counter)}"
        if link_id in self._links:
            raise ValueError(f"duplicate link id {link_id!r}")
        self.add_node(src)
        self.add_node(dst)
        link = Link(
            link_id=link_id,
            src=src,
            dst=dst,
            capacity_gbps=capacity_gbps,
            headroom_gbps=headroom_gbps,
            penalty=penalty,
            weight=weight,
            is_fake=is_fake,
            shadow_of=shadow_of,
        )
        self._links[link_id] = link
        self._out[src].append(link_id)
        self._in[dst].append(link_id)
        return link

    def add_duplex_link(
        self,
        a: str,
        b: str,
        capacity_gbps: float,
        *,
        headroom_gbps: float = 0.0,
        penalty: float = 0.0,
        weight: float = 1.0,
    ) -> tuple[Link, Link]:
        """Add both directions of a bidirectional link (the common case)."""
        forward = self.add_link(
            a,
            b,
            capacity_gbps,
            headroom_gbps=headroom_gbps,
            penalty=penalty,
            weight=weight,
        )
        backward = self.add_link(
            b,
            a,
            capacity_gbps,
            headroom_gbps=headroom_gbps,
            penalty=penalty,
            weight=weight,
        )
        return forward, backward

    def remove_link(self, link_id: str) -> Link:
        """Remove and return a link (e.g. a fake edge after an SNR drop)."""
        try:
            link = self._links.pop(link_id)
        except KeyError:
            raise KeyError(f"no link {link_id!r}") from None
        self._out[link.src].remove(link_id)
        self._in[link.dst].remove(link_id)
        return link

    def replace_link(self, link_id: str, **changes) -> Link:
        """Replace one link's fields (capacity update after a flap)."""
        old = self.link(link_id)
        new = replace(old, **changes)
        if new.link_id != link_id:
            raise ValueError("replace_link cannot change the link id")
        if (new.src, new.dst) != (old.src, old.dst):
            raise ValueError("replace_link cannot move a link")
        self._links[link_id] = new
        return new

    # -- queries --------------------------------------------------------

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(sorted(self._nodes))

    @property
    def links(self) -> tuple[Link, ...]:
        return tuple(self._links.values())

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    @property
    def n_links(self) -> int:
        return len(self._links)

    def link(self, link_id: str) -> Link:
        try:
            return self._links[link_id]
        except KeyError:
            raise KeyError(f"no link {link_id!r}") from None

    def has_node(self, node: str) -> bool:
        return node in self._nodes

    def out_links(self, node: str) -> list[Link]:
        return [self._links[i] for i in self._out.get(node, [])]

    def in_links(self, node: str) -> list[Link]:
        return [self._links[i] for i in self._in.get(node, [])]

    def links_between(self, src: str, dst: str) -> list[Link]:
        return [l for l in self.out_links(src) if l.dst == dst]

    def real_links(self) -> list[Link]:
        return [l for l in self.links if not l.is_fake]

    def fake_links(self) -> list[Link]:
        return [l for l in self.links if l.is_fake]

    def total_capacity_gbps(self) -> float:
        return sum(l.capacity_gbps for l in self.links)

    def __iter__(self) -> Iterator[Link]:
        return iter(self.links)

    def __contains__(self, link_id: str) -> bool:
        return link_id in self._links

    def __repr__(self) -> str:
        return (
            f"Topology({self.name!r}, nodes={self.n_nodes}, "
            f"links={self.n_links})"
        )

    # -- conversions ----------------------------------------------------

    def copy(self, name: str | None = None) -> "Topology":
        """An independent copy (links are immutable and shared)."""
        out = Topology(name if name is not None else self.name)
        for node in self._nodes:
            out.add_node(node)
        out._links = dict(self._links)
        out._out = {n: list(ids) for n, ids in self._out.items()}
        out._in = {n: list(ids) for n, ids in self._in.items()}
        # keep generated ids unique after copying
        out._id_counter = itertools.count(
            sum(1 for _ in self._links) + next(self._id_counter)
        )
        return out

    def to_networkx(self) -> nx.MultiDiGraph:
        """The topology as a networkx multigraph (keys are link ids)."""
        import networkx as nx

        g = nx.MultiDiGraph(name=self.name)
        g.add_nodes_from(self._nodes)
        for link in self.links:
            g.add_edge(
                link.src,
                link.dst,
                key=link.link_id,
                capacity=link.capacity_gbps,
                penalty=link.penalty,
                weight=link.weight,
                is_fake=link.is_fake,
            )
        return g

    def to_link_expanded_digraph(self) -> nx.DiGraph:
        """A *simple* digraph where every link becomes its own node.

        Each link ``e: u -> v`` is expanded to ``u -> ('link', e) -> v``.
        Node paths in the expanded graph correspond one-to-one to link
        paths in the multigraph, which lets simple-graph algorithms
        (k-shortest paths) distinguish parallel real/fake links.
        The link's weight and penalty sit on the first half-edge; the
        second is free.
        """
        import networkx as nx

        g = nx.DiGraph(name=f"{self.name}-expanded")
        g.add_nodes_from(self._nodes)
        for link in self.links:
            mid = ("link", link.link_id)
            g.add_edge(
                link.src,
                mid,
                capacity=link.capacity_gbps,
                weight=link.weight,
                penalty=link.penalty,
            )
            g.add_edge(mid, link.dst, capacity=link.capacity_gbps, weight=0.0,
                       penalty=0.0)
        return g
