"""Shared-risk link groups: fiber cables at the topology level.

Section 2's cable-scope events (cuts, amplifier failures, maintenance)
hit every wavelength riding the fiber at once.  At the IP layer that
means whole *groups* of links share fate.  An :class:`SrlgMap` records
that mapping so simulations can fail a cable and ask what the network
loses — the difference between "a link failed" and "forty links failed
together" is exactly why availability analyses need SRLGs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.net.topology import Topology


@dataclass
class SrlgMap:
    """Cable name -> the link ids that ride it."""

    groups: dict[str, set[str]] = field(default_factory=dict)

    def add(self, cable: str, link_ids: Iterable[str]) -> None:
        """Assign links to a cable (a link may ride several segments)."""
        self.groups.setdefault(cable, set()).update(link_ids)

    def cables(self) -> tuple[str, ...]:
        return tuple(sorted(self.groups))

    def links_of(self, cable: str) -> frozenset[str]:
        try:
            return frozenset(self.groups[cable])
        except KeyError:
            raise KeyError(f"no cable {cable!r}") from None

    def __iter__(self) -> Iterator[str]:
        return iter(self.cables())

    def __len__(self) -> int:
        return len(self.groups)

    def validate_against(self, topology: Topology) -> list[str]:
        """Link ids referenced by the map but missing from the topology."""
        known = {l.link_id for l in topology.links}
        return sorted(
            link_id
            for links in self.groups.values()
            for link_id in links
            if link_id not in known
        )


def duplex_srlgs(topology: Topology) -> SrlgMap:
    """The default mapping: each duplex pair is one cable.

    Real WANs route both directions of a wavelength over the same fiber
    pair, so a cut takes out both.  Node-pair grouping reproduces that.
    """
    srlgs = SrlgMap()
    for link in topology.real_links():
        a, b = sorted((link.src, link.dst))
        srlgs.add(f"fiber:{a}--{b}", [link.link_id])
    return srlgs


def fail_cable(
    topology: Topology, srlgs: SrlgMap, cable: str
) -> Topology:
    """The topology with every link of ``cable`` removed.

    Returns a copy; missing links (already failed) are skipped silently
    so cascading scenarios compose.
    """
    out = topology.copy(f"{topology.name}-minus-{cable}")
    for link_id in srlgs.links_of(cable):
        if link_id in out:
            out.remove_link(link_id)
    return out


def degrade_cable(
    topology: Topology,
    srlgs: SrlgMap,
    cable: str,
    *,
    capacity_gbps: float,
) -> Topology:
    """The topology with every link of ``cable`` flapped to a lower rate.

    The dynamic-capacity counterpart of :func:`fail_cable`: an SNR dip
    that leaves (say) 50 Gbps feasible degrades the whole group instead
    of killing it.
    """
    if capacity_gbps <= 0:
        raise ValueError("use fail_cable for total loss")
    out = topology.copy(f"{topology.name}-degraded-{cable}")
    for link_id in srlgs.links_of(cable):
        if link_id in out:
            link = out.link(link_id)
            out.replace_link(
                link_id,
                capacity_gbps=min(capacity_gbps, link.capacity_gbps),
                headroom_gbps=0.0,
            )
    return out
