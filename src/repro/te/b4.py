"""B4-style max-min fair progressive filling.

B4 (Jain et al., SIGCOMM 2013) allocates bandwidth to flow groups by
progressive filling over tunnel groups: every unsatisfied flow group's
allocation grows at the same rate until either the group's demand is met
or every tunnel available to it hits a bottleneck; bottlenecked groups
freeze, and filling continues for the rest.

This implementation uses the k-shortest paths of each demand as its
tunnel group and waterfills in discrete rounds.  It is combinatorial
(no LP), so it doubles as an independent check on the LP allocators —
its total throughput must never exceed the LP optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.net.demands import Demand
from repro.net.paths import LinkPath, k_shortest_paths
from repro.net.topology import Topology
from repro.te.solution import EPSILON, FlowAssignment, TeSolution


@dataclass
class _Group:
    """Mutable allocation state of one demand during filling."""

    demand: Demand
    paths: list[LinkPath]
    allocated: float = 0.0
    frozen: bool = False



def b4_allocate(
    topology: Topology,
    demands: Sequence[Demand],
    *,
    k_paths: int = 4,
    round_quantum_gbps: float | None = None,
) -> TeSolution:
    """Max-min fair allocation by progressive filling.

    Args:
        topology: (possibly augmented) network.
        demands: flow groups; priorities are ignored — B4's published
            fairness is within one priority tier, and callers that need
            tiers should invoke this once per tier.
        k_paths: tunnels per demand (B4 uses a small handful).
        round_quantum_gbps: fill step; defaults to 1% of the largest
            demand.  Smaller = fairer but slower.

    Every round, each unfrozen group receives up to one quantum spread
    across its still-usable tunnels (cheapest-penalty tunnel first).
    Groups freeze when satisfied or when all tunnels are saturated.
    """
    if not demands:
        raise ValueError("need at least one demand")
    if k_paths <= 0:
        raise ValueError("k_paths must be positive")
    max_volume = max(d.volume_gbps for d in demands)
    quantum = (
        round_quantum_gbps
        if round_quantum_gbps is not None
        else max(max_volume / 100.0, 1e-3)
    )
    if quantum <= 0:
        raise ValueError("round quantum must be positive")

    residual = {l.link_id: l.capacity_gbps for l in topology.links}
    groups = [
        _Group(
            demand=d,
            paths=sorted(
                k_shortest_paths(topology, d.src, d.dst, k_paths),
                key=lambda p: (p.penalty, p.weight),
            ),
        )
        for d in demands
    ]
    edge_flows: list[dict[str, float]] = [{} for _ in groups]

    active = [g for g in groups if g.paths and g.demand.volume_gbps > 0]
    for g in groups:
        if not g.paths or g.demand.volume_gbps <= 0:
            g.frozen = True

    while active:
        for gi, group in enumerate(groups):
            if group.frozen:
                continue
            want = min(quantum, group.demand.volume_gbps - group.allocated)
            placed = _place(group, want, residual, edge_flows[gi])
            group.allocated += placed
            if group.allocated >= group.demand.volume_gbps - EPSILON:
                group.frozen = True
            elif placed <= EPSILON:
                group.frozen = True  # bottlenecked everywhere
        active = [g for g in groups if not g.frozen]

    return TeSolution(
        topology,
        [
            FlowAssignment(
                demand=g.demand,
                allocated_gbps=g.allocated,
                edge_flows=edge_flows[i],
            )
            for i, g in enumerate(groups)
        ],
    )


def _place(
    group: _Group,
    want: float,
    residual: dict[str, float],
    flows: dict[str, float],
) -> float:
    """Push up to ``want`` Gbps across the group's tunnels; returns placed."""
    placed = 0.0
    for path in group.paths:
        if placed >= want - EPSILON:
            break
        room = min(residual[l.link_id] for l in path.links)
        take = min(room, want - placed)
        if take <= EPSILON:
            continue
        for link in path.links:
            residual[link.link_id] -= take
            flows[link.link_id] = flows.get(link.link_id, 0.0) + take
        placed += take
    return placed
