"""Traffic demands and their generators.

WAN traffic matrices in the evaluation are gravity-model draws: each
node gets a random mass, and the demand between two nodes is
proportional to the product of their masses — the standard synthetic
stand-in for inter-datacenter traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from repro.net.topology import Topology


@dataclass(frozen=True)
class Demand:
    """One traffic demand between a node pair.

    ``priority`` orders SWAN-style allocation classes: lower numbers are
    allocated first (0 = interactive, 1 = elastic, 2 = background).
    """

    src: str
    dst: str
    volume_gbps: float
    priority: int = 1

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError("demand endpoints must differ")
        if self.volume_gbps < 0:
            raise ValueError("demand volume must be non-negative")
        if self.priority < 0:
            raise ValueError("priority must be non-negative")

    @property
    def pair(self) -> tuple[str, str]:
        return (self.src, self.dst)


def gravity_demands(
    topology: Topology,
    total_gbps: float,
    rng: np.random.Generator,
    *,
    priority: int = 1,
    sparsity: float = 0.0,
) -> list[Demand]:
    """A gravity-model traffic matrix summing to ``total_gbps``.

    Args:
        topology: source of the node set.
        total_gbps: total volume across all demands.
        rng: randomness for node masses (lognormal, heavy-ish tail).
        priority: allocation class stamped on every demand.
        sparsity: fraction of node pairs with no demand at all.

    Returns demands for every ordered pair kept after sparsification,
    rescaled so the total is exactly ``total_gbps``.
    """
    if total_gbps <= 0:
        raise ValueError("total volume must be positive")
    if not 0.0 <= sparsity < 1.0:
        raise ValueError("sparsity must be in [0, 1)")
    nodes = topology.nodes
    if len(nodes) < 2:
        raise ValueError("need at least two nodes for demands")
    mass = rng.lognormal(mean=0.0, sigma=0.75, size=len(nodes))
    raw: list[tuple[str, str, float]] = []
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes):
            if i == j:
                continue
            if sparsity and rng.random() < sparsity:
                continue
            raw.append((a, b, float(mass[i] * mass[j])))
    if not raw:
        raise ValueError("sparsity removed every demand")
    scale = total_gbps / sum(v for _, _, v in raw)
    return [
        Demand(a, b, v * scale, priority=priority) for a, b, v in raw
    ]


def scale_demands(demands: Iterable[Demand], factor: float) -> list[Demand]:
    """Multiply every demand volume by ``factor`` (sweep knob)."""
    if factor < 0:
        raise ValueError("scale factor must be non-negative")
    return [replace(d, volume_gbps=d.volume_gbps * factor) for d in demands]


def demands_by_priority(demands: Sequence[Demand]) -> dict[int, list[Demand]]:
    """Group demands into SWAN-style priority classes (ascending)."""
    classes: dict[int, list[Demand]] = {}
    for d in demands:
        classes.setdefault(d.priority, []).append(d)
    return dict(sorted(classes.items()))
