"""Network-level impact of cable events: fail vs. flap.

The per-link availability analysis (:mod:`repro.sim.availability`)
counts link downtime; this module asks the operator's real question:
*how much traffic does the network lose* when a cable event hits —
under today's binary rule (the whole cable goes dark) versus dynamic
capacities (the cable flaps to a lower rate).

For each cable of an :class:`~repro.net.srlg.SrlgMap` the scenario
matrix is solved with the same TE objective:

* baseline — all cables healthy;
* binary   — the cable's links removed;
* dynamic  — the cable's links degraded to the fallback rate.

The scenarios are settled up front by
:func:`repro.sim.whatif.settle_scenarios`, the settler the ticket
what-if replay uses: certificates fix the baseline value where the
baseline's flow reroutes around the cable, the rest are batch-solved,
and a value within :data:`~repro.sim.whatif.LOSS_FLOOR_GBPS` of the
baseline reads as the baseline (so no cable reports a negative loss).
The drill has no timeline, so it is a plain loop over the cables that
wraps each settled pair in a :class:`CableImpact`, in drill order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.net.demands import Demand
from repro.net.srlg import SrlgMap
from repro.net.topology import Topology
from repro.obs import trace as _trace
from repro.sim.whatif import settle_scenarios


@dataclass(frozen=True)
class CableImpact:
    """Throughput under the three scenarios for one cable event."""

    cable: str
    baseline_gbps: float
    binary_gbps: float
    dynamic_gbps: float

    @property
    def binary_loss_gbps(self) -> float:
        return self.baseline_gbps - self.binary_gbps

    @property
    def dynamic_loss_gbps(self) -> float:
        return self.baseline_gbps - self.dynamic_gbps

    @property
    def traffic_rescued_gbps(self) -> float:
        """Throughput dynamic capacity preserves that binary loses."""
        return self.dynamic_gbps - self.binary_gbps


@dataclass(frozen=True)
class NetworkAvailabilityReport:
    """Per-cable impacts plus aggregates."""

    impacts: tuple[CableImpact, ...]

    @property
    def worst_binary_loss(self) -> CableImpact:
        return max(self.impacts, key=lambda i: i.binary_loss_gbps)

    @property
    def mean_rescued_gbps(self) -> float:
        if not self.impacts:
            return 0.0
        return sum(i.traffic_rescued_gbps for i in self.impacts) / len(self.impacts)

    @property
    def cables_fully_survivable(self) -> int:
        """Cables whose binary failure loses no throughput (redundancy)."""
        return sum(1 for i in self.impacts if i.binary_loss_gbps < 1e-3)


def cable_event_impacts(
    topology: Topology,
    demands: Sequence[Demand],
    srlgs: SrlgMap,
    *,
    fallback_capacity_gbps: float = 50.0,
    cables: Sequence[str] | None = None,
    workers: int | None = None,
    te_cache: bool | None = None,
) -> NetworkAvailabilityReport:
    """Solve the fail-vs-flap scenario matrix for each cable.

    Args:
        topology: healthy network.
        demands: the traffic matrix.
        srlgs: cable -> link-group mapping (see
            :func:`repro.net.srlg.duplex_srlgs`).
        fallback_capacity_gbps: rate the flapped links retain (the
            paper's 50 Gbps / 3.0 dB floor).
        cables: restrict to these cables (default: all); a cable not
            in ``srlgs`` raises ``KeyError`` before anything is solved.
        workers: spread the independent scenario solves over the shared
            pool (``None`` defers to ``REPRO_WORKERS``).
        te_cache: ``False`` bypasses the incremental TE cache
            (``None`` uses it).  Values are identical either way.
    """
    drill = list(cables if cables is not None else srlgs.cables())
    with _trace.span("sim.network_availability", n_cables=len(drill)):
        baseline, scenario_values = settle_scenarios(
            topology,
            demands,
            srlgs,
            drill,
            drill,
            fallback_capacity_gbps=fallback_capacity_gbps,
            workers=workers,
            te_cache=te_cache,
        )
        impacts = tuple(
            CableImpact(
                cable=cable,
                baseline_gbps=baseline,
                binary_gbps=scenario_values[(cable, True)],
                dynamic_gbps=scenario_values[(cable, False)],
            )
            for cable in drill
        )
    return NetworkAvailabilityReport(impacts=impacts)
