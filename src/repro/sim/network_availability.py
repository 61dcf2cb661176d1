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

The drill runs as an engine scenario: a
:class:`~repro.engine.SequenceSource` puts one ``cable.event`` per
cable on the timeline, and the handler solves its scenario pair —
giving the fail-vs-flap matrix the same observer/metrics surface as
the timed replays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.engine import Engine, Event, SequenceSource
from repro.faults.inject import FaultInjector, as_injector
from repro.faults.spec import FaultPlan
from repro.net.demands import Demand
from repro.net.srlg import SrlgMap
from repro.net.topology import Topology
from repro.obs import trace as _trace
from repro.state import NetworkState
from repro.te.incremental import batch_throughput
from repro.te.lp import MultiCommodityLp
from repro.te.solution import TeSolution, empty_solution

TeAlgorithm = Callable[[Topology, Sequence[Demand]], TeSolution]


def _lp_max_throughput(topology: Topology, demands: Sequence[Demand]) -> TeSolution:
    return MultiCommodityLp(topology, demands).max_throughput().solution


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
    te_algorithm: TeAlgorithm = _lp_max_throughput,
    cables: Sequence[str] | None = None,
    faults: FaultPlan | FaultInjector | None = None,
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
        te_algorithm: TE used for every scenario (default: throughput-
            maximising LP).
        cables: restrict to these cables (default: all).
        faults: optional :class:`~repro.faults.spec.FaultPlan` /
            :class:`~repro.faults.inject.FaultInjector`.  Only the
            ``te.exception`` kind applies here: each per-cable scenario
            solve may fail, degrading to the empty allocation (the
            controller could not recompute while the event was live).
            The baseline solve is always clean.  ``None`` is a
            byte-identical no-op.
        workers: spread the independent scenario solves over the shared
            pool (``None`` defers to ``REPRO_WORKERS``).  Batching only
            applies on fault-free runs: an armed injector draws its
            ``te_fails`` stream sequentially per scenario, so those
            runs keep the lazy per-event order.
        te_cache: ``False`` bypasses the incremental TE cache
            (``None`` uses it).  Values are identical either way.
    """
    missing = srlgs.validate_against(topology)
    if missing:
        raise ValueError(f"SRLG map references unknown links: {missing[:5]}")
    injector = as_injector(faults)
    drill_cables = list(cables if cables is not None else srlgs.cables())

    # every scenario — batched or lazy — is a copy-on-write fork of one
    # base snapshot; materialization preserves the link order the old
    # per-scenario topology surgery produced
    base = NetworkState.from_topology(topology, label="availability.base")

    def fork(cable: str, binary: bool) -> NetworkState:
        links = sorted(srlgs.links_of(cable))
        if binary:
            return base.darken(links, label=f"fail:{cable}")
        return base.flap(
            links, fallback_capacity_gbps, label=f"degrade:{cable}"
        )

    scenario_values: dict[tuple[str, bool], float] = {}
    if injector is None:
        # fault-free runs batch-solve the whole matrix up front (the
        # baseline rides along first); per-worker structure caches make
        # the flap scenarios RHS-only re-solves of the baseline LP
        algo = None if te_algorithm is _lp_max_throughput else te_algorithm
        keys = [(cable, binary) for cable in drill_cables for binary in (True, False)]
        scenarios: list[NetworkState] = [base] + [
            fork(cable, binary) for cable, binary in keys
        ]
        values = batch_throughput(
            scenarios,
            demands,
            te_algorithm=algo,
            workers=workers,
            te_cache=te_cache,
        )
        baseline = values[0]
        scenario_values = dict(zip(keys, values[1:]))
    else:
        baseline = te_algorithm(topology, demands).total_allocated_gbps

    def scenario_te(scenario: Topology) -> float:
        if injector is not None and injector.te_fails():
            return empty_solution(scenario, demands).total_allocated_gbps
        return te_algorithm(scenario, demands).total_allocated_gbps

    impacts: list[CableImpact] = []
    engine = Engine()

    def on_cable_event(event: Event) -> None:
        _, cable = event.payload
        if injector is None:
            binary_gbps = scenario_values[(cable, True)]
            dynamic_gbps = scenario_values[(cable, False)]
        else:
            failed = fork(cable, True).to_topology(
                f"{topology.name}-minus-{cable}"
            )
            flapped = fork(cable, False).to_topology(
                f"{topology.name}-degraded-{cable}"
            )
            binary_gbps = scenario_te(failed)
            dynamic_gbps = scenario_te(flapped)
        impact = CableImpact(
            cable=cable,
            baseline_gbps=baseline,
            binary_gbps=binary_gbps,
            dynamic_gbps=dynamic_gbps,
        )
        impacts.append(impact)
        engine.publish("cable.impact", impact)

    engine.subscribe("cable.event", on_cable_event)
    engine.add_source(
        SequenceSource(
            "cable.event",
            list(cables if cables is not None else srlgs.cables()),
        )
    )
    _trace.observe_engine(engine)
    with _trace.span("sim.network_availability") as sp:
        engine.run()
        if sp is not None:
            sp.set(n_cables=len(impacts))
    return NetworkAvailabilityReport(impacts=tuple(impacts))
