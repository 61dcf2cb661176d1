"""What-if: replay a ticket corpus against a dynamic-capacity network.

The question an operator asks after reading the paper: *"had we
deployed this last quarter, which of our tickets would have mattered
less?"*  This module answers it by replaying each ticket's outage as a
cable event on the real topology and solving the TE twice — binary
rule vs. dynamic flap — exactly like
:mod:`repro.sim.network_availability`, but driven by a ticket corpus
and reporting per-ticket verdicts.

The corpus replays on the event engine: a
:class:`~repro.engine.TicketOutageSource` puts every ticket's outage
window on the timeline at its open time, and the verdict handler
publishes a ``ticket.verdict`` notification per ticket.  Verdicts are
reported in corpus order regardless of outage chronology, so the
report is identical whether a corpus arrives sorted or not.

The scenario solves themselves are independent of the timeline: the
distinct ``(cable, binary?)`` scenarios a corpus needs are known up
front, so they are settled before the engine replays the verdicts, in
three phases:

1. the baseline is solved, and its per-link loads are read from the
   raw solver vector;
2. a darkened cable whose links carry exactly zero flow keeps the
   baseline value; the other darkened cables are batch-solved;
3. a flapped cable keeps the baseline value when its loads fit under
   the fallback rate, or when its darkened value already equals the
   baseline (binary <= dynamic <= baseline); the rest are
   batch-solved.

A scenario settled by such a certificate is never solved; each counts
one ``sim.whatif.certified``.  Batch solves optionally fan out over
the shared :mod:`repro.parallel` pool with per-worker TE structure
caches (:mod:`repro.te.incremental`).  Values are identical for any
worker count and with the TE cache on or off, and a certified verdict
equals the one a solve gives (see :data:`LOSS_FLOOR_GBPS`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.engine import Engine, Event, TicketOutageSource
from repro.net.srlg import SrlgMap
from repro.net.topology import Topology
from repro.net.demands import Demand
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.state import NetworkState
from repro.te.incremental import batch_throughput, solve_throughput
from repro.tickets.model import Ticket


#: losses at or below this many Gbps are LP round-off and read as 0.0
LOSS_FLOOR_GBPS = 1e-9


@dataclass(frozen=True)
class TicketVerdict:
    """What one historical ticket would have cost, both ways.

    A loss of at most :data:`LOSS_FLOOR_GBPS` is stored as ``0.0``.  A
    scenario whose optimum equals the baseline can still solve a few
    ulps below it (another optimal vertex, another float sum), while a
    certificate reports the baseline itself; the floor makes both
    routes give the same verdict bits.
    """

    ticket: Ticket
    binary_loss_gbps: float
    dynamic_loss_gbps: float

    def __post_init__(self) -> None:
        for name in ("binary_loss_gbps", "dynamic_loss_gbps"):
            if getattr(self, name) <= LOSS_FLOOR_GBPS:
                object.__setattr__(self, name, 0.0)

    @property
    def rescued_gbps(self) -> float:
        return self.binary_loss_gbps - self.dynamic_loss_gbps

    @property
    def rescued_gbps_hours(self) -> float:
        """Traffic-volume-time saved over the ticket's duration."""
        return self.rescued_gbps * self.ticket.duration_hours

    @property
    def fully_mitigated(self) -> bool:
        return self.binary_loss_gbps > 1e-3 and self.dynamic_loss_gbps <= 1e-3


@dataclass(frozen=True)
class WhatIfReport:
    """Aggregate of a corpus replay."""

    verdicts: tuple[TicketVerdict, ...]

    @property
    def n_tickets(self) -> int:
        return len(self.verdicts)

    @property
    def n_impactful(self) -> int:
        return sum(1 for v in self.verdicts if v.binary_loss_gbps > 1e-3)

    @property
    def n_fully_mitigated(self) -> int:
        return sum(1 for v in self.verdicts if v.fully_mitigated)

    @property
    def total_rescued_gbps_hours(self) -> float:
        return sum(v.rescued_gbps_hours for v in self.verdicts)


def replay_tickets(
    topology: Topology,
    demands: Sequence[Demand],
    tickets: Sequence[Ticket],
    srlgs: SrlgMap,
    *,
    fallback_capacity_gbps: float = 50.0,
    workers: int | None = None,
    te_cache: bool | None = None,
) -> WhatIfReport:
    """Judge every ticket's outage under binary vs. dynamic operation.

    Ticket elements must name cables of ``srlgs``; fiber cuts stay
    binary in both worlds (no light, nothing to adapt), every other
    category flaps to ``fallback_capacity_gbps`` in the dynamic world.

    ``workers`` spreads the independent scenario solves over the shared
    pool (``None`` defers to ``REPRO_WORKERS``); ``te_cache=False``
    bypasses the incremental TE cache (``None`` uses it).  The
    report is byte-identical for every combination of both knobs.
    """
    if not tickets:
        raise ValueError("no tickets to replay")
    for ticket in tickets:
        if ticket.element not in srlgs.groups:
            raise KeyError(
                f"ticket {ticket.ticket_id} names unknown cable "
                f"{ticket.element!r}"
            )

    # the distinct (cable, binary?) scenarios are known up front: each
    # ticket needs the darkened world, non-cut tickets the flapped one
    # too.  Every scenario is a copy-on-write fork of one base snapshot;
    # the forks materialize worker-side with the exact link ordering
    # the old per-scenario topology surgery produced (state.to_topology
    # uses the same copy/remove/replace primitives)
    darkened = list(dict.fromkeys(t.element for t in tickets))
    flapped = list(
        dict.fromkeys(t.element for t in tickets if not t.is_binary_failure)
    )
    if flapped and fallback_capacity_gbps <= 0:
        raise ValueError("fallback_capacity_gbps must be positive")
    base = NetworkState.from_topology(topology, label="whatif.base")

    # phase 1: the baseline, and its per-link loads from the raw solver
    # vector (not the EPSILON-filtered edge flows), in the LP's link order
    outcome = solve_throughput(base, demands, te_cache=te_cache)
    baseline = outcome.objective_value
    link_ids = [link.link_id for link in outcome.solution.topology.links]
    flows = outcome.x[: len(demands) * len(link_ids)].reshape(
        len(demands), len(link_ids)
    )
    idle = dict(zip(link_ids, (flows == 0).all(axis=0).tolist()))
    load = dict(zip(link_ids, flows.sum(axis=0).tolist()))

    def links_of(cable: str) -> list[str]:
        return [link for link in srlgs.links_of(cable) if link in load]

    scenario_cache: dict[tuple[str, bool], float] = {}

    def solve(keys: list[tuple[str, bool]]) -> None:
        scenarios = [
            base.darken(sorted(srlgs.links_of(cable)), label=f"fail:{cable}")
            if binary
            else base.flap(
                sorted(srlgs.links_of(cable)),
                fallback_capacity_gbps,
                label=f"degrade:{cable}",
            )
            for cable, binary in keys
        ]
        values = batch_throughput(
            scenarios, demands, workers=workers, te_cache=te_cache
        )
        scenario_cache.update(zip(keys, values))

    # phase 2: a darkened cable that carried no flow keeps the baseline
    # (the baseline optimum stays feasible without it); solve the rest.
    # phase 3: a flapped cable keeps the baseline when its loads fit
    # under the fallback rate (the optimum stays feasible), or when its
    # darkened value already equals the baseline (binary <= dynamic <=
    # baseline); solve the rest.  Certified values are exact; a solve
    # of the same optimum may land a few ulps lower, which the verdict's
    # LOSS_FLOOR_GBPS reads as no loss.
    n_certified = 0
    to_solve: list[tuple[str, bool]] = []
    for cable in darkened:
        if all(idle[link] for link in links_of(cable)):
            scenario_cache[(cable, True)] = baseline
            n_certified += 1
        else:
            to_solve.append((cable, True))
    solve(to_solve)
    to_solve = []
    for cable in flapped:
        if (
            all(load[link] <= fallback_capacity_gbps for link in links_of(cable))
            or scenario_cache[(cable, True)] == baseline
        ):
            scenario_cache[(cable, False)] = baseline
            n_certified += 1
        else:
            to_solve.append((cable, False))
    solve(to_solve)
    _metrics.counter("sim.whatif.certified").inc(n_certified)

    def throughput(cable: str, binary: bool) -> float:
        return scenario_cache[(cable, binary)]

    verdicts: dict[int, TicketVerdict] = {}
    engine = Engine()

    def on_outage(event: Event) -> None:
        index, ticket = event.payload
        binary_tp = throughput(ticket.element, binary=True)
        if ticket.is_binary_failure:
            dynamic_tp = binary_tp  # a cut is a cut in both worlds
        else:
            dynamic_tp = throughput(ticket.element, binary=False)
        verdict = TicketVerdict(
            ticket=ticket,
            binary_loss_gbps=max(baseline - binary_tp, 0.0),
            dynamic_loss_gbps=max(baseline - dynamic_tp, 0.0),
        )
        verdicts[index] = verdict
        engine.publish("ticket.verdict", verdict)

    engine.subscribe(TicketOutageSource.KIND, on_outage)
    engine.add_source(TicketOutageSource(tickets))
    _trace.observe_engine(engine)
    with _trace.span("sim.whatif", n_tickets=len(tickets)):
        engine.run()
    return WhatIfReport(
        verdicts=tuple(verdicts[i] for i in range(len(tickets)))
    )
