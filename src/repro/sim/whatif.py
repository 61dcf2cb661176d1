"""What-if: replay a ticket corpus against a dynamic-capacity network.

The question an operator asks after reading the paper: *"had we
deployed this last quarter, which of our tickets would have mattered
less?"*  This module answers it by replaying each ticket's outage as a
cable event on the real topology and solving the TE twice — binary
rule vs. dynamic flap — and reporting per-ticket verdicts.

The question has no timeline, so the replay is a plain loop: the
distinct ``(cable, binary?)`` scenarios a corpus needs are known up
front, :func:`settle_scenarios` settles them, and one pass over the
corpus wraps the settled values in verdicts.  Verdicts are reported in
corpus order, so the report is identical whether a corpus arrives
sorted or not.

:func:`settle_scenarios` is the one scenario settler: the cable drill
(:func:`repro.sim.network_availability.cable_event_impacts`) calls it
for every cable.  It validates its inputs before anything is solved,
then works in three phases:

1. the baseline is solved, and its per-commodity flow block is read
   from the raw solver vector;
2. a darkened cable keeps the baseline value when the reroute
   certificate moves its flow onto detours; the other darkened cables
   are batch-solved;
3. a flapped cable keeps the baseline value when its darkened value
   already equals the baseline (binary <= dynamic <= baseline), or when
   the reroute certificate moves its load above the fallback rate onto
   detours; the rest are batch-solved.

The reroute certificate (:class:`_Reroute`) builds a flow for the
scenario out of the baseline's.  A *detour* of a cable link is a path
from its source to its sink over none of the cable's links.  Two
constructions are tried in turn: per commodity, each commodity's
share of a link's excess moves to the fewest-hop detour and the
commodity's own antiparallel flow cancels; in aggregate, each link's
whole excess is routed over the baseline's spare capacity by
augmenting paths.  Every commodity keeps its baseline throughput, so
if the built flow fits the scenario's capacities the scenario's
optimum, which can never exceed the baseline's, equals it.  A link
whose load the reroute raised must fit under its capacity minus
:data:`REROUTE_MARGIN_GBPS`; a link it did not raise keeps the
baseline's own feasibility, so a cable with no excess is certified
without moving anything.

A scenario settled by a certificate is never solved; each counts one
``sim.whatif.certified``, and the baseline plus each batch-solved
scenario count one ``sim.whatif.solved``.  Batch solves optionally
fan out over the shared :mod:`repro.parallel` pool with per-worker TE
structure caches (:mod:`repro.te.incremental`).  The certificates run
before the batch solve, so values are identical for any worker count
and with the TE cache on or off.  A solve of a lossless scenario can
land a few ulps either side of the baseline, so the settler stores
any value within :data:`LOSS_FLOOR_GBPS` of the baseline as the
baseline: a certified value and a solved one give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.net.srlg import SrlgMap
from repro.net.topology import Topology
from repro.net.demands import Demand
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.state.model import LinkState, NetworkState
from repro.te.incremental import batch_throughput, solve_throughput
from repro.tickets.model import Ticket


#: a scenario value within this many Gbps of the baseline, on either
#: side, is LP round-off and reads as the baseline
LOSS_FLOOR_GBPS = 1e-9

#: headroom a link keeps under its capacity where the reroute
#: certificate raises its load
REROUTE_MARGIN_GBPS = 1e-6

#: residual capacity at or below which an augmenting path ignores an
#: arc (above the rounding left on a saturated arc, so each augmenting
#: path retires one)
_RESIDUAL_GBPS = 1e-9


@dataclass(frozen=True)
class TicketVerdict:
    """What one historical ticket would have cost, both ways."""

    ticket: Ticket
    binary_loss_gbps: float
    dynamic_loss_gbps: float

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


class _Reroute:
    """The reroute certificate over one baseline's per-commodity flow.

    ``links`` are the baseline state's live link states (id, endpoints
    and capacity), in the LP's link order; ``flows`` is the
    baseline's flow block, one row per commodity and one column per
    link.
    :meth:`certifies` asks whether a scenario that lowers some links'
    capacities keeps the baseline value, by building a flow for it that
    ships every commodity's baseline throughput.
    """

    def __init__(self, links: Sequence[LinkState], flows: np.ndarray):
        self.index = {link.link_id: e for e, link in enumerate(links)}
        self.src = [link.src for link in links]
        self.dst = [link.dst for link in links]
        self.capacity = [link.capacity_gbps for link in links]
        self.flows = flows.tolist()
        self.load = [sum(column) for column in zip(*self.flows)]
        self.out: dict[str, list[int]] = {}
        self.into: dict[str, list[int]] = {}
        by_ends: dict[tuple[str, str], int] = {}
        for e, link in enumerate(links):
            self.out.setdefault(link.src, []).append(e)
            self.into.setdefault(link.dst, []).append(e)
            by_ends.setdefault((link.src, link.dst), e)
        # (e, r): link r runs link e's way back
        self.antiparallel: list[tuple[int, int]] = []
        for e, link in enumerate(links):
            r = by_ends.get((link.dst, link.src))
            if r is not None and r > e:
                self.antiparallel.append((e, r))

    def certifies(self, lowered: dict[int, float]) -> bool:
        """Whether a flow with the baseline value fits the scenario.

        ``lowered`` maps the index of each link the scenario changes to
        its scenario capacity.  Each such link sheds its excess down to
        that capacity minus the margin (all of it when darkened).
        """
        excess = {
            e: self.load[e] - max(capacity - REROUTE_MARGIN_GBPS, 0.0)
            for e, capacity in lowered.items()
            if self.load[e] > capacity
        }
        if not excess:
            return True
        for construct in (self._per_commodity, self._aggregate):
            load = construct(lowered, excess)
            if load is not None and self._fits(load, lowered):
                return True
        return False

    def _fits(self, load: list[float], lowered: dict[int, float]) -> bool:
        """Whether every link the reroute raised fits under its capacity
        minus the margin; the others keep the baseline's feasibility
        (a changed link sheds its excess by construction)."""
        return all(
            new <= lowered.get(e, self.capacity[e]) - REROUTE_MARGIN_GBPS
            for e, new in enumerate(load)
            if new > self.load[e]
        )

    def _per_commodity(
        self, lowered: dict[int, float], excess: dict[int, float]
    ) -> list[float] | None:
        """Link loads after moving each commodity's share of the excess
        to the fewest-hop detour and cancelling antiparallel flow."""
        flows = [row[:] for row in self.flows]
        for e, amount in excess.items():
            path = self._path(
                self.src[e],
                self.dst[e],
                lambda link, forward: forward and link not in lowered,
            )
            if path is None:
                return None
            share = amount / self.load[e]
            for row in flows:
                moved = row[e] * share
                if moved > 0:
                    row[e] -= moved
                    for link, _ in path:
                        row[link] += moved
        for row in flows:
            for e, r in self.antiparallel:
                common = min(row[e], row[r])
                if common > 0:
                    row[e] -= common
                    row[r] -= common
        return [sum(column) for column in zip(*flows)]

    def _aggregate(
        self, lowered: dict[int, float], excess: dict[int, float]
    ) -> list[float] | None:
        """Link loads after routing each link's whole excess over the
        baseline's spare capacity by shortest augmenting paths.

        Twice the margin is held back from the spare capacity, so the
        rounding of these sums cannot cross the margin :meth:`_fits`
        checks.
        """
        spare = [
            0.0
            if e in lowered
            else max(capacity - load - 2 * REROUTE_MARGIN_GBPS, 0.0)
            for e, (capacity, load) in enumerate(zip(self.capacity, self.load))
        ]
        load = self.load[:]
        for e, amount in excess.items():
            flow = self._augment(self.src[e], self.dst[e], spare, amount)
            if flow is None:
                return None
            load[e] -= amount
            for link, value in enumerate(flow):
                load[link] += value
                spare[link] -= value
        return load

    def _augment(
        self, source: str, sink: str, spare: list[float], amount: float
    ) -> list[float] | None:
        """A ``source``-``sink`` flow of ``amount`` within ``spare`` by
        shortest augmenting paths, or ``None`` when none carries it."""
        flow = [0.0] * len(spare)

        def residual(link: int, forward: bool) -> float:
            return spare[link] - flow[link] if forward else flow[link]

        while amount > 0:
            path = self._path(
                source,
                sink,
                lambda link, forward: residual(link, forward) > _RESIDUAL_GBPS,
            )
            if path is None:
                return None
            push = min(amount, *(residual(link, forward) for link, forward in path))
            for link, forward in path:
                flow[link] += push if forward else -push
            amount -= push
        return flow

    def _path(
        self, source: str, sink: str, usable: Callable[[int, bool], bool]
    ) -> list[tuple[int, bool]] | None:
        """The fewest-hop ``source``-``sink`` path, or ``None``.

        A step is ``(link, forward)``: along a link, or back against it
        when ``forward`` is false, wherever ``usable(link, forward)``
        holds.  Ties go to the earlier link.
        """
        via: dict[str, tuple[int, bool]] = {}
        frontier = [source]
        while frontier and sink not in via:
            reached = []
            for node in frontier:
                steps = [
                    (link, True, self.dst[link]) for link in self.out.get(node, ())
                ] + [
                    (link, False, self.src[link]) for link in self.into.get(node, ())
                ]
                for link, forward, head in steps:
                    if head != source and head not in via and usable(link, forward):
                        via[head] = (link, forward)
                        reached.append(head)
            frontier = reached
        if sink not in via:
            return None
        path = []
        node = sink
        while node != source:
            link, forward = via[node]
            path.append((link, forward))
            node = self.src[link] if forward else self.dst[link]
        return path


def settle_scenarios(
    topology: Topology,
    demands: Sequence[Demand],
    srlgs: SrlgMap,
    darkened: Sequence[str],
    flapped: Sequence[str],
    *,
    fallback_capacity_gbps: float,
    workers: int | None = None,
    te_cache: bool | None = None,
) -> tuple[float, dict[tuple[str, bool], float]]:
    """The baseline throughput and every cable scenario's, settled once.

    ``darkened`` names the cables whose links are withdrawn and
    ``flapped`` those whose links drop to ``fallback_capacity_gbps``.
    The inputs are checked before anything is solved: a ``ValueError``
    names the links of ``srlgs`` missing from ``topology``, a
    ``KeyError`` the darkened cables missing from ``srlgs``, and a
    ``ValueError`` the flapped cables not darkened too.  The scenarios
    come back keyed ``(cable, binary?)``.  Certificates read the
    lowered capacities straight off the base snapshot; only a scenario
    that is solved becomes a copy-on-write fork of it, solved
    value-only by :func:`~repro.te.incremental.batch_throughput`.  A
    scenario value within :data:`LOSS_FLOOR_GBPS` of the baseline, on
    either side, is stored as the baseline.

    ``workers`` spreads the scenario solves over the shared pool
    (``None`` defers to ``REPRO_WORKERS``); ``te_cache=False`` bypasses
    the incremental TE cache (``None`` uses it).  The values are
    identical for every combination of both knobs.
    """
    missing = srlgs.validate_against(topology)
    if missing:
        raise ValueError(f"SRLG map references unknown links: {missing[:5]}")
    unknown = sorted(set(darkened) - set(srlgs.groups))
    if unknown:
        raise KeyError(f"cables not in the SRLG map: {unknown}")
    undarkened = sorted(set(flapped) - set(darkened))
    if undarkened:
        raise ValueError(
            f"flapped cables must be darkened too; not in darkened: {undarkened}"
        )
    if flapped and fallback_capacity_gbps <= 0:
        raise ValueError("fallback_capacity_gbps must be positive")
    base = NetworkState.from_topology(topology, label="whatif.base")

    # phase 1: the baseline, and its per-commodity flow block from the
    # raw solver vector (not the EPSILON-filtered edge flows), in the
    # LP's link order: the base state's live links
    baseline, x = solve_throughput(base, demands, te_cache=te_cache)
    links = base.live_links()
    reroute = _Reroute(
        links, x[: len(demands) * len(links)].reshape(len(demands), len(links))
    )

    values: dict[tuple[str, bool], float] = {}
    n_certified = 0
    n_solved = 1  # the baseline

    def settle(keys: list[tuple[str, bool]]) -> None:
        # phase 2 (darkened keys) and phase 3 (flapped keys): a key the
        # reroute certificate covers, or a flap whose darkened value
        # already equals the baseline (binary <= dynamic <= baseline),
        # keeps the baseline; only the rest are forked and batch-solved
        nonlocal n_certified, n_solved
        to_solve: list[tuple[tuple[str, bool], NetworkState]] = []
        for cable, binary in keys:
            cable_links = sorted(srlgs.links_of(cable))
            # the scenario's capacity on each cable link it lowers:
            # what darken and flap would give the fork
            lowered = {
                e: 0.0 if binary else min(fallback_capacity_gbps, reroute.capacity[e])
                for e in [reroute.index[l] for l in cable_links if l in reroute.index]
            }
            if (
                not binary and values[(cable, True)] == baseline
            ) or reroute.certifies(lowered):
                values[(cable, binary)] = baseline
                n_certified += 1
                continue
            if binary:
                scenario = base.darken(cable_links, label=f"fail:{cable}")
            else:
                scenario = base.flap(
                    cable_links, fallback_capacity_gbps, label=f"degrade:{cable}"
                )
            to_solve.append(((cable, binary), scenario))
        solved = batch_throughput(
            [scenario for _, scenario in to_solve],
            demands,
            workers=workers,
            te_cache=te_cache,
        )
        values.update(zip((key for key, _ in to_solve), solved))
        n_solved += len(to_solve)

    settle([(cable, True) for cable in dict.fromkeys(darkened)])
    settle([(cable, False) for cable in dict.fromkeys(flapped)])
    _metrics.counter("sim.whatif.certified").inc(n_certified)
    _metrics.counter("sim.whatif.solved").inc(n_solved)
    # a certified value is the baseline itself; a solve of the same
    # optimum may land a few ulps either side of it
    return baseline, {
        key: baseline if abs(value - baseline) <= LOSS_FLOOR_GBPS else value
        for key, value in values.items()
    }


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

    Ticket elements must name cables of ``srlgs``, and every link of
    ``srlgs`` must be a link of ``topology``; fiber cuts stay
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

    verdicts = []
    with _trace.span("sim.whatif", n_tickets=len(tickets)):
        # the distinct (cable, binary?) scenarios are known up front:
        # each ticket needs the darkened world, non-cut tickets the
        # flapped one too
        baseline, scenario_values = settle_scenarios(
            topology,
            demands,
            srlgs,
            [t.element for t in tickets],
            [t.element for t in tickets if not t.is_binary_failure],
            fallback_capacity_gbps=fallback_capacity_gbps,
            workers=workers,
            te_cache=te_cache,
        )
        for ticket in tickets:
            binary_tp = scenario_values[(ticket.element, True)]
            if ticket.is_binary_failure:
                dynamic_tp = binary_tp  # a cut is a cut in both worlds
            else:
                dynamic_tp = scenario_values[(ticket.element, False)]
            verdicts.append(
                TicketVerdict(
                    ticket=ticket,
                    binary_loss_gbps=max(baseline - binary_tp, 0.0),
                    dynamic_loss_gbps=max(baseline - dynamic_tp, 0.0),
                )
            )
    return WhatIfReport(verdicts=tuple(verdicts))
