"""Root-cause share analyses of Figures 4a and 4b.

Figure 4a buckets total outage *duration* by root cause; Figure 4b
buckets event *frequency*.  Both are simple shares over the ticket
corpus; the interesting output is the paper's headline: fiber cuts —
the only failures with no capacity-adaptation opportunity — are a small
slice by either measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.optics.impairments import RootCause
from repro.tickets.model import Ticket


@dataclass(frozen=True)
class CauseShares:
    """Frequency and duration shares of every root-cause category."""

    frequency: Mapping[RootCause, float]
    duration: Mapping[RootCause, float]
    n_tickets: int
    total_outage_hours: float

    def frequency_percent(self, cause: RootCause) -> float:
        return 100.0 * self.frequency.get(cause, 0.0)

    def duration_percent(self, cause: RootCause) -> float:
        return 100.0 * self.duration.get(cause, 0.0)


def shares_by_cause(tickets: Iterable[Ticket]) -> CauseShares:
    """Compute both Figure-4 breakdowns in one pass."""
    tickets = list(tickets)
    if not tickets:
        raise ValueError("no tickets to analyse")
    counts: dict[RootCause, int] = {}
    hours: dict[RootCause, float] = {}
    for ticket in tickets:
        counts[ticket.root_cause] = counts.get(ticket.root_cause, 0) + 1
        hours[ticket.root_cause] = (
            hours.get(ticket.root_cause, 0.0) + ticket.duration_hours
        )
    n = len(tickets)
    total_h = sum(hours.values())
    return CauseShares(
        frequency={cause: c / n for cause, c in counts.items()},
        duration={cause: h / total_h for cause, h in hours.items()},
        n_tickets=n,
        total_outage_hours=total_h,
    )


@dataclass(frozen=True)
class OpportunityArea:
    """The paper's split into binary failures vs. adaptation opportunity."""

    binary_frequency: float
    binary_duration: float

    @property
    def opportunity_frequency(self) -> float:
        return 1.0 - self.binary_frequency

    @property
    def opportunity_duration(self) -> float:
        return 1.0 - self.binary_duration


def opportunity_area(tickets: Iterable[Ticket]) -> OpportunityArea:
    """Fraction of failures that dynamic capacity links could soften.

    Fiber cuts are binary (no light, nothing to adapt); every other
    category may leave usable signal.  The paper finds the opportunity
    area covers over 90% of events.
    """
    tickets = list(tickets)
    shares = shares_by_cause(tickets)
    return OpportunityArea(
        binary_frequency=shares.frequency.get(RootCause.FIBER_CUT, 0.0),
        binary_duration=shares.duration.get(RootCause.FIBER_CUT, 0.0),
    )
