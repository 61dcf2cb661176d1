"""Tests for the Figure-4 share analyses."""

import numpy as np
import pytest

from repro.optics.impairments import RootCause
from repro.tickets.analysis import (
    opportunity_area,
    shares_by_cause,
)
from repro.tickets.generator import TicketGenerator
from repro.tickets.model import Ticket


def ticket(cause, hours, i=0):
    return Ticket(
        ticket_id=f"TKT-{i:06d}",
        root_cause=cause,
        opened_s=float(i),
        duration_s=hours * 3600.0,
        element="cable000",
    )


class TestShares:
    def test_hand_computed_shares(self):
        tickets = [
            ticket(RootCause.FIBER_CUT, 10.0, 0),
            ticket(RootCause.HARDWARE, 5.0, 1),
            ticket(RootCause.HARDWARE, 5.0, 2),
            ticket(RootCause.MAINTENANCE, 0.0001, 3),
        ]
        shares = shares_by_cause(tickets)
        assert shares.frequency[RootCause.HARDWARE] == pytest.approx(0.5)
        assert shares.frequency[RootCause.FIBER_CUT] == pytest.approx(0.25)
        assert shares.duration[RootCause.FIBER_CUT] == pytest.approx(0.5, abs=1e-3)
        assert shares.n_tickets == 4
        assert shares.total_outage_hours == pytest.approx(20.0001, abs=1e-3)

    def test_shares_sum_to_one(self):
        corpus = TicketGenerator().generate(np.random.default_rng(0))
        shares = shares_by_cause(corpus)
        assert sum(shares.frequency.values()) == pytest.approx(1.0)
        assert sum(shares.duration.values()) == pytest.approx(1.0)

    def test_percent_helpers(self):
        tickets = [ticket(RootCause.FIBER_CUT, 1.0)]
        shares = shares_by_cause(tickets)
        assert shares.frequency_percent(RootCause.FIBER_CUT) == 100.0
        assert shares.frequency_percent(RootCause.HARDWARE) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            shares_by_cause([])


class TestPaperCalibration:
    """The synthetic corpus must land on the Section 2.2 numbers."""

    @pytest.fixture(scope="class")
    def shares(self):
        corpus = TicketGenerator().generate(np.random.default_rng(2017))
        return shares_by_cause(corpus)

    def test_maintenance_frequency_near_25_percent(self, shares):
        assert shares.frequency_percent(RootCause.MAINTENANCE) == pytest.approx(
            25.0, abs=6.0
        )

    def test_maintenance_duration_near_20_percent(self, shares):
        assert shares.duration_percent(RootCause.MAINTENANCE) == pytest.approx(
            20.0, abs=8.0
        )

    def test_fiber_cut_frequency_near_5_percent(self, shares):
        assert shares.frequency_percent(RootCause.FIBER_CUT) == pytest.approx(
            5.0, abs=3.0
        )

    def test_fiber_cut_duration_near_10_percent(self, shares):
        assert shares.duration_percent(RootCause.FIBER_CUT) == pytest.approx(
            10.0, abs=6.0
        )

    def test_cuts_are_not_the_major_cause(self, shares):
        # the paper's headline: hardware dominates, cuts do not
        assert shares.duration_percent(RootCause.HARDWARE) > shares.duration_percent(
            RootCause.FIBER_CUT
        )


class TestOpportunityArea:
    def test_over_90_percent_of_events(self):
        corpus = TicketGenerator().generate(np.random.default_rng(2017))
        area = opportunity_area(corpus)
        assert area.opportunity_frequency > 0.90

    def test_complement(self):
        corpus = TicketGenerator().generate(np.random.default_rng(2017))
        area = opportunity_area(corpus)
        assert area.binary_frequency + area.opportunity_frequency == pytest.approx(1.0)
        assert area.binary_duration + area.opportunity_duration == pytest.approx(1.0)

    def test_all_cuts_means_no_opportunity(self):
        tickets = [ticket(RootCause.FIBER_CUT, 1.0, i) for i in range(5)]
        area = opportunity_area(tickets)
        assert area.opportunity_frequency == 0.0
