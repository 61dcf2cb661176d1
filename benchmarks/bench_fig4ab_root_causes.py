"""Figures 4a/4b: failure root-cause shares (duration and frequency).

Paper: maintenance-window events are ~20% of outage time (25% of
events); fiber cuts only ~10% of time (5% of events); over 90% of
events are the "opportunity area" dynamic capacity could soften.
"""

import numpy as np

from repro.analysis import figures
from repro.analysis.report import render_shares
from repro.optics.impairments import RootCause
from repro.tickets.analysis import opportunity_area
from repro.tickets.generator import TicketGenerator


def test_fig4ab_root_causes(benchmark):
    shares = benchmark.pedantic(
        figures.fig4ab_root_causes, rounds=1, iterations=1
    )
    print(f"\nFigures 4a/4b — {shares.n_tickets} tickets, "
          f"{shares.total_outage_hours:.0f} h of outage")
    print(render_shares("  4a: share of outage DURATION", dict(shares.duration)))
    print(render_shares("  4b: share of event FREQUENCY", dict(shares.frequency)))

    corpus = TicketGenerator().generate(np.random.default_rng(2017))
    area = opportunity_area(corpus)
    print(f"  opportunity area: {100.0 * area.opportunity_frequency:.1f}% of "
          f"events (paper: >90%)")

    benchmark.extra_info["maintenance_freq_pct"] = round(
        shares.frequency_percent(RootCause.MAINTENANCE), 1
    )
    benchmark.extra_info["cut_duration_pct"] = round(
        shares.duration_percent(RootCause.FIBER_CUT), 1
    )

    assert shares.frequency_percent(RootCause.MAINTENANCE) == 25.0 or (
        19.0 <= shares.frequency_percent(RootCause.MAINTENANCE) <= 31.0
    )
    assert 2.0 <= shares.frequency_percent(RootCause.FIBER_CUT) <= 9.0
    assert 4.0 <= shares.duration_percent(RootCause.FIBER_CUT) <= 17.0
    assert area.opportunity_frequency > 0.90
