#!/usr/bin/env python
"""Availability: failures vs. flaps (Section 2.2 of the paper).

Generates a synthetic backbone's SNR telemetry and replays it twice:
once under today's binary up/down rule (down whenever SNR < 6.5 dB) and
once with dynamic capacities (down only below the 50 Gbps rung at
3.0 dB).  Prints how many failures become capacity flaps and the
downtime saved — the paper finds ~25% of failures avoidable.

Run:  python examples/availability_replay.py
"""

from repro.analysis.report import render_distribution
from repro.sim.availability import availability_report
from repro.telemetry.dataset import BackboneConfig, BackboneDataset


def main() -> None:
    config = BackboneConfig(n_cables=16, years=1.0, seed=42)
    dataset = BackboneDataset(config)
    print(
        f"replaying {dataset.n_links()} links x {config.years} years "
        f"of 15-minute SNR telemetry..."
    )

    report = availability_report(dataset.iter_traces())

    print(f"\nbinary failures observed:   {report.n_binary_failures}")
    print(
        f"avoided by dynamic capacity: {report.n_avoided} "
        f"({100.0 * report.avoided_fraction:.1f}% — paper: ~25%)"
    )
    print(f"downtime saved:             {report.total_downtime_saved_h:.0f} h")
    print(
        f"mean availability:          binary "
        f"{100.0 * report.mean_binary_availability:.4f}% -> dynamic "
        f"{100.0 * report.mean_dynamic_availability:.4f}%"
    )

    saved = [l.downtime_saved_h for l in report.links if l.downtime_saved_h > 0]
    if saved:
        print()
        print(render_distribution("per-link downtime saved", saved, unit="h"))


if __name__ == "__main__":
    main()
