#!/usr/bin/env python
"""Reaction time matters: scheduled vs. reactive vs. proactive control.

A TE controller that only recomputes every few hours is blind to a dip
that starts between rounds — the affected link silently drops traffic
until the next recomputation.  This example injects a mid-interval
amplifier dip into a week of telemetry and compares three reaction
modes:

* scheduled — rounds only (today's SWAN-style cadence);
* reactive  — an emergency round the moment a threshold is crossed;
* proactive — an emergency round the moment the EWMA monitor flags the
  dip, downgrading a rung before the threshold is even reached.

Run:  python examples/proactive_monitoring.py
"""

import numpy as np

from repro.analysis.report import render_series
from repro.core.controller import DynamicCapacityController
from repro.core.policies import run_policy
from repro.net.demands import gravity_demands
from repro.net.topologies import abilene
from repro.optics.impairments import AmplifierDegradation
from repro.sim.reactive import reactive_replay
from repro.telemetry.timebase import Timebase
from repro.telemetry.traces import NoiseModel, synthesize_cable_traces


def build_telemetry(topology, days=7.0, seed=5):
    """A week of telemetry with a slow dip starting between TE rounds."""
    timebase = Timebase.from_duration(days=days)
    link_ids = [l.link_id for l in topology.real_links()]
    # 45 minutes past a round boundary, 8 hours long, 15 -> 5 dB
    event = AmplifierDegradation(3 * 86_400.0 + 2_700.0, 8 * 3600.0, 10.0)
    rng = np.random.default_rng(seed)
    traces = synthesize_cable_traces(
        "monitored-fiber",
        rng.uniform(14.0, 16.5, size=len(link_ids)),
        timebase,
        [event],
        {},
        NoiseModel(sigma_db=0.12, wander_amplitude_db=0.1),
        rng,
    )
    return dict(zip(link_ids, traces))


def main() -> None:
    topology = abilene()
    demands = gravity_demands(topology, 3500.0, np.random.default_rng(2))
    traces = build_telemetry(topology)

    rows = []
    for mode in ("scheduled", "reactive", "proactive"):
        controller = DynamicCapacityController(
            topology, policy=run_policy(), seed=0
        )
        result = reactive_replay(
            controller, traces, demands, te_interval_s=4 * 3600.0, mode=mode
        )
        rows.append(
            (
                mode,
                result.lost_gbps_hours,
                result.n_scheduled_rounds,
                result.n_emergency_rounds,
            )
        )

    print(
        render_series(
            "reaction modes, one week with a mid-interval dip",
            rows,
            header=["mode", "lost Gbps-h", "rounds", "emergencies"],
        )
    )
    scheduled_loss = rows[0][1]
    reactive_loss = rows[1][1]
    if scheduled_loss > 0:
        saved = 100.0 * (1.0 - reactive_loss / scheduled_loss)
        print(
            f"\nreacting at telemetry cadence instead of TE cadence avoids "
            f"{saved:.0f}% of the dip's traffic loss"
        )


if __name__ == "__main__":
    main()
