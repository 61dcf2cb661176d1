#!/usr/bin/env python
"""The full closed loop: telemetry -> augment -> TE -> BVT.

Runs a :class:`DynamicCapacityController` over the Abilene backbone for
a week of synthetic SNR telemetry that includes a cable-wide amplifier
degradation, comparing the run / walk / crawl policies of the title:
throughput carried, capacity churn, and reconfiguration downtime.

Run:  python examples/closed_loop_controller.py
"""

import numpy as np

from repro.analysis.report import render_series
from repro.core.controller import DynamicCapacityController
from repro.core.policies import crawl_policy, run_policy, walk_policy
from repro.net.demands import gravity_demands
from repro.net.topologies import abilene
from repro.optics.impairments import AmplifierDegradation
from repro.sim.replay import replay_controller
from repro.telemetry.timebase import Timebase
from repro.telemetry.traces import NoiseModel, synthesize_cable_traces


def build_telemetry(topology, days=7.0, seed=11):
    """One week of 15-minute SNR samples for every wavelength.

    Midweek, an amplifier on the shared cable degrades for 12 hours,
    dropping every wavelength from ~15 dB to ~5 dB — failing binary
    links but leaving 50 Gbps feasible.
    """
    timebase = Timebase.from_duration(days=days)
    link_ids = [l.link_id for l in topology.real_links()]
    event = AmplifierDegradation(3.5 * 86_400.0, 12 * 3600.0, 10.0)
    rng = np.random.default_rng(seed)
    baselines = rng.uniform(13.0, 16.5, size=len(link_ids))
    traces = synthesize_cable_traces(
        "abilene-fiber",
        baselines,
        timebase,
        [event],
        {},
        NoiseModel(sigma_db=0.15, wander_amplitude_db=0.1),
        rng,
    )
    return dict(zip(link_ids, traces))


def main() -> None:
    topology = abilene()
    demands = gravity_demands(topology, 4000.0, np.random.default_rng(3))
    traces = build_telemetry(topology)

    rows = []
    for policy in (run_policy(), walk_policy(), crawl_policy()):
        controller = DynamicCapacityController(
            topology, policy=policy, seed=policy.name == "run" and 1 or 2
        )
        result = replay_controller(
            controller, traces, demands, te_interval_s=6 * 3600.0
        )
        rows.append(
            (
                policy.name,
                result.mean_throughput_gbps,
                float(result.throughput_gbps.min()),
                result.total_capacity_changes,
                result.total_downtime_s,
            )
        )

    print(
        render_series(
            "run / walk / crawl over one week (amplifier event midweek)",
            rows,
            header=["policy", "mean Gbps", "min Gbps", "changes", "downtime s"],
        )
    )
    print(
        "\nrun maximises throughput, crawl never upgrades, walk trades a"
        "\nlittle peak capacity for less churn — the title's spectrum."
    )


if __name__ == "__main__":
    main()
