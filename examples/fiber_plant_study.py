#!/usr/bin/env python
"""End-to-end: a geographically real fiber plant under dynamic capacity.

Builds the optical plant beneath a 21-node US backbone — cables sized
by great-circle distance, DWDM channels assigned per fiber, SNR
baselines from each cable's amplifier chain — then:

1. shows the plant inventory and where the SNR headroom physically is;
2. prices the headroom and availability gains in dollars;
3. asks the network-level availability question: for each cable, what
   does a failure cost under the binary rule vs. a dynamic flap;
4. replays a month of telemetry through the closed-loop controller.

Run:  python examples/fiber_plant_study.py
"""

import numpy as np

from repro.analysis.report import render_series
from repro.core.controller import DynamicCapacityController
from repro.core.policies import walk_policy
from repro.net.demands import gravity_demands
from repro.net.plant import FiberPlant
from repro.net.topologies import site_coordinates, us_backbone_like
from repro.sim.availability import availability_report
from repro.sim.economics import estimate_savings
from repro.sim.network_availability import cable_event_impacts
from repro.sim.replay import replay_controller
from repro.telemetry.stats import summarize_trace


def show_plant(plant: FiberPlant) -> None:
    print(f"{plant}\n")
    segments = sorted(
        plant.segments.values(), key=lambda s: s.distance_km, reverse=True
    )
    baselines = plant.baseline_snrs()
    spectrum = plant.spectrum_assignments()
    rows = []
    for segment in segments[:6]:
        snr = np.mean([baselines[i] for i in segment.link_ids])
        rows.append(
            (
                segment.cable_name.removeprefix("fiber:"),
                segment.distance_km,
                segment.n_spans,
                snr,
                spectrum[segment.cable_name].n_assigned,
            )
        )
    print(
        render_series(
            "longest cables (SNR from the amplifier-chain budget)",
            rows,
            header=["cable", "km", "spans", "SNR dB", "channels"],
        )
    )


def price_the_headroom(plant: FiberPlant, traces) -> None:
    trace_list = list(traces.values())
    summaries = [summarize_trace(t) for t in trace_list]
    availability = availability_report(trace_list)
    savings = estimate_savings(
        summaries, availability, observed_years=30.0 / 365.25
    )
    print(f"\nheadroom across the plant: {savings.headroom_gbps:.0f} Gbps")
    print(f"capex deferral:            ${savings.capex_deferral_usd:,.0f}")
    print(f"annual lease deferral:     ${savings.annual_lease_deferral_usd:,.0f}")
    print(f"annual outage avoided:     ${savings.annual_outage_avoided_usd:,.0f}")


def cable_failure_matrix(plant: FiberPlant, demands) -> None:
    report = cable_event_impacts(
        plant.topology, demands, plant.srlg_map()
    )
    worst = report.worst_binary_loss
    print(f"\ncable-failure impact ({len(report.impacts)} cables):")
    print(
        f"  fully survivable under binary failure: "
        f"{report.cables_fully_survivable}"
    )
    print(
        f"  worst cable ({worst.cable.removeprefix('fiber:')}): binary loses "
        f"{worst.binary_loss_gbps:.0f} Gbps, dynamic only "
        f"{worst.dynamic_loss_gbps:.0f} Gbps"
    )
    print(f"  mean traffic rescued per cable event: "
          f"{report.mean_rescued_gbps:.0f} Gbps")


def closed_loop_month(plant: FiberPlant, traces, demands) -> None:
    controller = DynamicCapacityController(
        plant.topology, policy=walk_policy(), seed=0
    )
    result = replay_controller(
        controller, traces, demands, te_interval_s=12 * 3600.0
    )
    print(
        f"\nclosed loop, 30 days @ 12 h TE rounds: "
        f"mean {result.mean_throughput_gbps:.0f} Gbps, "
        f"{result.total_capacity_changes} capacity changes, "
        f"{result.total_downtime_s:.2f} s reconfiguration downtime"
    )


def main() -> None:
    topology = us_backbone_like()
    plant = FiberPlant(topology, site_coordinates(topology), seed=7)
    demands = gravity_demands(topology, 5000.0, np.random.default_rng(2))
    traces = plant.synthesize_telemetry(days=30.0)

    show_plant(plant)
    price_the_headroom(plant, traces)
    cable_failure_matrix(plant, demands)
    closed_loop_month(plant, traces, demands)


if __name__ == "__main__":
    main()
