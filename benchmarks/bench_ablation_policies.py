"""Ablation: run / walk / crawl adaptation policies (DESIGN.md #4).

One week of telemetry with a midweek amplifier event, replayed through
the closed-loop controller under each policy.  Run chases every dB,
walk adds hysteresis, crawl only downgrades — the spectrum the title
names.
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


def _telemetry(topology, days=7.0, seed=11):
    timebase = Timebase.from_duration(days=days)
    link_ids = [l.link_id for l in topology.real_links()]
    event = AmplifierDegradation(3.5 * 86_400.0, 12 * 3600.0, 10.0)
    rng = np.random.default_rng(seed)
    baselines = rng.uniform(13.5, 16.5, size=len(link_ids))
    traces = synthesize_cable_traces(
        "bench-fiber", baselines, timebase, [event], {},
        NoiseModel(sigma_db=0.15, wander_amplitude_db=0.1), rng,
    )
    return dict(zip(link_ids, traces))


def test_ablation_policies(benchmark):
    topology = abilene()
    demands = gravity_demands(topology, 4000.0, np.random.default_rng(3))
    traces = _telemetry(topology)

    def run_all():
        out = {}
        for policy in (run_policy(), walk_policy(), crawl_policy()):
            controller = DynamicCapacityController(topology, policy=policy, seed=1)
            out[policy.name] = replay_controller(
                controller, traces, demands, te_interval_s=6 * 3600.0
            )
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [
        (
            name,
            r.mean_throughput_gbps,
            float(r.throughput_gbps.min()),
            r.total_capacity_changes,
            round(r.total_downtime_s, 2),
        )
        for name, r in results.items()
    ]
    print("\nAblation — adaptation policy over one week (amplifier event midweek)")
    print(render_series("  one row per policy", rows,
                        header=["policy", "mean Gbps", "min Gbps", "changes",
                                "downtime s"]))

    run_r, walk_r, crawl_r = results["run"], results["walk"], results["crawl"]
    # throughput ordering: run >= walk >= crawl
    assert run_r.mean_throughput_gbps >= walk_r.mean_throughput_gbps - 1.0
    assert walk_r.mean_throughput_gbps > crawl_r.mean_throughput_gbps
    # churn ordering: crawl changes least
    assert crawl_r.total_capacity_changes <= walk_r.total_capacity_changes
    benchmark.extra_info["run_mean_gbps"] = round(run_r.mean_throughput_gbps, 1)
    benchmark.extra_info["crawl_mean_gbps"] = round(
        crawl_r.mean_throughput_gbps, 1
    )
