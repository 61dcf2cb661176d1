"""Ablation: the penalty function (DESIGN.md decision #2).

Section 4.2 lets operators pick the penalty arbitrarily.  This ablation
runs the same augmented-TE round under four policies and reports the
trade-off: throughput vs. number of upgrades vs. traffic disrupted.
Zero penalty upgrades greedily; traffic-proportional (the paper's
suggestion) avoids disturbing loaded links; a large constant is the
conservative operator.
"""

import numpy as np

from repro.analysis.report import render_series
from repro.core.augmentation import augment_topology
from repro.core.penalties import ConstantPenalty, TrafficDisruptionPenalty, ZeroPenalty
from repro.core.translation import translate
from repro.net.demands import gravity_demands
from repro.net.topologies import abilene
from repro.optics.modulation import DEFAULT_MODULATIONS
from repro.te.lp import MultiCommodityLp


def _round(topology, demands, policy, traffic):
    augmented = augment_topology(
        topology, penalty_policy=policy, current_traffic=traffic
    )
    outcome = MultiCommodityLp(
        augmented.topology, demands
    ).min_penalty_at_max_throughput()
    return translate(augmented, outcome.solution, table=DEFAULT_MODULATIONS)


def test_ablation_penalties(benchmark):
    topology = abilene()
    for link in topology.real_links():
        topology.replace_link(link.link_id, headroom_gbps=100.0)
    demands = gravity_demands(topology, 5000.0, np.random.default_rng(5))

    # a previous TE round's traffic, for the disruption-aware policy
    base = MultiCommodityLp(topology, demands).max_throughput().solution
    traffic = {l.link_id: base.link_flow(l.link_id) for l in topology.links}

    policies = [
        ("zero", ZeroPenalty()),
        ("constant100", ConstantPenalty(100.0)),
        ("traffic", TrafficDisruptionPenalty()),
        ("traffic10x", TrafficDisruptionPenalty(scale=10.0)),
    ]

    def run_all():
        return {
            name: _round(topology, demands, policy, traffic)
            for name, policy in policies
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for name, _ in policies:
        r = results[name]
        rows.append(
            (
                name,
                r.solution.total_allocated_gbps,
                len(r.upgrades),
                r.total_disrupted_gbps,
            )
        )
    print("\nAblation — penalty function (same demands, same TE)")
    print(render_series("  one row per policy", rows,
                        header=["policy", "Gbps", "upgrades", "disrupted"]))

    throughputs = [r[1] for r in rows]
    # max throughput is phase-1: identical across penalty choices
    assert max(throughputs) - min(throughputs) < 1.0
    # pricing disruption reduces upgrades of loaded links
    zero_upgrades = len(results["zero"].upgrades)
    priced_upgrades = len(results["traffic10x"].upgrades)
    assert priced_upgrades <= zero_upgrades
    benchmark.extra_info["zero_upgrades"] = zero_upgrades
    benchmark.extra_info["traffic10x_upgrades"] = priced_upgrades
