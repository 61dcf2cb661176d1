"""Ablation: TE algorithm family on the augmented graph (DESIGN.md #1).

Section 4 claims *existing* TE algorithms work unmodified on G'.  This
ablation runs four of them — the exact LP, SWAN-style fairness, B4-style
progressive filling, and greedy CSPF — on the same augmented topology
and compares throughput and solve time.  The LP is the optimum the
combinatorial allocators must never exceed.
"""

import time

import numpy as np

from repro.analysis.report import render_series
from repro.core.augmentation import augment_topology
from repro.core.penalties import TrafficDisruptionPenalty
from repro.net.demands import gravity_demands
from repro.net.topologies import us_backbone_like
from repro.te.b4 import b4_allocate
from repro.te.cspf import cspf_allocate
from repro.te.lp import MultiCommodityLp
from repro.te.swan import swan_allocate


def test_ablation_te_algorithms(benchmark):
    topology = us_backbone_like()
    for link in topology.real_links():
        topology.replace_link(link.link_id, headroom_gbps=75.0)
    augmented = augment_topology(
        topology, penalty_policy=TrafficDisruptionPenalty()
    ).topology
    demands = gravity_demands(topology, 8000.0, np.random.default_rng(9),
                              sparsity=0.5)

    algorithms = {
        "lp-optimal": lambda: MultiCommodityLp(augmented, demands)
        .max_throughput()
        .solution,
        "swan": lambda: swan_allocate(augmented, demands),
        "b4": lambda: b4_allocate(augmented, demands),
        "cspf": lambda: cspf_allocate(augmented, demands),
    }

    def run_all():
        out = {}
        for name, fn in algorithms.items():
            start = time.perf_counter()
            solution = fn()
            out[name] = (solution, time.perf_counter() - start)
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [
        (name, sol.total_allocated_gbps, sol.max_utilization, seconds)
        for name, (sol, seconds) in results.items()
    ]
    print("\nAblation — TE algorithms on the SAME augmented topology")
    print(render_series("  one row per algorithm", rows,
                        header=["algorithm", "Gbps", "max util", "seconds"]))

    lp_total = results["lp-optimal"][0].total_allocated_gbps
    for name, (sol, _) in results.items():
        assert sol.is_valid(), f"{name} produced an invalid solution"
        assert sol.total_allocated_gbps <= lp_total + 1e-3
    # every algorithm runs unmodified on G' and carries real traffic
    assert results["cspf"][0].total_allocated_gbps > 0.3 * lp_total
    benchmark.extra_info["lp_gbps"] = round(lp_total, 1)
    benchmark.extra_info["cspf_gbps"] = round(
        results["cspf"][0].total_allocated_gbps, 1
    )
