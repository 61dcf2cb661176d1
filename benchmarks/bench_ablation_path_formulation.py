"""Ablation: edge-based vs. path-based LP formulation (DESIGN.md #1).

The edge formulation is exact; the path formulation (what SWAN/B4
deploy) restricts each demand to k tunnels.  The ablation shows how the
optimality gap closes as k grows — and that both run unmodified on the
augmented graph.
"""

import time

import numpy as np

from repro.analysis.report import render_series
from repro.core.augmentation import augment_topology
from repro.core.penalties import TrafficDisruptionPenalty
from repro.net.demands import gravity_demands
from repro.net.topologies import us_backbone_like
from repro.te.lp import MultiCommodityLp
from repro.te.pathlp import PathBasedLp


def test_ablation_path_formulation(benchmark):
    topology = us_backbone_like()
    for link in topology.real_links():
        topology.replace_link(link.link_id, headroom_gbps=75.0)
    augmented = augment_topology(
        topology, penalty_policy=TrafficDisruptionPenalty()
    ).topology
    demands = gravity_demands(
        topology, 9000.0, np.random.default_rng(4), sparsity=0.6
    )

    def run():
        out = {}
        start = time.perf_counter()
        edge = MultiCommodityLp(augmented, demands).max_throughput()
        out["edge (exact)"] = (edge.objective_value, time.perf_counter() - start)
        for k in (1, 2, 4, 8):
            start = time.perf_counter()
            path = PathBasedLp(augmented, demands, k_paths=k).max_throughput()
            out[f"path k={k}"] = (
                path.objective_value,
                time.perf_counter() - start,
            )
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    exact = results["edge (exact)"][0]
    rows = [
        (name, gbps, gbps / exact, seconds)
        for name, (gbps, seconds) in results.items()
    ]
    print("\nAblation — LP formulation on the augmented backbone")
    print(render_series("  one row per formulation", rows,
                        header=["formulation", "Gbps", "vs exact", "seconds"]))

    # the gap closes monotonically in k and never exceeds the optimum
    values = [results[f"path k={k}"][0] for k in (1, 2, 4, 8)]
    assert values == sorted(values)
    assert values[-1] <= exact + 1e-3
    assert values[-1] >= 0.9 * exact  # 8 tunnels come close
    benchmark.extra_info["k8_vs_exact"] = round(values[-1] / exact, 4)
    benchmark.extra_info["k1_vs_exact"] = round(values[0] / exact, 4)
