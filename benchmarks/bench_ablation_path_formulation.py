"""Ablation: edge-based vs. path-based LP formulation (DESIGN.md #1).

The edge formulation is exact; the path formulation (what SWAN/B4
deploy) restricts each demand to k tunnels.  The ablation shows how the
optimality gap closes as k grows — and that both run unmodified on the
augmented graph (the registered ``allocators`` experiment).
"""

from repro.analysis.report import render_series
from repro.experiments.registry import run_spec
from repro.experiments.spec import ScenarioSpec


def test_ablation_path_formulation(benchmark):
    spec = ScenarioSpec.create(
        "bench/path-lp", "allocators",
        offered_gbps=9000.0, sparsity=0.6, seed=4,
    )
    metrics = benchmark.pedantic(run_spec, args=(spec,), rounds=1, iterations=1)
    results = {"edge (exact)": metrics["edge_lp_gbps"]}
    results.update({f"path k={p['k']}": p["gbps"] for p in metrics["path_lp"]})
    exact = results["edge (exact)"]
    rows = [(name, gbps, gbps / exact) for name, gbps in results.items()]
    print("\nAblation — LP formulation on the augmented backbone")
    print(render_series("  one row per formulation", rows,
                        header=["formulation", "Gbps", "vs exact"]))

    # the gap closes monotonically in k and never exceeds the optimum
    values = [results[f"path k={k}"] for k in (1, 2, 4, 8)]
    assert values == sorted(values)
    assert values[-1] <= exact + 1e-3
    assert values[-1] >= 0.9 * exact  # 8 tunnels come close
    benchmark.extra_info["k8_vs_exact"] = round(values[-1] / exact, 4)
    benchmark.extra_info["k1_vs_exact"] = round(values[0] / exact, 4)
