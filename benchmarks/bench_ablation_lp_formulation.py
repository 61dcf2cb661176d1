"""Ablation: TE algorithm family on the augmented graph (DESIGN.md #1).

Section 4 claims *existing* TE algorithms work unmodified on G'.  This
ablation runs four of them — the exact LP, SWAN-style fairness, B4-style
progressive filling, and greedy CSPF — on the same augmented topology
(the registered ``allocators`` experiment, ``repro allocators``) and
compares their throughput.  The LP is the optimum the combinatorial
allocators must never exceed.
"""

from repro.analysis.report import render_series
from repro.experiments.registry import run_spec
from repro.experiments.spec import ScenarioSpec


def test_ablation_te_algorithms(benchmark):
    spec = ScenarioSpec.create(
        "bench/allocators", "allocators",
        offered_gbps=8000.0, sparsity=0.5, seed=9,
    )
    metrics = benchmark.pedantic(run_spec, args=(spec,), rounds=1, iterations=1)
    results = {a["name"]: a for a in metrics["allocators"]}

    rows = [
        (name, a["gbps"], a["max_utilization"]) for name, a in results.items()
    ]
    print("\nAblation — TE algorithms on the SAME augmented topology")
    print(render_series("  one row per algorithm", rows,
                        header=["algorithm", "Gbps", "max util"]))

    lp_total = results["lp-optimal"]["gbps"]
    for name, a in results.items():
        assert a["valid"], f"{name} produced an invalid solution"
        assert a["gbps"] <= lp_total + 1e-3
    # every algorithm runs unmodified on G' and carries real traffic
    assert results["cspf"]["gbps"] > 0.3 * lp_total
    benchmark.extra_info["lp_gbps"] = round(lp_total, 1)
    benchmark.extra_info["cspf_gbps"] = round(results["cspf"]["gbps"], 1)
