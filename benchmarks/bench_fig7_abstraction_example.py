"""Figures 7/8: the graph-abstraction worked examples.

Paper (Section 4.1): with both demands grown to 125 Gbps and upgrade
penalty 100, "the penalty-minimizing solution ... will route the
additional traffic such that the capacity of only one link is
increased".  Figure 8's gadget additionally admits a single
unsplittable path at the upgraded rate.
"""

from repro.analysis import figures
from repro.experiments.registry import run_spec
from repro.experiments.spec import ScenarioSpec


def test_fig7_one_upgrade_suffices(benchmark):
    data = benchmark.pedantic(figures.fig7_example, rounds=1, iterations=1)
    print("\nFigure 7 — augmented TE on the four-node square")
    print(f"  demands: A->B = C->D = 125 Gbps; upgrade penalty = 100")
    print(f"  allocated: {data.allocated_gbps:.0f} Gbps (both demands met)")
    print(f"  upgrades: {data.n_upgrades} ({', '.join(data.upgraded_links)})")
    print(f"  penalty paid: {data.penalty_paid:.0f}")

    benchmark.extra_info["n_upgrades"] = data.n_upgrades
    benchmark.extra_info["allocated_gbps"] = round(data.allocated_gbps, 1)

    assert data.allocated_gbps >= 249.9
    assert data.n_upgrades == 1  # the paper's claim


def test_fig8_unsplittable_gadget(benchmark):
    # the gadget is part of the registered ``allocators`` experiment
    spec = ScenarioSpec.create("bench/fig8", "allocators")
    metrics = benchmark.pedantic(run_spec, args=(spec,), rounds=1, iterations=1)
    single_path = metrics["gadget_single_path_gbps"]
    total = metrics["gadget_total_gbps"]

    print("\nFigure 8 — unsplittable-flow gadget on an upgradable link")
    print(f"  best single-path capacity: {single_path:.0f} Gbps "
          f"(parallel-link augmentation: 100)")
    print(f"  total capacity preserved:  {total:.0f} Gbps")

    benchmark.extra_info["single_path_gbps"] = single_path
    assert single_path == 200.0
    assert total == 200.0
