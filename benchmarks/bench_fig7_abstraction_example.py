"""Figures 7/8: the graph-abstraction worked examples.

Paper (Section 4.1): with both demands grown to 125 Gbps and upgrade
penalty 100, "the penalty-minimizing solution ... will route the
additional traffic such that the capacity of only one link is
increased".  Figure 8's gadget additionally admits a single
unsplittable path at the upgraded rate.
"""

from repro.analysis import figures
from repro.core.gadgets import apply_unsplittable_gadget
from repro.core.penalties import ConstantPenalty
from repro.net.paths import k_shortest_paths, path_capacity
from repro.net.topology import Topology
from repro.te.maxflow import max_flow


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
    def build():
        topo = Topology("fig8")
        topo.add_link("A", "B", 100.0, headroom_gbps=100.0, link_id="ab")
        return apply_unsplittable_gadget(
            topo, penalty_policy=ConstantPenalty(100.0)
        )

    gadget = benchmark.pedantic(build, rounds=1, iterations=1)
    paths = k_shortest_paths(gadget.topology, "A", "B", 3)
    single_path = max(path_capacity(p) for p in paths)
    total = max_flow(gadget.topology, "A", "B").value_gbps

    print("\nFigure 8 — unsplittable-flow gadget on an upgradable link")
    print(f"  best single-path capacity: {single_path:.0f} Gbps "
          f"(parallel-link augmentation: 100)")
    print(f"  total capacity preserved:  {total:.0f} Gbps")

    benchmark.extra_info["single_path_gbps"] = single_path
    assert single_path == 200.0
    assert total == 200.0
