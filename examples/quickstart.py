#!/usr/bin/env python
"""Quickstart: the paper's Figure-7 example, end to end.

Builds the four-node square, marks the upgradable wavelengths, augments
the topology (Algorithm 1), runs an unmodified min-cost max-throughput
TE on the augmented graph, and translates the result back into capacity
upgrades — showing that one upgrade serves both grown demands.

Run:  python examples/quickstart.py
"""

from repro.core.augmentation import augment_topology
from repro.core.penalties import ConstantPenalty
from repro.core.translation import translate
from repro.net.demands import Demand
from repro.net.topologies import figure7_topology
from repro.optics.modulation import DEFAULT_MODULATIONS
from repro.te.lp import MultiCommodityLp


def main() -> None:
    # 1. the physical network: a square of 100 Gbps wavelengths
    topology = figure7_topology()
    print(f"physical topology: {topology}")

    # 2. telemetry says the A-B and C-D wavelengths have SNR headroom
    for src, dst in (("A", "B"), ("B", "A"), ("C", "D"), ("D", "C")):
        link = topology.links_between(src, dst)[0]
        topology.replace_link(link.link_id, headroom_gbps=100.0)

    # 3. Algorithm 1: add fake links priced at the upgrade penalty
    augmented = augment_topology(
        topology, penalty_policy=ConstantPenalty(100.0)
    )
    print(f"augmented topology adds {augmented.n_fake_links} fake links")

    # 4. both demands grew from 100 to 125 Gbps (Section 4.1's example)
    demands = [Demand("A", "B", 125.0), Demand("C", "D", 125.0)]

    # 5. run an UNMODIFIED TE objective on the augmented graph
    outcome = MultiCommodityLp(
        augmented.topology, demands
    ).min_penalty_at_max_throughput()
    print(
        f"TE allocated {outcome.solution.total_allocated_gbps:.0f} Gbps "
        f"(penalty cost {outcome.solution.penalty_cost:.0f})"
    )

    # 6. translate the fake-link flows into capacity-change decisions
    result = translate(augmented, outcome.solution, table=DEFAULT_MODULATIONS)
    print(f"upgrades required: {len(result.upgrades)}")
    for upgrade in result.upgrades:
        print(
            f"  {upgrade.link_id}: {upgrade.old_capacity_gbps:.0f} -> "
            f"{upgrade.new_capacity_gbps:.0f} Gbps "
            f"(disrupting {upgrade.disrupted_traffic_gbps:.0f} Gbps of traffic)"
        )
    assert result.solution.is_valid(), "translated flows must satisfy physics"
    print("translated solution audits clean: capacity + conservation hold")


if __name__ == "__main__":
    main()
