"""Cross-module scenario tests: chains several subsystems end to end.

Each scenario is the kind of workflow a downstream user would script;
the assertions check the *joints* between modules, which unit tests by
construction cannot.
"""

import numpy as np
import pytest

from repro.core.augmentation import augment_topology
from repro.core.penalties import ConstantPenalty, TrafficDisruptionPenalty
from repro.core.translation import translate
from repro.net.demands import gravity_demands
from repro.net.srlg import duplex_srlgs
from repro.net.topologies import abilene
from repro.optics.modulation import DEFAULT_MODULATIONS
from repro.sim.whatif import replay_tickets
from repro.te.lp import MultiCommodityLp
from repro.telemetry.dataset import BackboneConfig, BackboneDataset
from repro.tickets.generator import TicketConfig, TicketGenerator


@pytest.fixture(scope="module")
def plant():
    """Abilene, one SNR per cable, headroom read off the modulation ladder."""
    topology = abilene()
    srlgs = duplex_srlgs(topology)
    rng = np.random.default_rng(3)
    for cable in srlgs.cables():
        snr_db = float(rng.uniform(8.0, 16.0))
        for link_id in sorted(srlgs.links_of(cable)):
            capacity = topology.link(link_id).capacity_gbps
            headroom = DEFAULT_MODULATIONS.headroom_above(capacity, snr_db)
            if headroom > 0:
                topology.replace_link(link_id, headroom_gbps=headroom)
    return topology, srlgs


class TestPlanToHardwarePipeline:
    """plant -> augment -> TE -> translate."""

    def test_upgrade_campaign(self, plant):
        topology, _ = plant
        demands = gravity_demands(
            topology, 6000.0, np.random.default_rng(0)
        )
        augmented = augment_topology(
            topology, penalty_policy=TrafficDisruptionPenalty()
        )
        outcome = MultiCommodityLp(
            augmented.topology, demands
        ).min_penalty_at_max_throughput()
        translation = translate(
            augmented, outcome.solution, table=DEFAULT_MODULATIONS
        )
        assert translation.upgrades, "heavy demand must trigger upgrades"
        # one upgrade per link, each onto a rung its headroom allows
        upgraded = [u.link_id for u in translation.upgrades]
        assert len(set(upgraded)) == len(upgraded)
        for upgrade in translation.upgrades:
            link = topology.link(upgrade.link_id)
            assert upgrade.new_capacity_gbps in DEFAULT_MODULATIONS.capacities_gbps
            assert (
                upgrade.new_capacity_gbps
                <= link.capacity_gbps + link.headroom_gbps + 1e-9
            )


class TestTelemetryToTicketsToWhatIf:
    """generated tickets -> what-if replay on a ring."""

    def test_derived_tickets_replay_cleanly(self):
        n_cables = 4
        tickets = TicketGenerator(
            TicketConfig(n_events=20, months=1.0, n_elements=n_cables)
        ).generate(np.random.default_rng(21))

        # map the ticketed cables onto a ring topology of matching size
        from repro.net.topology import Topology

        topo = Topology("ring")
        nodes = [f"s{i}" for i in range(n_cables)]
        for i in range(n_cables):
            topo.add_duplex_link(nodes[i], nodes[(i + 1) % len(nodes)], 100.0)
        srlgs = duplex_srlgs(topo)
        # rename ticket elements onto the ring's cables round-robin
        ring_cables = srlgs.cables()
        from dataclasses import replace

        mapped = [
            replace(t, element=ring_cables[i % len(ring_cables)])
            for i, t in enumerate(tickets)
        ]
        demands = gravity_demands(topo, 500.0, np.random.default_rng(1))
        report = replay_tickets(topo, demands, mapped, srlgs)
        assert report.n_tickets == len(tickets)
        # a ring survives any single cable loss (rerouting the long way),
        # so dynamic never loses more than binary
        for verdict in report.verdicts:
            assert verdict.rescued_gbps >= -1e-6


class TestTheoremOnPlantDerivedHeadroom:
    """Theorem 1 on SNR-derived (not hand-set) headroom."""

    def test_equivalence(self, plant):
        from repro.core.theorem import check_theorem1

        topology, _ = plant
        report = check_theorem1(
            topology,
            "Seattle",
            "NewYork",
            penalty_policy=ConstantPenalty(50.0),
        )
        assert report.holds
        assert report.upgrade_gain_gbps >= 0.0


class TestPersistenceRoundTripThroughAnalysis:
    """save -> load -> figures give identical statistics."""

    def test_figures_identical_after_reload(self, tmp_path):
        from repro.analysis import figures
        from repro.telemetry.io import load_summaries, save_summaries

        dataset = BackboneDataset(
            BackboneConfig(n_cables=3, years=0.5, seed=8)
        )
        summaries = dataset.summaries()
        path = save_summaries(tmp_path / "s.json", summaries)
        reloaded = load_summaries(path)

        a = figures.fig2a_snr_variation(summaries)
        b = figures.fig2a_snr_variation(reloaded)
        assert a.frac_hdr_below_2db == b.frac_hdr_below_2db
        assert a.mean_range_db == b.mean_range_db
