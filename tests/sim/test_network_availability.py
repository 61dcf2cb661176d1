"""Tests for network-level cable-event impact analysis."""

import numpy as np
import pytest

from repro.net.demands import Demand, gravity_demands
from repro.net.srlg import SrlgMap, duplex_srlgs
from repro.net.topologies import abilene, figure7_topology, line_topology
from repro.obs import metrics
from repro.sim import whatif
from repro.sim.network_availability import cable_event_impacts


class TestCableImpacts:
    def test_flap_beats_failure(self):
        """Dynamic capacity never loses more traffic than binary failure."""
        topo = abilene()
        demands = gravity_demands(topo, 2500.0, np.random.default_rng(0))
        report = cable_event_impacts(topo, demands, duplex_srlgs(topo))
        for impact in report.impacts:
            assert impact.dynamic_gbps >= impact.binary_gbps - 1e-3
            assert impact.traffic_rescued_gbps >= -1e-3

    def test_cut_on_chain_is_catastrophic_binary_survivable_dynamic(self):
        topo = line_topology(3)
        demands = [Demand("n0", "n2", 100.0)]
        srlgs = duplex_srlgs(topo)
        report = cable_event_impacts(
            topo, demands, srlgs, cables=["fiber:n0--n1"]
        )
        impact = report.impacts[0]
        assert impact.baseline_gbps == pytest.approx(100.0)
        assert impact.binary_gbps == 0.0  # chain severed
        assert impact.dynamic_gbps == pytest.approx(50.0)  # flap to 50G
        assert impact.traffic_rescued_gbps == pytest.approx(50.0)

    def test_redundant_square_survives_binary(self):
        topo = figure7_topology()
        demands = [Demand("A", "D", 80.0)]
        report = cable_event_impacts(
            topo, demands, duplex_srlgs(topo), cables=["fiber:A--B"]
        )
        # A-D still reachable via A-C-D at full demand
        assert report.impacts[0].binary_loss_gbps == pytest.approx(0.0, abs=0.1)

    def test_aggregates(self):
        topo = figure7_topology()
        demands = [Demand("A", "D", 150.0)]
        report = cable_event_impacts(topo, demands, duplex_srlgs(topo))
        assert len(report.impacts) == 4
        assert report.worst_binary_loss.binary_loss_gbps >= 0.0
        assert 0 <= report.cables_fully_survivable <= 4
        assert report.mean_rescued_gbps >= 0.0

    def test_custom_fallback_capacity(self):
        topo = line_topology(3)
        demands = [Demand("n0", "n2", 100.0)]
        report = cable_event_impacts(
            topo,
            demands,
            duplex_srlgs(topo),
            cables=["fiber:n0--n1"],
            fallback_capacity_gbps=25.0,
        )
        assert report.impacts[0].dynamic_gbps == pytest.approx(25.0)

    def test_bad_srlg_map_rejected(self):
        topo = figure7_topology()
        srlgs = SrlgMap()
        srlgs.add("ghost", ["not-a-link"])
        with pytest.raises(ValueError, match="unknown links"):
            cable_event_impacts(topo, [Demand("A", "B", 1.0)], srlgs)

    def test_unknown_cable_rejected_before_solving(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before validating the input")

        monkeypatch.setattr(whatif, "solve_throughput", no_solve)
        topo = figure7_topology()
        with pytest.raises(KeyError, match="nope"):
            cable_event_impacts(
                topo, [Demand("A", "D", 150.0)], duplex_srlgs(topo),
                cables=["fiber:A--B", "nope"],
            )


@pytest.mark.parametrize("te_cache", [None, False], ids=["cache", "no-cache"])
def test_lossless_drill_scenarios_read_as_the_baseline(te_cache):
    # solved, Seattle--Sunnyvale and Atlanta--Indianapolis darkened land
    # one ulp above the baseline (a loss of -2.3e-13 Gbps) and
    # Denver--Seattle one ulp below it; all are within the loss floor,
    # so none loses.  The certificates settle Seattle--Sunnyvale and
    # Denver--Seattle unsolved, so Atlanta--Indianapolis (solved
    # darkened and flapped) is the one that needs the floor
    topo = abilene()
    demands = gravity_demands(topo, 1500.0, np.random.default_rng(0))
    report = cable_event_impacts(
        topo, demands, duplex_srlgs(topo),
        fallback_capacity_gbps=10.0, te_cache=te_cache,
    )
    for impact in report.impacts:
        assert impact.binary_loss_gbps >= 0.0, impact
        assert impact.dynamic_loss_gbps >= 0.0, impact
    impacts = {i.cable: i for i in report.impacts}
    for cable in (
        "fiber:Seattle--Sunnyvale",
        "fiber:Denver--Seattle",
        "fiber:Atlanta--Indianapolis",
    ):
        assert impacts[cable].binary_gbps == impacts[cable].baseline_gbps


def test_golden_drill_certifies_before_it_solves():
    # the network_availability golden's inputs; with the TE cache off
    # and one worker every LP solve is one HiGHS run
    topo = figure7_topology()
    srlgs = duplex_srlgs(topo)
    demands = [Demand("A", "D", 150.0), Demand("B", "C", 80.0)]
    with metrics.isolated() as reg:
        cable_event_impacts(topo, demands, srlgs, workers=1, te_cache=False)
    certified = reg.counter_value("sim.whatif.certified")
    solved = reg.counter_value("sim.whatif.solved")
    assert certified + solved == 1 + 2 * len(srlgs.cables())
    assert certified >= 1
    assert reg.get_summary("lp.solve").count == solved
