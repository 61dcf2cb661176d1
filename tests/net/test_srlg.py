"""Tests for shared-risk link groups."""

import pytest

from repro.net.srlg import SrlgMap, degrade_cable, duplex_srlgs, fail_cable
from repro.net.topologies import abilene, figure7_topology


class TestSrlgMap:
    def test_add_and_query(self):
        srlgs = SrlgMap()
        srlgs.add("cable1", ["a", "b"])
        srlgs.add("cable1", ["c"])
        assert srlgs.links_of("cable1") == {"a", "b", "c"}
        assert len(srlgs) == 1

    def test_unknown_cable(self):
        with pytest.raises(KeyError):
            SrlgMap().links_of("nope")

    def test_iteration_sorted(self):
        srlgs = SrlgMap()
        srlgs.add("b", ["1"])
        srlgs.add("a", ["2"])
        assert list(srlgs) == ["a", "b"]

    def test_validate_against(self):
        topo = figure7_topology()
        srlgs = SrlgMap()
        srlgs.add("ghost", ["not-a-link"])
        assert srlgs.validate_against(topo) == ["not-a-link"]


class TestDuplexSrlgs:
    def test_one_group_per_node_pair(self):
        topo = figure7_topology()
        srlgs = duplex_srlgs(topo)
        assert len(srlgs) == 4  # the square's duplex pairs
        for cable in srlgs:
            assert len(srlgs.links_of(cable)) == 2  # both directions

    def test_no_missing_links(self):
        topo = abilene()
        srlgs = duplex_srlgs(topo)
        assert srlgs.validate_against(topo) == []
        covered = set().union(*(srlgs.links_of(c) for c in srlgs))
        assert covered == {l.link_id for l in topo.real_links()}


class TestFailAndDegrade:
    def test_fail_removes_both_directions(self):
        topo = figure7_topology()
        srlgs = duplex_srlgs(topo)
        cable = "fiber:A--B"
        failed = fail_cable(topo, srlgs, cable)
        assert failed.links_between("A", "B") == []
        assert failed.links_between("B", "A") == []
        assert topo.links_between("A", "B")  # original untouched

    def test_fail_is_idempotent_for_missing_links(self):
        topo = figure7_topology()
        srlgs = duplex_srlgs(topo)
        once = fail_cable(topo, srlgs, "fiber:A--B")
        twice = fail_cable(once, srlgs, "fiber:A--B")
        assert twice.n_links == once.n_links

    def test_degrade_lowers_capacity(self):
        topo = figure7_topology()
        srlgs = duplex_srlgs(topo)
        degraded = degrade_cable(topo, srlgs, "fiber:A--B", capacity_gbps=50.0)
        for link in degraded.links_between("A", "B"):
            assert link.capacity_gbps == 50.0
        # other cables untouched
        assert degraded.links_between("C", "D")[0].capacity_gbps == 100.0

    def test_degrade_never_raises_capacity(self):
        topo = figure7_topology(capacity_gbps=40.0)
        srlgs = duplex_srlgs(topo)
        degraded = degrade_cable(topo, srlgs, "fiber:A--B", capacity_gbps=50.0)
        assert degraded.links_between("A", "B")[0].capacity_gbps == 40.0

    def test_degrade_rejects_zero(self):
        topo = figure7_topology()
        srlgs = duplex_srlgs(topo)
        with pytest.raises(ValueError):
            degrade_cable(topo, srlgs, "fiber:A--B", capacity_gbps=0.0)
