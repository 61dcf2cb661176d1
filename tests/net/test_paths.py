"""Tests for k-shortest-path computation over multigraphs."""

import pytest

from repro.net.paths import LinkPath, k_shortest_paths, path_capacity
from repro.net.topologies import abilene, figure7_topology, line_topology
from repro.net.topology import Topology


class TestLinkPath:
    def test_endpoints_and_nodes(self):
        topo = line_topology(3)
        (path,) = k_shortest_paths(topo, "n0", "n2", 1)
        assert path.src == "n0"
        assert path.dst == "n2"
        assert path.nodes == ("n0", "n1", "n2")
        assert len(path) == 2

    def test_rejects_disjoint_links(self):
        topo = Topology()
        a = topo.add_link("A", "B", 100.0)
        c = topo.add_link("C", "D", 100.0)
        with pytest.raises(ValueError, match="do not join"):
            LinkPath((a, c))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LinkPath(())

    def test_weight_and_penalty_sum(self):
        topo = Topology()
        a = topo.add_link("A", "B", 100.0, weight=2.0, penalty=1.0)
        b = topo.add_link("B", "C", 100.0, weight=3.0, penalty=4.0)
        path = LinkPath((a, b))
        assert path.weight == 5.0
        assert path.penalty == 5.0

    def test_capacity_is_bottleneck(self):
        topo = Topology()
        a = topo.add_link("A", "B", 100.0)
        b = topo.add_link("B", "C", 40.0)
        assert path_capacity(LinkPath((a, b))) == 40.0


class TestKShortest:
    def test_direct_path_first(self):
        topo = figure7_topology()
        paths = k_shortest_paths(topo, "A", "B", 3)
        assert paths[0].nodes == ("A", "B")
        # the square has exactly two simple A->B paths
        assert len(paths) == 2
        # paths are sorted by weight
        weights = [p.weight for p in paths]
        assert weights == sorted(weights)

    def test_unreachable_returns_empty(self):
        topo = Topology()
        topo.add_link("A", "B", 100.0)
        topo.add_node("Z")
        assert k_shortest_paths(topo, "A", "Z", 2) == []

    def test_parallel_links_are_distinct_paths(self):
        topo = Topology()
        topo.add_link("A", "B", 100.0, link_id="real")
        topo.add_link("A", "B", 100.0, link_id="fake", is_fake=True,
                      shadow_of="real")
        paths = k_shortest_paths(topo, "A", "B", 5)
        assert len(paths) == 2
        assert {p.links[0].link_id for p in paths} == {"real", "fake"}

    def test_penalty_metric_prefers_cheap_links(self):
        topo = Topology()
        topo.add_link("A", "B", 100.0, link_id="pricey", penalty=100.0)
        topo.add_link("A", "B", 100.0, link_id="free", penalty=0.0)
        best = k_shortest_paths(topo, "A", "B", 1, by="penalty")[0]
        assert best.links[0].link_id == "free"

    def test_k_larger_than_path_count(self):
        topo = line_topology(3)
        assert len(k_shortest_paths(topo, "n0", "n2", 10)) == 1

    def test_bad_args(self):
        topo = line_topology(3)
        with pytest.raises(ValueError):
            k_shortest_paths(topo, "n0", "n2", 0)
        with pytest.raises(ValueError):
            k_shortest_paths(topo, "n0", "n2", 2, by="hops")
        with pytest.raises(KeyError):
            k_shortest_paths(topo, "n0", "zz", 2)
        with pytest.raises(ValueError):
            k_shortest_paths(topo, "n0", "n0", 2)

    def test_abilene_cross_country(self):
        topo = abilene()
        paths = k_shortest_paths(topo, "Seattle", "NewYork", 4)
        assert len(paths) == 4
        assert all(p.src == "Seattle" and p.dst == "NewYork" for p in paths)
        # all simple (no repeated nodes)
        for p in paths:
            assert len(set(p.nodes)) == len(p.nodes)
