"""Tests for the canonical topology builders."""

import networkx as nx
import numpy as np
import pytest

from repro.net.topologies import (
    abilene,
    figure7_topology,
    line_topology,
    random_wan,
    us_backbone_like,
)


def is_strongly_connected(topo):
    g = nx.DiGraph()
    for link in topo.links:
        g.add_edge(link.src, link.dst)
    return nx.is_strongly_connected(g)


class TestBuilders:
    @pytest.mark.parametrize(
        "builder", [abilene, us_backbone_like, figure7_topology]
    )
    def test_strongly_connected(self, builder):
        assert is_strongly_connected(builder())

    def test_figure7_shape(self):
        topo = figure7_topology()
        assert topo.nodes == ("A", "B", "C", "D")
        assert topo.n_links == 8  # 4 duplex pairs (a square)
        assert all(l.capacity_gbps == 100.0 for l in topo.links)

    def test_abilene_node_count(self):
        assert abilene().n_nodes == 11

    def test_us_backbone_node_count(self):
        assert us_backbone_like().n_nodes == 21

    def test_custom_capacity(self):
        topo = abilene(capacity_gbps=40.0)
        assert all(l.capacity_gbps == 40.0 for l in topo.links)

    def test_line_topology(self):
        topo = line_topology(3)
        assert topo.n_nodes == 3
        assert topo.n_links == 4

    def test_line_rejects_single_node(self):
        with pytest.raises(ValueError):
            line_topology(1)


class TestRandomWan:
    def test_connected(self):
        topo = random_wan(15, np.random.default_rng(0))
        assert is_strongly_connected(topo)

    def test_mean_degree_respected(self):
        topo = random_wan(30, np.random.default_rng(1), mean_degree=4.0)
        # duplex pairs = links / 2; degree = 2 * pairs / nodes
        degree = topo.n_links / topo.n_nodes
        assert degree == pytest.approx(4.0, abs=0.7)

    def test_deterministic(self):
        a = random_wan(10, np.random.default_rng(5))
        b = random_wan(10, np.random.default_rng(5))
        assert {(l.src, l.dst) for l in a.links} == {
            (l.src, l.dst) for l in b.links
        }

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            random_wan(2, np.random.default_rng(0))

    def test_rejects_low_degree(self):
        with pytest.raises(ValueError):
            random_wan(5, np.random.default_rng(0), mean_degree=1.0)
