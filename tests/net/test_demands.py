"""Tests for demand generation."""

import numpy as np
import pytest

from repro.net.demands import (
    Demand,
    demands_by_priority,
    gravity_demands,
    scale_demands,
)
from repro.net.topologies import abilene, line_topology


class TestDemand:
    def test_rejects_same_endpoints(self):
        with pytest.raises(ValueError):
            Demand("A", "A", 10.0)

    def test_rejects_negative_volume(self):
        with pytest.raises(ValueError):
            Demand("A", "B", -1.0)

    def test_rejects_negative_priority(self):
        with pytest.raises(ValueError):
            Demand("A", "B", 1.0, priority=-1)

    def test_pair(self):
        assert Demand("A", "B", 1.0).pair == ("A", "B")


class TestGravity:
    def test_total_is_exact(self):
        topo = abilene()
        demands = gravity_demands(topo, 1000.0, np.random.default_rng(0))
        assert sum(d.volume_gbps for d in demands) == pytest.approx(1000.0)

    def test_covers_all_pairs_when_dense(self):
        topo = line_topology(5)
        demands = gravity_demands(topo, 100.0, np.random.default_rng(0))
        assert len(demands) == 5 * 4

    def test_sparsity_drops_pairs(self):
        topo = abilene()
        dense = gravity_demands(topo, 100.0, np.random.default_rng(1))
        sparse = gravity_demands(
            topo, 100.0, np.random.default_rng(1), sparsity=0.5
        )
        assert len(sparse) < len(dense)
        assert sum(d.volume_gbps for d in sparse) == pytest.approx(100.0)

    def test_deterministic(self):
        topo = abilene()
        a = gravity_demands(topo, 100.0, np.random.default_rng(3))
        b = gravity_demands(topo, 100.0, np.random.default_rng(3))
        assert a == b

    def test_heavy_pairs_exist(self):
        # gravity model: volume should be skewed, not uniform
        topo = abilene()
        demands = gravity_demands(topo, 100.0, np.random.default_rng(5))
        volumes = sorted(d.volume_gbps for d in demands)
        assert volumes[-1] > 4 * volumes[0]

    def test_rejects_bad_inputs(self):
        topo = abilene()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            gravity_demands(topo, 0.0, rng)
        with pytest.raises(ValueError):
            gravity_demands(topo, 10.0, rng, sparsity=1.0)

    def test_rejects_single_node(self):
        from repro.net.topology import Topology

        topo = Topology()
        topo.add_node("A")
        with pytest.raises(ValueError, match="two nodes"):
            gravity_demands(topo, 10.0, np.random.default_rng(0))


class TestScaleAndGroup:
    def test_scale(self):
        demands = [Demand("A", "B", 10.0), Demand("B", "C", 20.0)]
        scaled = scale_demands(demands, 1.5)
        assert [d.volume_gbps for d in scaled] == [15.0, 30.0]

    def test_scale_rejects_negative(self):
        with pytest.raises(ValueError):
            scale_demands([Demand("A", "B", 1.0)], -1.0)

    def test_group_by_priority_sorted(self):
        demands = [
            Demand("A", "B", 1.0, priority=2),
            Demand("B", "C", 1.0, priority=0),
            Demand("C", "D", 1.0, priority=2),
        ]
        groups = demands_by_priority(demands)
        assert list(groups) == [0, 2]
        assert len(groups[2]) == 2
