"""Vectorized LP assembly must reproduce the seed (loop-based) assembly.

``_SeedAssembly`` below is a frozen copy of the original per-(commodity,
link) Python-loop constraint builder.  The tests check the vectorized
builder both structurally (identical dense constraint matrices) and
behaviourally (objective values within 1e-6 on all four LP objectives),
plus the memoization contract: the two-phase Theorem-1 program assembles
conservation/capacity exactly once.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.net.demands import Demand, gravity_demands
from repro.net.topologies import abilene, figure7_topology, random_wan
from repro.net.topology import Topology
from repro.te.lp import MultiCommodityLp


def _coo(block):
    """A triplet block as the scipy COO matrix it stands for."""
    return sparse.coo_matrix((block.data, (block.row, block.col)), shape=block.shape)


class _SeedAssembly:
    """The original loop-based constraint assembly, kept as the oracle."""

    def __init__(self, lp: MultiCommodityLp):
        self.lp = lp

    def conservation(self):
        lp = self.lp
        rows, cols, vals = [], [], []
        row = 0
        for k, demand in enumerate(lp.demands):
            src_i = lp._node_index[demand.src]
            dst_i = lp._node_index[demand.dst]
            for e, _link in enumerate(lp.links):
                link = lp.links[e]
                rows.append(row + lp._node_index[link.src])
                cols.append(lp._x(k, e))
                vals.append(1.0)
                rows.append(row + lp._node_index[link.dst])
                cols.append(lp._x(k, e))
                vals.append(-1.0)
            rows.append(row + src_i)
            cols.append(lp._t(k))
            vals.append(-1.0)
            rows.append(row + dst_i)
            cols.append(lp._t(k))
            vals.append(1.0)
            row += len(lp.nodes)
        return sparse.coo_matrix((vals, (rows, cols)), shape=(row, lp.n_vars))

    def capacity(self):
        lp = self.lp
        rows, cols, vals = [], [], []
        for e in range(lp.n_links):
            for k in range(lp.n_demands):
                rows.append(e)
                cols.append(lp._x(k, e))
                vals.append(1.0)
        return sparse.coo_matrix(
            (vals, (rows, cols)), shape=(lp.n_links, lp.n_vars)
        )

    def penalty_vector(self):
        lp = self.lp
        c = np.zeros(lp.n_vars)
        for e, link in enumerate(lp.links):
            if link.penalty:
                for k in range(lp.n_demands):
                    c[lp._x(k, e)] = link.penalty
        return c


def _penalized_topology() -> Topology:
    topo = Topology()
    topo.add_link("A", "B", 100.0, link_id="free")
    topo.add_link("A", "B", 100.0, link_id="paid", penalty=10.0)
    topo.add_link("B", "C", 150.0, link_id="bc", penalty=2.5)
    topo.add_link("A", "C", 60.0, link_id="ac")
    return topo


def _instances():
    rng = np.random.default_rng(7)
    wan = random_wan(6, rng)
    return [
        (figure7_topology(), [Demand("A", "D", 300.0), Demand("C", "B", 120.0)]),
        (
            _penalized_topology(),
            [Demand("A", "C", 180.0), Demand("A", "B", 60.0)],
        ),
        (wan, gravity_demands(wan, 600.0, rng, sparsity=0.5)),
    ]


@pytest.mark.parametrize("topo,demands", _instances())
class TestMatricesMatchSeed:
    def test_conservation(self, topo, demands):
        lp = MultiCommodityLp(topo, demands)
        a_eq, b_eq = lp._conservation()
        a_eq = _coo(a_eq)
        seed = _SeedAssembly(lp).conservation()
        np.testing.assert_array_equal(a_eq.toarray(), seed.toarray())
        np.testing.assert_array_equal(b_eq, np.zeros(seed.shape[0]))

    def test_capacity(self, topo, demands):
        lp = MultiCommodityLp(topo, demands)
        a_ub, b_ub = lp._capacity()
        a_ub = _coo(a_ub)
        seed = _SeedAssembly(lp).capacity()
        np.testing.assert_array_equal(a_ub.toarray(), seed.toarray())
        np.testing.assert_array_equal(
            b_ub, np.array([l.capacity_gbps for l in lp.links])
        )

    def test_penalty_vector(self, topo, demands):
        lp = MultiCommodityLp(topo, demands)
        np.testing.assert_array_equal(
            lp._penalty_vector(), _SeedAssembly(lp).penalty_vector()
        )


@pytest.mark.parametrize("topo,demands", _instances())
class TestObjectivesMatchSeed:
    """All four objectives agree with the seed assembly to 1e-6.

    The oracle LP is a MultiCommodityLp whose constraint builders are
    replaced by the seed implementation, so both sides run through the
    same HiGHS solve and differ only in assembly.
    """

    def _seeded(self, topo, demands) -> MultiCommodityLp:
        lp = MultiCommodityLp(topo, demands)
        seed = _SeedAssembly(lp)
        lp._conservation = lambda: (
            seed.conservation(),
            np.zeros(lp.n_demands * len(lp.nodes)),
        )
        lp._capacity = lambda: (
            seed.capacity(),
            np.array([l.capacity_gbps for l in lp.links]),
        )
        lp._penalty_vector = seed.penalty_vector
        return lp

    def test_max_throughput(self, topo, demands):
        ours = MultiCommodityLp(topo, demands).max_throughput()
        seed = self._seeded(topo, demands).max_throughput()
        assert ours.objective_value == pytest.approx(
            seed.objective_value, abs=1e-6
        )

    def test_min_penalty_at_max_throughput(self, topo, demands):
        ours = MultiCommodityLp(topo, demands).min_penalty_at_max_throughput()
        seed = self._seeded(topo, demands).min_penalty_at_max_throughput()
        assert ours.objective_value == pytest.approx(
            seed.objective_value, abs=1e-6
        )
        assert ours.solution.total_allocated_gbps == pytest.approx(
            seed.solution.total_allocated_gbps, abs=1e-6
        )

    def test_min_max_utilization(self, topo, demands):
        scaled = [
            Demand(d.src, d.dst, 0.1 * d.volume_gbps) for d in demands
        ]  # keep every instance feasible at full service
        ours = MultiCommodityLp(topo, scaled).min_max_utilization()
        seed = self._seeded(topo, scaled).min_max_utilization()
        assert ours.objective_value == pytest.approx(
            seed.objective_value, abs=1e-6
        )

    def test_max_concurrent_flow(self, topo, demands):
        ours = MultiCommodityLp(topo, demands).max_concurrent_flow()
        seed = self._seeded(topo, demands).max_concurrent_flow()
        assert ours.objective_value == pytest.approx(
            seed.objective_value, abs=1e-6
        )


class TestMemoization:
    def test_blocks_assembled_once(self):
        lp = MultiCommodityLp(
            figure7_topology(), [Demand("A", "D", 300.0)]
        )
        a1, b1 = lp._conservation()
        a2, b2 = lp._conservation()
        assert a1 is a2 and b1 is b2
        c1, _ = lp._capacity()
        c2, _ = lp._capacity()
        assert c1 is c2

    def test_two_phase_assembles_once(self):
        from repro.obs import metrics

        with metrics.isolated() as reg:
            lp = MultiCommodityLp(
                _penalized_topology(), [Demand("A", "C", 180.0)]
            )
            lp.min_penalty_at_max_throughput()
        assert reg.get_summary("lp.assemble.conservation").count == 1
        assert reg.get_summary("lp.assemble.capacity").count == 1
        # ... and both phases actually solved
        assert reg.get_summary("lp.solve").count == 2

    def test_penalty_vector_returns_fresh_copy(self):
        lp = MultiCommodityLp(
            _penalized_topology(), [Demand("A", "C", 10.0)]
        )
        c = lp._penalty_vector()
        c[:] = -123.0
        assert not np.array_equal(lp._penalty_vector(), c)


class TestAbileneRegression:
    """A mid-size instance: results must stay consistent end-to-end."""

    def test_throughput_and_fairness_consistent(self):
        topo = abilene()
        demands = gravity_demands(topo, 5000.0, np.random.default_rng(0))
        lp = MultiCommodityLp(topo, demands)
        through = lp.max_throughput()
        fair = lp.max_concurrent_flow()
        assert through.solution.is_valid()
        assert fair.solution.is_valid()
        assert fair.solution.total_allocated_gbps <= through.objective_value + 1e-6
