"""The direct HiGHS seam must return exactly what ``linprog`` returned.

``repro.te.lp`` hands its models straight to HiGHS.  The oracle here is
``scipy.optimize.linprog(method="highs")`` called with the same
matrices, right-hand sides and bounds the LP layer used to pass it, so
every objective's solver vector is compared bit for bit — on generated
topologies (dark links, penalties, unreachable demands included), after
a structure-hit rebind, and for the path formulation.  The post-solve
checks are tested on their own, on doctored vectors and an infeasible
LP.
"""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

from repro.net.demands import Demand
from repro.net.topology import Topology
from repro.state import NetworkState
from repro.te.incremental import SOLVE_METHODS, TeSolveCache
from repro.te.lp import (
    FEASIBILITY_TOL,
    HighsModel,
    MultiCommodityLp,
    solution_violation,
    solve_highs,
)
from repro.te.pathlp import PathBasedLp


def _linprog(c, a_ub, b_ub, a_eq, b_eq, bounds):
    result = linprog(
        c,
        A_ub=a_ub.tocsr(),
        b_ub=b_ub,
        A_eq=None if a_eq is None else a_eq.tocsr(),
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )
    assert result.success, result.message
    return result.x


def _bounds(lp, *, cap_throughput=True):
    bounds = [(0.0, None)] * lp.n_flow_vars
    for d in lp.demands:
        bounds.append((0.0, d.volume_gbps if cap_throughput else None))
    return bounds


def _widen(block, n):
    return sparse.coo_matrix((block.data, (block.row, block.col)), shape=(block.shape[0], n))


def _reference_x(lp: MultiCommodityLp, method: str) -> np.ndarray:
    """The solver vector of ``method`` solved through ``linprog``."""
    cap, cap_b = lp._capacity()
    cons, cons_b = lp._conservation()
    flows = slice(0, lp.n_flow_vars)
    k = np.arange(lp.n_demands)
    volumes = [d.volume_gbps for d in lp.demands]
    if method in ("max_throughput", "min_penalty_at_max_throughput"):
        c = lp._penalty_vector() * 0.0
        c[flows] += 1e-9
        c[lp.n_flow_vars :] = -1.0
        x = _linprog(c, cap, cap_b, cons, cons_b, _bounds(lp))
        if method == "max_throughput":
            return x
        t_star = lp._extract(x).total_allocated_gbps
        extra = sparse.coo_matrix(
            (-np.ones(lp.n_demands), (np.zeros_like(k), lp.n_flow_vars + k)),
            shape=(1, lp.n_vars),
        )
        slack = max(1e-7 * max(t_star, 1.0), 1e-9)
        c = lp._penalty_vector()
        c[flows] += 1e-9
        return _linprog(
            c,
            sparse.vstack([cap.tocsr(), extra]),
            np.concatenate([cap_b, [-(t_star - slack)]]),
            cons,
            cons_b,
            _bounds(lp),
        )
    n, last = lp.n_vars + 1, lp.n_vars
    c = np.zeros(n)
    c[flows] += 1e-9
    if method == "min_max_utilization":
        pin = sparse.coo_matrix(
            (np.ones(lp.n_demands), (k, lp.n_flow_vars + k)), shape=(lp.n_demands, n)
        )
        mu_col = sparse.coo_matrix(
            (-cap_b, (list(range(lp.n_links)), [last] * lp.n_links)),
            shape=(lp.n_links, n),
        )
        c[last] = 1.0
        return _linprog(
            c,
            (_widen(cap, n) + mu_col).tocoo(),
            np.zeros(lp.n_links),
            sparse.vstack([_widen(cons, n), pin]),
            np.concatenate([np.zeros(cons.shape[0]), volumes]),
            _bounds(lp, cap_throughput=False) + [(0.0, None)],
        )
    assert method == "max_concurrent_flow"
    tie = sparse.coo_matrix(
        (
            np.concatenate([np.ones(lp.n_demands), -np.asarray(volumes)]),
            (np.concatenate([k, k]), np.concatenate([lp.n_flow_vars + k, [last] * lp.n_demands])),
        ),
        shape=(lp.n_demands, n),
    )
    a_eq = sparse.vstack([_widen(cons, n), tie])
    c[last] = -1.0
    return _linprog(
        c,
        _widen(cap, n),
        cap_b,
        a_eq,
        np.zeros(a_eq.shape[0]),
        _bounds(lp, cap_throughput=False) + [(0.0, 1.0)],
    )


_NODES = ["A", "B", "C", "D", "E"]


@st.composite
def instances(draw):
    """A small topology (some links dark) with demands between its nodes."""
    n_nodes = draw(st.integers(3, 5))
    nodes = _NODES[:n_nodes]
    pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)).filter(
        lambda p: p[0] != p[1]
    )
    topo = Topology()
    for node in nodes:
        topo.add_node(node)
    for i, (src, dst) in enumerate(draw(st.lists(pairs, min_size=2, max_size=8))):
        topo.add_link(
            src,
            dst,
            draw(st.sampled_from([50.0, 100.0, 150.0, 175.0, 200.0])),
            penalty=draw(st.sampled_from([0.0, 0.0, 1.0, 2.5, 10.0])),
            link_id=f"l{i}",
        )
    dark = draw(st.lists(st.sampled_from([l.link_id for l in topo.links]), max_size=2))
    state = NetworkState.snapshot(topo, label="base").darken(dark, label="dark")
    demands = [
        Demand(src, dst, draw(st.sampled_from([10.0, 60.0, 120.0, 300.0])))
        for src, dst in draw(st.lists(pairs, min_size=1, max_size=3))
    ]
    return state.to_topology(), demands


def _solve_or_none(fn):
    """The result, or None where the objective is infeasible (MLU on an
    unreachable demand must raise on both paths alike)."""
    try:
        return fn()
    except (RuntimeError, AssertionError):
        return None


_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)


@pytest.mark.parametrize("method", SOLVE_METHODS)
@_SETTINGS
@given(instance=instances())
def test_seam_matches_linprog(method, instance):
    topo, demands = instance
    ours = _solve_or_none(lambda: getattr(MultiCommodityLp(topo, demands), method)().x)
    ref = _solve_or_none(lambda: _reference_x(MultiCommodityLp(topo, demands), method))
    if ref is None:
        assert ours is None
    else:
        assert np.array_equal(ours, ref)


@pytest.mark.parametrize("method", SOLVE_METHODS)
@_SETTINGS
@given(instance=instances(), factors=st.lists(st.sampled_from([0.25, 0.5, 2.0]), min_size=1))
def test_rebind_solve_matches_fresh_assembly(method, instance, factors):
    """A structure hit (capacities rewritten in place) solves exactly
    like an LP assembled from scratch for the same topology."""
    topo, demands = instance
    scaled = topo.copy()
    for link, factor in zip(scaled.links, factors * len(scaled.links)):
        scaled.replace_link(link.link_id, capacity_gbps=link.capacity_gbps * factor)
    cache = TeSolveCache()
    if _solve_or_none(lambda: cache.solve(topo, demands, method)) is None:
        return
    hit = _solve_or_none(lambda: cache.solve(scaled, demands, method).x)
    fresh = _solve_or_none(lambda: getattr(MultiCommodityLp(scaled, demands), method)().x)
    assert cache.n_structures == 1
    assert (hit is None) == (fresh is None)
    if fresh is not None:
        assert np.array_equal(hit, fresh)


@_SETTINGS
@given(instance=instances())
def test_path_lp_matches_linprog(instance):
    """Both phases of the path formulation, phase 2 with its floor row."""
    topo, demands = instance
    lp = PathBasedLp(topo, demands, k_paths=3)
    if lp.n_vars == 0:
        return
    cap_a, cap_b = lp._capacity_rows()
    dem_a, dem_b = lp._demand_rows()
    bounds = [(0.0, None)] * lp.n_vars
    c = -np.ones(lp.n_vars)
    ref = _linprog(
        c, sparse.vstack([cap_a, dem_a]), np.concatenate([cap_b, dem_b]), None, None, bounds
    )
    assert np.array_equal(lp._solve(c), ref)

    floor = sparse.coo_matrix(-np.ones((1, lp.n_vars)))
    t_star = lp._extract(ref).objective_value
    floor_b = np.array([-(t_star - max(1e-7 * max(t_star, 1.0), 1e-9))])
    c = np.array([path.penalty + 1e-9 * len(path) for paths in lp.paths for path in paths])
    ref = _linprog(
        c,
        sparse.vstack([cap_a, dem_a, floor]),
        np.concatenate([cap_b, dem_b, floor_b]),
        None,
        None,
        bounds,
    )
    assert np.array_equal(lp._solve(c, (floor, floor_b)), ref)
    ours = lp.min_penalty_at_max_throughput().solution.assignments
    assert ours == lp._extract(ref).solution.assignments


class TestSolutionViolation:
    """The post-solve checks, on one solved LP and doctored copies."""

    @pytest.fixture
    def solved(self):
        # max x0 + x1  s.t.  x0 + x1 <= 4,  x0 - x1 == 0,  x <= 3
        model = HighsModel(
            sparse.coo_matrix([[1.0, 1.0]]),
            sparse.coo_matrix([[1.0, -1.0]]),
            np.zeros(1),
            np.array([3.0, 3.0]),
        )
        b_ub = np.array([4.0])
        x = solve_highs(model, np.array([-1.0, -1.0]), b_ub)
        np.testing.assert_allclose(x, [2.0, 2.0])
        return model, x, np.concatenate([b_ub, model.b_eq])

    @staticmethod
    def _violation(model, x, row_upper):
        return solution_violation(x, -x.sum(), model.matrix @ x, row_upper, model)

    def test_clean_solution_passes(self, solved):
        assert self._violation(*solved) is None

    def test_nan(self, solved):
        model, x, row_upper = solved
        x[0] = np.nan
        assert "NaN" in self._violation(model, x, row_upper)

    def test_nan_objective(self, solved):
        model, x, row_upper = solved
        assert "NaN" in solution_violation(x, np.nan, model.matrix @ x, row_upper, model)

    def test_bound(self, solved):
        model, x, row_upper = solved
        x += [-1.0, -1.0]  # still balanced and under the row bound
        x[0] = -10 * FEASIBILITY_TOL
        x[1] = x[0]
        assert "bounds" in self._violation(model, x, row_upper)

    def test_inequality_slack(self, solved):
        model, x, row_upper = solved
        x[:] = 3.0  # within bounds, balanced, but 6 > 4
        assert "inequality" in self._violation(model, x, row_upper)

    def test_equality_residual(self, solved):
        model, x, row_upper = solved
        x[0] += 10 * FEASIBILITY_TOL
        x[1] -= 10 * FEASIBILITY_TOL
        assert "equality" in self._violation(model, x, row_upper)

    def test_within_tolerance_passes(self, solved):
        model, x, row_upper = solved
        x[0] += FEASIBILITY_TOL / 10
        assert self._violation(model, x, row_upper) is None


def test_infeasible_lp_raises_with_status_and_shape():
    # x0 == 5 but x0 <= 1
    model = HighsModel(
        sparse.coo_matrix([[1.0, 0.0]]),
        sparse.coo_matrix([[1.0, 0.0]]),
        np.array([5.0]),
        np.array([np.inf, np.inf]),
    )
    expected = r"LP failed: model status Infeasible.*2 rows x 2 columns"
    with pytest.raises(RuntimeError, match=expected):
        solve_highs(model, np.array([1.0, 1.0]), np.array([1.0]))


def test_missing_binding_names_module_and_scipy_version():
    # hide the binding the way an older scipy lacks it
    probe = (
        "import sys, scipy.optimize._highspy as pkg\n"
        "del pkg._core\n"
        "sys.modules['scipy.optimize._highspy._core'] = None\n"
        "try:\n"
        "    import repro.te.lp\n"
        "except ImportError as exc:\n"
        "    print(exc)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    ).stdout
    import scipy

    assert "scipy.optimize._highspy._core" in out
    assert scipy.__version__ in out
