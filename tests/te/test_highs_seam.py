"""The direct HiGHS seam must return exactly what ``linprog`` returned.

``repro.te.lp`` hands its models straight to HiGHS.  The oracle here is
``scipy.optimize.linprog(method="highs")`` called with the same
matrices, right-hand sides and bounds the LP layer used to pass it, so
every objective's solver vector is compared bit for bit — on generated
topologies (dark links, penalties, unreachable demands included), after
a structure-hit rebind, and for the path formulation.  The model arrays
are checked against the CSC matrix scipy builds from the same blocks,
and, after a rebind that moves volumes, against a fresh assembly,
and the per-thread solver instance against fresh instances: reuse must
never carry state from one solve to the next.  The post-solve checks
are tested on their own, on doctored vectors and an infeasible LP.
"""

import subprocess
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

import repro.parallel
from repro.net.demands import Demand, gravity_demands
from repro.net.srlg import duplex_srlgs
from repro.net.topologies import abilene
from repro.net.topology import Topology
from repro.optics.impairments import RootCause
from repro.sim.whatif import replay_tickets
from repro.state.model import NetworkState
from repro.te import pathlp
from repro.te.incremental import SOLVE_METHODS, TeSolveCache
from repro.te.lp import (
    FEASIBILITY_TOL,
    Block,
    HighsModel,
    MultiCommodityLp,
    solution_violation,
    solve_highs,
)
from repro.te.pathlp import PathBasedLp
from repro.tickets.model import Ticket


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


def _coo(block):
    """A triplet block as the scipy COO matrix it stands for."""
    return _widen(block, block.shape[1])


def _matrix(model):
    """``[A_ub; A_eq]`` of a :class:`HighsModel` as a scipy CSC matrix."""
    return sparse.csc_array((model.value, model.index, model.start), shape=model.shape)


def _reference_x(lp: MultiCommodityLp, method: str) -> np.ndarray:
    """The solver vector of ``method`` solved through ``linprog``."""
    cap, cap_b = lp._capacity()
    cons, cons_b = lp._conservation()
    cap, cons = _coo(cap), _coo(cons)
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


_MODEL_ARRAYS = ("start", "index", "value", "col_upper", "row_lower", "b_eq")


def _solved_models(lp: MultiCommodityLp) -> list:
    """The model of every solve the four objectives make on ``lp``."""
    with mock.patch.object(lp, "_solve", wraps=lp._solve) as solve:
        for method in SOLVE_METHODS:
            _solve_or_none(getattr(lp, method))
    return [call.args[0] for call in solve.call_args_list]


@pytest.mark.parametrize("rescale_capacities", [False, True], ids=["volume", "capacity+volume"])
@_SETTINGS
@given(
    instance=instances(),
    volumes=st.lists(st.sampled_from([0.0, 10.0, 45.5, 120.0, 300.0]), min_size=1),
    factors=st.lists(st.sampled_from([0.25, 0.5, 2.0]), min_size=1),
)
def test_rebound_models_equal_fresh_assembly(rescale_capacities, instance, volumes, factors):
    """After a rebind that moves volumes (and capacities), every model
    a solve hands HiGHS — the cached ones rewritten in place, the
    max-concurrent-flow ones reassembled, the per-solve MLU one —
    holds the arrays a fresh assembly would build."""
    topo, demands = instance
    moved = [
        Demand(d.src, d.dst, volume) for d, volume in zip(demands, volumes * len(demands))
    ]
    scaled = topo.copy()
    if rescale_capacities:
        for link, factor in zip(scaled.links, factors * len(scaled.links)):
            scaled.replace_link(link.link_id, capacity_gbps=link.capacity_gbps * factor)
    cache = TeSolveCache()
    lp = cache.lp(topo, demands)
    _solved_models(lp)
    assert cache.lp(scaled, moved) is lp
    fresh = MultiCommodityLp(scaled, moved)
    ours, theirs = _solved_models(lp), _solved_models(fresh)
    assert len(ours) == len(theirs) >= len(SOLVE_METHODS)
    assert lp._models.keys() == fresh._models.keys()
    for model, ref in zip(ours, theirs):
        assert model.shape == ref.shape
        for name in _MODEL_ARRAYS:
            assert np.array_equal(getattr(model, name), getattr(ref, name)), name


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
        return solution_violation(x, -x.sum(), _matrix(model) @ x, row_upper, model)

    def test_clean_solution_passes(self, solved):
        assert self._violation(*solved) is None

    def test_nan(self, solved):
        model, x, row_upper = solved
        x[0] = np.nan
        assert "NaN" in self._violation(model, x, row_upper)

    def test_nan_objective(self, solved):
        model, x, row_upper = solved
        assert "NaN" in solution_violation(x, np.nan, _matrix(model) @ x, row_upper, model)

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


def _scipy_csc(a_ub, a_eq=None):
    """``[A_ub; A_eq]`` stacked and converted the way ``linprog`` does."""
    a_ub = sparse.coo_array(a_ub, dtype=float)
    n_cols = a_ub.shape[1]
    a_eq = sparse.coo_array((0, n_cols) if a_eq is None else a_eq, dtype=float)
    return sparse.csc_array(sparse.vstack((a_ub, a_eq)))


def _assert_model_arrays(model, a_ub, a_eq=None):
    ref = _scipy_csc(a_ub, a_eq)
    assert model.shape == ref.shape
    assert np.array_equal(model.start, ref.indptr)
    assert np.array_equal(model.index, ref.indices)
    assert np.array_equal(model.value, ref.data)


def _reference_blocks(lp: MultiCommodityLp) -> dict:
    """``(A_ub, A_eq)`` of every program, assembled with scipy.sparse the
    way the LP layer used to build them."""
    cap, cap_b = lp._capacity()
    cap, cons = _coo(cap), _coo(lp._conservation()[0])
    k = np.arange(lp.n_demands)
    n, last = lp.n_vars + 1, lp.n_vars
    volumes = np.array([d.volume_gbps for d in lp.demands])
    floor = sparse.coo_matrix(
        (-np.ones(lp.n_demands), (np.zeros_like(k), lp.n_flow_vars + k)),
        shape=(1, lp.n_vars),
    )
    tie = sparse.coo_matrix(
        (
            np.concatenate([np.ones(lp.n_demands), -volumes]),
            (np.concatenate([k, k]), np.concatenate([lp.n_flow_vars + k, [last] * lp.n_demands])),
        ),
        shape=(lp.n_demands, n),
    )
    pin = sparse.coo_matrix(
        (np.ones(lp.n_demands), (k, lp.n_flow_vars + k)), shape=(lp.n_demands, n)
    )
    mu_col = sparse.coo_matrix(
        (-cap_b, (list(range(lp.n_links)), [last] * lp.n_links)), shape=(lp.n_links, n)
    )
    concurrent = (_widen(cap, n), sparse.vstack([_widen(cons, n), tie]))
    return {
        "max_throughput": (cap, cons),
        "phase2": (sparse.vstack([cap.tocsr(), floor]), cons),
        ("max_concurrent_flow", True): concurrent,
        ("max_concurrent_flow", False): concurrent,
        "min_max_utilization": (
            (_widen(cap, n) + mu_col).tocoo(),
            sparse.vstack([_widen(cons, n), pin]),
        ),
    }


@_SETTINGS
@given(instance=instances())
def test_model_arrays_match_scipy_csc(instance):
    """Every program's (start, index, value) is scipy's canonical CSC of
    the same stacked blocks — dark links' zero MLU coefficients
    dropped, as scipy's sparse addition dropped them."""
    topo, demands = instance
    lp = MultiCommodityLp(topo, demands)
    lp.min_penalty_at_max_throughput()
    lp.max_concurrent_flow(cap_at_one=True)
    lp.max_concurrent_flow(cap_at_one=False)
    with mock.patch.object(lp, "_solve", wraps=lp._solve) as solve:
        _solve_or_none(lp.min_max_utilization)
    models = dict(lp._models, min_max_utilization=solve.call_args.args[0])
    for key, blocks in _reference_blocks(lp).items():
        _assert_model_arrays(models[key], *blocks)

    paths = PathBasedLp(topo, demands, k_paths=3)
    if paths.n_vars == 0:
        return
    with mock.patch.object(pathlp, "solve_highs", wraps=solve_highs) as solve:
        paths.min_penalty_at_max_throughput()
    phase1, phase2 = (call.args[0] for call in solve.call_args_list)
    rows = sparse.vstack([paths._capacity_rows()[0], paths._demand_rows()[0]])
    _assert_model_arrays(phase1, rows)
    _assert_model_arrays(phase2, sparse.vstack([rows, -np.ones((1, paths.n_vars))]))


def test_duplicate_entry_raises():
    twice = Block(np.array([0, 1, 0]), np.array([1, 0, 1]), np.ones(3), (2, 2))
    with pytest.raises(ValueError, match=r"duplicate entry at \(0, 1\)"):
        HighsModel(twice, None, np.zeros(0), np.full(2, np.inf))
    # ... also in a scipy COO block, which scipy itself would sum
    summed = sparse.coo_matrix(([1.0, 2.0], ([0, 0], [1, 1])), shape=(1, 2))
    with pytest.raises(ValueError, match=r"duplicate entry at \(1, 1\)"):
        HighsModel(sparse.coo_matrix([[1.0, 0.0]]), summed, np.zeros(1), np.full(2, np.inf))


def _infeasible_lp():
    # x0 == 5 but x0 <= 1
    model = HighsModel(
        sparse.coo_matrix([[1.0, 0.0]]),
        sparse.coo_matrix([[1.0, 0.0]]),
        np.array([5.0]),
        np.array([np.inf, np.inf]),
    )
    return model, np.array([1.0, 1.0]), np.array([1.0])


def _recorded_solves(topo, demands) -> list:
    """``(model, c, b_ub)`` of every solve the four objectives make."""
    lp = MultiCommodityLp(topo, demands)
    calls = []
    with mock.patch.object(lp, "_solve", wraps=lp._solve) as solve:
        for method in SOLVE_METHODS:
            _solve_or_none(getattr(lp, method))
    for call in solve.call_args_list:
        model, c, b_ub = call.args
        calls.append((model, c.copy(), b_ub.copy()))
    return calls


@st.composite
def solve_sequences(draw):
    """Solves mixing LP shapes and same-structure RHS drifts, with an
    infeasible LP somewhere in the middle."""
    programs = []
    for _ in range(draw(st.integers(1, 3))):
        programs += _recorded_solves(*draw(instances()))
    runs = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(programs) - 1),
                st.lists(st.sampled_from([1.0, 0.25, 0.5, 2.0]), min_size=1, max_size=4),
            ),
            min_size=1,
            max_size=6,
        )
    )
    sequence = []
    for i, factors in runs:
        model, c, b_ub = programs[i]
        sequence += [(model, c, b_ub * factor) for factor in factors]
    at = draw(st.integers(0, len(sequence)))
    sequence.insert(at, _infeasible_lp())
    return sequence, at


def _outcome(model, c, b_ub):
    """The solver vector, or None where the solve raised RuntimeError."""
    try:
        return solve_highs(model, c, b_ub)
    except RuntimeError:
        return None


def _on_fresh_instance(model, c, b_ub):
    """:func:`_outcome` on a new thread, hence a new HiGHS instance."""
    box = []
    worker = threading.Thread(target=lambda: box.append(_outcome(model, c, b_ub)))
    worker.start()
    worker.join()
    return box[0]


@_SETTINGS
@given(drawn=solve_sequences())
def test_reused_solver_matches_fresh_instance(drawn):
    sequence, infeasible_at = drawn
    for i, (model, c, b_ub) in enumerate(sequence):
        ours = _outcome(model, c, b_ub)
        fresh = _on_fresh_instance(model, c, b_ub)
        if i == infeasible_at:
            assert ours is None
        assert (ours is None) == (fresh is None)
        if fresh is not None:
            assert np.array_equal(ours, fresh)


def test_thread_pool_replay_matches_serial(monkeypatch):
    """Four threads, each reusing its own solver, agree with one."""
    monkeypatch.setattr(repro.parallel, "_process_pool_ok", False)
    topology = abilene()
    srlgs = duplex_srlgs(topology)
    causes = (RootCause.HARDWARE, RootCause.FIBER_CUT, RootCause.MAINTENANCE)
    tickets = [
        Ticket(
            ticket_id=f"TKT-{i:06d}",
            root_cause=causes[i % len(causes)],
            opened_s=1_000.0 * i,
            duration_s=3_600.0,
            element=cable,
        )
        for i, cable in enumerate(srlgs.cables())
    ]
    demands = gravity_demands(topology, 2_000.0, np.random.default_rng(3), sparsity=0.7)
    serial = replay_tickets(topology, demands, tickets, srlgs, workers=1)
    threaded = replay_tickets(topology, demands, tickets, srlgs, workers=4)
    assert threaded == serial
