"""Edge-based multicommodity flow LPs on scipy's HiGHS backend.

This is the workhorse the SWAN/B4-style controllers and the Theorem-1
machinery sit on.  The formulation is the standard node-arc one:

* variables ``x[k, e]`` — flow of commodity ``k`` on link ``e`` — plus
  one throughput variable ``t[k]`` per commodity;
* conservation: at every node, commodity outflow minus inflow equals
  ``+t[k]`` at the source, ``-t[k]`` at the sink, 0 elsewhere;
* capacity: total flow on a link never exceeds its capacity;
* demand: ``t[k] <= volume[k]``.

Three objectives are exposed:

* **max throughput** — maximise ``sum_k t[k]``;
* **min-penalty at max throughput** — the two-phase program behind
  Theorem 1: first find the maximum throughput ``T*``, then minimise
  ``sum_e penalty[e] * flow[e]`` subject to throughput ``>= T*``.
  This is exactly "min-cost max-flow" generalised to many commodities;
* **max concurrent flow** — maximise ``lambda`` with every commodity
  served ``lambda * volume`` (the classic fairness LP).

Matrices are assembled sparse (COO) — an augmented 21-node backbone with
~420 commodities stays comfortably within HiGHS territory.

Every solve goes through one seam, :func:`solve_highs`, which hands a
:class:`HighsModel` straight to HiGHS (scipy's bundled binding) instead
of through ``scipy.optimize.linprog``.  A model holds the stacked
constraint matrix, column bounds and equality right-hand side, built
once per LP structure exactly as ``linprog(method="highs")`` would build
them; a solve supplies only the objective and the inequality
right-hand side, and gets back the same vector ``linprog`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Sequence

import numpy as np
import scipy
from scipy import sparse

# Not called here: ``linprog`` is the reference the seam is tested
# against, and the name stays bound because external profilers wrap
# ``repro.te.lp:linprog`` by name (perfbench's per-layer tracer does).
from scipy.optimize import linprog  # noqa: F401

try:
    from scipy.optimize._highspy import _core as _highs
except ImportError as exc:  # scipy < 1.15 kept HiGHS elsewhere
    raise ImportError(
        "repro.te.lp needs scipy.optimize._highspy._core (scipy >= 1.15); "
        f"installed scipy is {scipy.__version__}"
    ) from exc

from repro import perf
from repro.net.demands import Demand
from repro.net.topology import Topology
from repro.te.solution import EPSILON, FlowAssignment, TeSolution


#: the options ``linprog(method="highs")`` sets away from HiGHS's
#: defaults (dual simplex is also the default; set for clarity).  One
#: shared object: ``passOptions`` copies it into each solver instance.
_HIGHS_OPTIONS = _highs.HighsOptions()
_HIGHS_OPTIONS.presolve = "on"
_HIGHS_OPTIONS.simplex_strategy = int(
    _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
)
_HIGHS_OPTIONS.output_flag = False
_HIGHS_OPTIONS.log_to_console = False

#: linprog's post-solve feasibility tolerance (``_check_result`` turns
#: its default ``tol=1e-9`` into ``sqrt(tol) * 10``)
FEASIBILITY_TOL = float(np.sqrt(1e-9) * 10)


class HighsModel:
    """The fixed part of ``min c @ x`` s.t. ``A_ub @ x <= b_ub``,
    ``A_eq @ x == b_eq``, ``0 <= x <= col_upper``.

    Everything except the objective and ``b_ub``, in HiGHS's column-wise
    form: ``[A_ub; A_eq]`` stacked into one CSC matrix by the same
    conversions ``linprog(method="highs")`` applies, so HiGHS receives a
    byte-identical model.  Build one per LP structure and reuse it;
    ``col_upper`` uses ``inf`` for "no upper bound".
    """

    __slots__ = ("n_ub", "matrix", "b_eq", "row_lower", "col_lower", "col_upper")

    def __init__(self, a_ub, a_eq, b_eq: np.ndarray, col_upper: np.ndarray):
        a_ub = sparse.coo_array(a_ub, dtype=float)
        n_cols = a_ub.shape[1]
        a_eq = sparse.coo_array((0, n_cols) if a_eq is None else a_eq, dtype=float)
        self.n_ub = a_ub.shape[0]
        self.matrix = sparse.csc_array(sparse.vstack((a_ub, a_eq)))
        self.b_eq = np.asarray(b_eq, dtype=float)
        self.row_lower = np.concatenate([np.full(self.n_ub, -np.inf), self.b_eq])
        self.col_lower = np.zeros(n_cols)
        self.col_upper = np.asarray(col_upper, dtype=float)

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


def solution_violation(
    x: np.ndarray,
    objective: float,
    row_value: np.ndarray,
    row_upper: np.ndarray,
    model: HighsModel,
) -> str | None:
    """Why a reportedly optimal vector is unusable, or ``None`` if it is fine.

    The checks ``linprog`` runs after HiGHS (``_check_result``): no NaN
    in ``x``, the objective or the row values; column bounds, inequality
    slacks and equality residuals all within :data:`FEASIBILITY_TOL`.
    """
    tol = FEASIBILITY_TOL
    slack = row_upper[: model.n_ub] - row_value[: model.n_ub]
    residual = row_upper[model.n_ub :] - row_value[model.n_ub :]
    if np.isnan(x).any() or np.isnan(objective) or np.isnan(row_value).any():
        return "NaN in the solution"
    outside = (x < model.col_lower - tol) | (x > model.col_upper + tol)
    checks = (
        ("column(s) outside their bounds", outside),
        ("inequality row(s) violated", slack < -tol),
        ("equality row(s) violated", np.abs(residual) > tol),
    )
    for what, bad in checks:
        if bad.any():
            return f"{int(bad.sum())} {what}"
    return None


def solve_highs(model: HighsModel, c: np.ndarray, b_ub: np.ndarray) -> np.ndarray:
    """Solve ``model`` with objective ``c`` and inequality RHS ``b_ub``.

    Returns the primal vector ``linprog(method="highs")`` would return
    for the same LP.  Each call uses a fresh HiGHS instance: a warm
    start could land on a different optimal vertex of these degenerate
    LPs.  Raises ``RuntimeError`` unless HiGHS reports an optimum that
    passes :func:`solution_violation`.
    """
    n_rows, n_cols = model.shape
    row_upper = np.concatenate([b_ub, model.b_eq])
    lp = _highs.HighsLp()
    lp.num_col_ = n_cols
    lp.num_row_ = n_rows
    lp.col_cost_ = c
    lp.col_lower_ = model.col_lower
    lp.col_upper_ = model.col_upper
    lp.row_lower_ = model.row_lower
    lp.row_upper_ = row_upper
    matrix = lp.a_matrix_
    matrix.format_ = _highs.MatrixFormat.kColwise
    matrix.num_col_ = n_cols
    matrix.num_row_ = n_rows
    matrix.start_ = model.matrix.indptr
    matrix.index_ = model.matrix.indices
    matrix.value_ = model.matrix.data
    highs = _highs._Highs()
    highs.passOptions(_HIGHS_OPTIONS)
    if highs.passModel(lp) == _highs.HighsStatus.kError:
        status = _highs.HighsModelStatus.kModelError
    else:
        highs.run()
        status = highs.getModelStatus()
    objective = highs.getInfo().objective_function_value
    problem = None
    if status == _highs.HighsModelStatus.kOptimal:
        solution = highs.getSolution()
        x = np.array(solution.col_value)
        problem = solution_violation(
            x, objective, np.array(solution.row_value), row_upper, model
        )
        if problem is None:
            return x
    reason = f"model status {highs.modelStatusToString(status)}"
    if problem is not None:
        reason += f" but {problem}"
    raise RuntimeError(
        f"LP failed: {reason} ({n_rows} rows x {n_cols} columns, "
        f"objective {objective:.6g})"
    )


def _widened(block: sparse.coo_matrix, n: int) -> sparse.coo_matrix:
    """``block`` with its column count widened to ``n``."""
    return sparse.coo_matrix(
        (block.data, (block.row, block.col)), shape=(block.shape[0], n)
    )


@dataclass(frozen=True)
class LpOutcome:
    """A solved LP: the TE solution plus solver metadata."""

    solution: TeSolution
    objective_value: float
    status: str
    #: for max_concurrent_flow: the common satisfaction fraction
    concurrency: float | None = None
    #: the raw solver vector (excluded from equality: replaying it
    #: through :meth:`MultiCommodityLp._extract` is how the incremental
    #: layer memoizes exact solutions without re-solving)
    x: np.ndarray | None = field(default=None, compare=False, repr=False)


class MultiCommodityLp:
    """Shared LP scaffolding for one (topology, demands) instance."""

    def __init__(self, topology: Topology, demands: Sequence[Demand]):
        if not demands:
            raise ValueError("need at least one demand")
        for d in demands:
            for node in (d.src, d.dst):
                if not topology.has_node(node):
                    raise KeyError(f"demand endpoint {node!r} not in topology")
        self.topology = topology
        self.demands = tuple(demands)
        self.links = list(topology.links)
        self.nodes = list(topology.nodes)
        self._link_index = {l.link_id: i for i, l in enumerate(self.links)}
        self._node_index = {n: i for i, n in enumerate(self.nodes)}
        self.n_links = len(self.links)
        self.n_demands = len(self.demands)
        self._volumes = np.fromiter(
            (d.volume_gbps for d in self.demands), dtype=float, count=self.n_demands
        )
        # x variables: commodity-major layout; t variables appended
        self.n_flow_vars = self.n_demands * self.n_links
        # per-link index arrays: all constraint blocks are assembled from
        # these with numpy broadcasting instead of per-(k, e) Python loops
        self._link_src = np.fromiter(
            (self._node_index[l.src] for l in self.links),
            dtype=np.int64,
            count=self.n_links,
        )
        self._link_dst = np.fromiter(
            (self._node_index[l.dst] for l in self.links),
            dtype=np.int64,
            count=self.n_links,
        )
        self._link_ids = [l.link_id for l in self.links]
        # constraint blocks are identical across the solve methods (and
        # across both phases of the Theorem-1 program), so build each once
        self._conservation_cache: tuple[sparse.coo_matrix, np.ndarray] | None = None
        self._capacity_cache: tuple[sparse.coo_matrix, np.ndarray] | None = None
        self._penalty_cache: np.ndarray | None = None
        # solver-ready models per program; none depends on capacities
        # (they enter each solve as b_ub), so rebind keeps them all
        self._models: dict[Hashable, HighsModel] = {}

    def rebind(self, topology: Topology) -> None:
        """Re-point this assembled LP at a structurally identical topology.

        The caller (see :mod:`repro.te.incremental`) guarantees
        ``topology`` has the same nodes and the same links — ids,
        endpoints, insertion order — as the instance was built from;
        only per-link capacities and penalties may differ.  The capacity
        RHS is rewritten in place (O(n_links)) and the penalty vector is
        dropped for lazy rebuild; every assembled constraint block and
        solver model is reused as-is, so a rebound instance solves with
        matrices value-identical to fresh assembly.
        """
        self.topology = topology
        self.links = list(topology.links)
        if self._capacity_cache is not None:
            b_ub = self._capacity_cache[1]
            b_ub[:] = [l.capacity_gbps for l in self.links]
        self._penalty_cache = None

    # -- variable layout --------------------------------------------------

    def _x(self, k: int, e: int) -> int:
        return k * self.n_links + e

    def _t(self, k: int) -> int:
        return self.n_flow_vars + k

    @property
    def n_vars(self) -> int:
        return self.n_flow_vars + self.n_demands

    # -- constraint blocks --------------------------------------------------

    def _conservation(self) -> tuple[sparse.coo_matrix, np.ndarray]:
        """A_eq x = 0 rows: one per (commodity, node).

        Assembled once per instance as four COO blocks built with index
        arithmetic (+1 at each link's source row, -1 at its destination
        row, -/+1 tying t_k to its commodity's source/sink); every solve
        method reuses the cached matrix.
        """
        if self._conservation_cache is None:
            with perf.timer("lp.assemble.conservation"):
                n_k, n_e = self.n_demands, self.n_links
                n_n = len(self.nodes)
                k = np.arange(n_k, dtype=np.int64)
                e = np.arange(n_e, dtype=np.int64)
                flow_cols = (k[:, None] * n_e + e[None, :]).ravel()
                out_rows = (k[:, None] * n_n + self._link_src[None, :]).ravel()
                in_rows = (k[:, None] * n_n + self._link_dst[None, :]).ravel()
                d_src = np.fromiter(
                    (self._node_index[d.src] for d in self.demands),
                    dtype=np.int64,
                    count=n_k,
                )
                d_dst = np.fromiter(
                    (self._node_index[d.dst] for d in self.demands),
                    dtype=np.int64,
                    count=n_k,
                )
                rows = np.concatenate(
                    [out_rows, in_rows, k * n_n + d_src, k * n_n + d_dst]
                )
                cols = np.concatenate(
                    [flow_cols, flow_cols, self.n_flow_vars + k, self.n_flow_vars + k]
                )
                vals = np.concatenate(
                    [
                        np.ones(n_k * n_e),
                        -np.ones(n_k * n_e),
                        -np.ones(n_k),
                        np.ones(n_k),
                    ]
                )
                a_eq = sparse.coo_matrix(
                    (vals, (rows, cols)), shape=(n_k * n_n, self.n_vars)
                )
                self._conservation_cache = (a_eq, np.zeros(n_k * n_n))
        return self._conservation_cache

    def _capacity(self) -> tuple[sparse.coo_matrix, np.ndarray]:
        """A_ub x <= cap rows: one per link, summed over commodities."""
        if self._capacity_cache is None:
            with perf.timer("lp.assemble.capacity"):
                n_k, n_e = self.n_demands, self.n_links
                k = np.arange(n_k, dtype=np.int64)
                e = np.arange(n_e, dtype=np.int64)
                rows = np.tile(e, n_k)
                cols = (k[:, None] * n_e + e[None, :]).ravel()
                a_ub = sparse.coo_matrix(
                    (np.ones(n_k * n_e), (rows, cols)),
                    shape=(n_e, self.n_vars),
                )
                b_ub = np.array([l.capacity_gbps for l in self.links])
                self._capacity_cache = (a_ub, b_ub)
        return self._capacity_cache

    def _col_upper(self, *, cap_throughput: bool = True) -> np.ndarray:
        """Column upper bounds: flows unbounded, ``t_k <= volume_k``."""
        upper = np.full(self.n_vars, np.inf)
        if cap_throughput:
            upper[self.n_flow_vars :] = self._volumes
        return upper

    def _cached_model(
        self, key: Hashable, build: Callable[[], HighsModel]
    ) -> HighsModel:
        model = self._models.get(key)
        if model is None:
            model = self._models[key] = build()
        return model

    def _penalty_vector(self) -> np.ndarray:
        """Per-variable penalty costs (a fresh copy — callers mutate it)."""
        if self._penalty_cache is None:
            per_link = np.fromiter(
                (l.penalty for l in self.links), dtype=float, count=self.n_links
            )
            c = np.zeros(self.n_vars)
            c[: self.n_flow_vars] = np.tile(per_link, self.n_demands)
            self._penalty_cache = c
        return self._penalty_cache.copy()

    # -- solves -------------------------------------------------------------

    def _solve(self, model: HighsModel, c: np.ndarray, b_ub: np.ndarray) -> np.ndarray:
        with perf.timer(
            "lp.solve", n_vars=len(c), n_demands=self.n_demands
        ):
            return solve_highs(model, c, b_ub)

    def _extract(self, x: np.ndarray) -> TeSolution:
        """Read a solver vector back into a TeSolution.

        The flow block is scanned as one (n_demands, n_links) array; only
        the entries above EPSILON (a handful per commodity) are touched in
        Python.
        """
        flows = np.asarray(x[: self.n_flow_vars]).reshape(
            self.n_demands, self.n_links
        )
        t_vals = np.asarray(x[self.n_flow_vars : self.n_flow_vars + self.n_demands])
        edge_flows: list[dict[str, float]] = [{} for _ in range(self.n_demands)]
        # one mask drops the near-zero flows; nonzero gives the surviving
        # (commodity, link) pairs in row-major order, and one fancy-index
        # gather pulls their values — Python only touches the survivors
        mask = flows > EPSILON
        ks, es = np.nonzero(mask)
        link_ids = self._link_ids
        for k, e, value in zip(ks.tolist(), es.tolist(), flows[mask].tolist()):
            edge_flows[k][link_ids[e]] = value
        assignments = [
            FlowAssignment(
                demand=demand,
                allocated_gbps=max(float(t_vals[k]), 0.0),
                edge_flows=edge_flows[k],
            )
            for k, demand in enumerate(self.demands)
        ]
        return TeSolution(self.topology, assignments)

    def max_throughput(self, *, penalty_weight: float = 0.0) -> LpOutcome:
        """Maximise total allocated volume.

        ``penalty_weight`` > 0 folds the penalty into the objective as a
        soft cost (``max sum t - w * sum p*x``) — the single-shot
        approximation of the two-phase program.  Keep it well below
        1/max_path_length or it will start sacrificing throughput.
        """
        model = self._cached_model(
            "max_throughput",
            lambda: HighsModel(
                self._capacity()[0], *self._conservation(), self._col_upper()
            ),
        )
        c = penalty_weight * self._penalty_vector()
        # tiny per-unit-flow cost keeps solutions off pointless cycles
        c[: self.n_flow_vars] += 1e-9
        c[self.n_flow_vars :] = -1.0  # HiGHS minimises; t vars fill the tail
        x = self._solve(model, c, self._capacity()[1])
        solution = self._extract(x)
        return LpOutcome(
            solution=solution,
            objective_value=solution.total_allocated_gbps,
            status="optimal",
            x=x,
        )

    def _phase2_model(self) -> HighsModel:
        """The max-throughput model plus one row: ``-sum_k t_k <= -T*``."""
        k = np.arange(self.n_demands, dtype=np.int64)
        floor = sparse.coo_matrix(
            (-np.ones(self.n_demands), (np.zeros_like(k), self.n_flow_vars + k)),
            shape=(1, self.n_vars),
        )
        return HighsModel(
            sparse.vstack([self._capacity()[0], floor]),
            *self._conservation(),
            self._col_upper(),
        )

    def min_penalty_at_max_throughput(self) -> LpOutcome:
        """The Theorem-1 objective: min-cost among max-throughput flows.

        Phase 1 finds the maximum throughput ``T*``; phase 2 minimises
        the penalty subject to total throughput >= T* (less a numerical
        hair, so phase 2 stays feasible).
        """
        phase1 = self.max_throughput()
        t_star = phase1.objective_value
        model = self._cached_model("phase2", self._phase2_model)
        slack = max(1e-7 * max(t_star, 1.0), 1e-9)
        b_ub = np.concatenate([self._capacity()[1], [-(t_star - slack)]])
        c = self._penalty_vector()
        # tiny tie-break keeps flow off zero-penalty cycles
        c[: self.n_flow_vars] += 1e-9
        x = self._solve(model, c, b_ub)
        solution = self._extract(x)
        return LpOutcome(
            solution=solution,
            objective_value=solution.penalty_cost,
            status="optimal",
            x=x,
        )

    def min_max_utilization(self) -> LpOutcome:
        """Route ALL demand while minimising the maximum link utilisation.

        The classic load-balancing TE objective (B4/MPLS-TE flavour):
        every commodity is fully served (infeasible instances raise),
        and the objective spreads load so the hottest link is as cool
        as possible.  ``objective_value`` is the achieved MLU; values
        above 1.0 mean the demand does not fit and links would be
        oversubscribed proportionally.

        The capacities sit in the matrix here (the ``mu`` column), so
        this model is assembled per solve rather than cached.
        """
        n = self.n_vars + 1  # mu (the MLU) is the last variable
        mu = self.n_vars

        # pin every commodity at full demand: t_k = d_k
        k = np.arange(self.n_demands, dtype=np.int64)
        pin = sparse.coo_matrix(
            (np.ones(self.n_demands), (k, self.n_flow_vars + k)),
            shape=(self.n_demands, n),
        )
        a_eq_base = _widened(self._conservation()[0], n)
        a_eq = sparse.vstack([a_eq_base, pin])
        b_eq = np.concatenate([np.zeros(a_eq_base.shape[0]), self._volumes])

        # capacity rows become: sum_k x_ke - cap_e * mu <= 0
        cap, cap_b = self._capacity()
        mu_col = sparse.coo_matrix(
            (-cap_b, (list(range(self.n_links)), [mu] * self.n_links)),
            shape=(self.n_links, n),
        )
        a_ub = (_widened(cap, n) + mu_col).tocoo()

        # mu free upward: report oversubscription
        col_upper = np.append(self._col_upper(cap_throughput=False), np.inf)
        c = np.zeros(n)
        c[: self.n_flow_vars] += 1e-9  # cycle suppression
        c[mu] = 1.0
        model = HighsModel(a_ub, a_eq, b_eq, col_upper)
        x = self._solve(model, c, np.zeros(self.n_links))
        solution = self._extract(x[: self.n_vars])
        return LpOutcome(
            solution=solution,
            objective_value=float(x[mu]),
            status="optimal",
            x=x,
        )

    def _concurrent_model(self, cap_at_one: bool) -> HighsModel:
        """Conservation plus ``t_k - d_k * lambda = 0`` rows, capacity rows."""
        n = self.n_vars + 1  # lambda is the last variable
        k = np.arange(self.n_demands, dtype=np.int64)
        tie = sparse.coo_matrix(
            (
                np.concatenate([np.ones(self.n_demands), -self._volumes]),
                (
                    np.concatenate([k, k]),
                    np.concatenate(
                        [self.n_flow_vars + k, np.full(self.n_demands, self.n_vars)]
                    ),
                ),
            ),
            shape=(self.n_demands, n),
        )
        a_eq = sparse.vstack([_widened(self._conservation()[0], n), tie])
        col_upper = np.append(
            self._col_upper(cap_throughput=False), 1.0 if cap_at_one else np.inf
        )
        return HighsModel(
            _widened(self._capacity()[0], n),
            a_eq,
            np.zeros(a_eq.shape[0]),
            col_upper,
        )

    def max_concurrent_flow(self, *, cap_at_one: bool = True) -> LpOutcome:
        """Maximise the common satisfaction fraction ``lambda``.

        Every commodity is served exactly ``lambda * volume``; with
        ``cap_at_one`` the fraction saturates at full satisfaction
        (the variant TE controllers actually deploy).
        """
        # replace the per-commodity t_k with t_k = lambda * d_k by adding
        # equality rows t_k - d_k * lambda = 0 and one extra variable.
        model = self._cached_model(
            ("max_concurrent_flow", cap_at_one),
            lambda: self._concurrent_model(cap_at_one),
        )
        lam = self.n_vars
        c = np.zeros(self.n_vars + 1)
        c[: self.n_flow_vars] += 1e-9  # cycle suppression, as above
        c[lam] = -1.0
        x = self._solve(model, c, self._capacity()[1])
        solution = self._extract(x[: self.n_vars])
        return LpOutcome(
            solution=solution,
            objective_value=float(x[lam]),
            status="optimal",
            concurrency=float(x[lam]),
            x=x,
        )
