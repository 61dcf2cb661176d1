"""Path-based multicommodity TE (the formulation SWAN/B4 deploy).

The edge-based LP of :mod:`repro.te.lp` is exact but has
``O(demands x links)`` variables.  Production controllers restrict each
demand to a small set of precomputed tunnels (k-shortest paths) and
solve over path variables instead — smaller, and the output is already
tunnels.  The price is optimality: with too few paths the optimum is
missed, which the DESIGN.md ablation quantifies.

On augmented topologies the k-shortest computation runs over the
link-expanded graph, so real and fake parallel links appear as distinct
tunnels — the abstraction keeps working with zero changes here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse

from repro.net.demands import Demand
from repro.net.paths import LinkPath, k_shortest_paths
from repro.net.topology import Topology
from repro.te.lp import HighsModel, solve_highs
from repro.te.solution import EPSILON, FlowAssignment, TeSolution


@dataclass(frozen=True)
class PathLpOutcome:
    """A solved path LP: solution, objective, and the tunnels used."""

    solution: TeSolution
    objective_value: float
    #: tunnels per demand index, aligned with rates_per_path
    tunnels: tuple[tuple[LinkPath, ...], ...]


class PathBasedLp:
    """Path-formulation multicommodity LP over k-shortest tunnels."""

    def __init__(
        self,
        topology: Topology,
        demands: Sequence[Demand],
        *,
        k_paths: int = 4,
    ):
        if not demands:
            raise ValueError("need at least one demand")
        if k_paths <= 0:
            raise ValueError("k_paths must be positive")
        self.topology = topology
        self.demands = tuple(demands)
        self.k_paths = k_paths
        self.paths: list[list[LinkPath]] = [
            k_shortest_paths(topology, d.src, d.dst, k_paths)
            for d in self.demands
        ]
        # flat variable layout: one rate per (demand, path)
        self._offsets: list[int] = []
        total = 0
        for paths in self.paths:
            self._offsets.append(total)
            total += len(paths)
        self.n_vars = total

    def _var(self, k: int, p: int) -> int:
        return self._offsets[k] + p

    def _capacity_rows(self) -> tuple[sparse.coo_matrix, np.ndarray]:
        link_index = {l.link_id: i for i, l in enumerate(self.topology.links)}
        rows, cols, vals = [], [], []
        for k, paths in enumerate(self.paths):
            for p, path in enumerate(paths):
                for link in path.links:
                    rows.append(link_index[link.link_id])
                    cols.append(self._var(k, p))
                    vals.append(1.0)
        a_ub = sparse.coo_matrix(
            (vals, (rows, cols)), shape=(len(link_index), max(self.n_vars, 1))
        )
        b_ub = np.array([l.capacity_gbps for l in self.topology.links])
        return a_ub, b_ub

    def _demand_rows(self) -> tuple[sparse.coo_matrix, np.ndarray]:
        rows, cols, vals = [], [], []
        for k, paths in enumerate(self.paths):
            for p in range(len(paths)):
                rows.append(k)
                cols.append(self._var(k, p))
                vals.append(1.0)
        a_ub = sparse.coo_matrix(
            (vals, (rows, cols)),
            shape=(len(self.demands), max(self.n_vars, 1)),
        )
        b_ub = np.array([d.volume_gbps for d in self.demands])
        return a_ub, b_ub

    def _extract(self, x: np.ndarray) -> PathLpOutcome:
        assignments = []
        for k, (demand, paths) in enumerate(zip(self.demands, self.paths)):
            edge_flows: dict[str, float] = {}
            allocated = 0.0
            for p, path in enumerate(paths):
                rate = float(x[self._var(k, p)])
                if rate <= EPSILON:
                    continue
                allocated += rate
                for link in path.links:
                    edge_flows[link.link_id] = (
                        edge_flows.get(link.link_id, 0.0) + rate
                    )
            assignments.append(
                FlowAssignment(
                    demand=demand,
                    allocated_gbps=allocated,
                    edge_flows=edge_flows,
                )
            )
        solution = TeSolution(self.topology, assignments)
        return PathLpOutcome(
            solution=solution,
            objective_value=solution.total_allocated_gbps,
            tunnels=tuple(tuple(p) for p in self.paths),
        )

    def _solve(
        self, c: np.ndarray, *extra: tuple[sparse.coo_matrix, np.ndarray]
    ) -> np.ndarray:
        """``min c @ x`` over the capacity and demand rows plus ``extra``."""
        blocks = [self._capacity_rows(), self._demand_rows(), *extra]
        model = HighsModel(
            sparse.vstack([a for a, _ in blocks]),
            None,
            np.zeros(0),
            np.full(self.n_vars, np.inf),
        )
        return solve_highs(model, c, np.concatenate([b for _, b in blocks]))

    def max_throughput(self, *, penalty_weight: float = 0.0) -> PathLpOutcome:
        """Maximise total allocated volume over the tunnel sets."""
        if self.n_vars == 0:
            return self._extract(np.zeros(0))
        c = np.full(self.n_vars, -1.0)
        if penalty_weight:
            for k, paths in enumerate(self.paths):
                for p, path in enumerate(paths):
                    c[self._var(k, p)] += penalty_weight * path.penalty
        return self._extract(self._solve(c))

    def min_penalty_at_max_throughput(self) -> PathLpOutcome:
        """Two-phase: maximum throughput first, then least total penalty."""
        phase1 = self.max_throughput()
        t_star = phase1.objective_value
        if self.n_vars == 0:
            return phase1
        floor = sparse.coo_matrix(
            (
                [-1.0] * self.n_vars,
                ([0] * self.n_vars, list(range(self.n_vars))),
            ),
            shape=(1, self.n_vars),
        )
        slack = max(1e-7 * max(t_star, 1.0), 1e-9)
        c = np.zeros(self.n_vars)
        for k, paths in enumerate(self.paths):
            for p, path in enumerate(paths):
                c[self._var(k, p)] = path.penalty + 1e-9 * len(path)
        return self._extract(self._solve(c, (floor, np.array([-(t_star - slack)]))))
