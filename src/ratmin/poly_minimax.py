"""Best uniform linear-combination (polynomial) fit on a grid, as a single LP.

With a constant denominator the discrete best-uniform problem is linear:
minimize z subject to |f(t_i) - P(t_i)| <= z over all nodes. No exchange
iterations are needed; the LP optimum is the discrete minimax. This doubles as
the starting upper bound for the ratio solver and as the comparison baseline.
"""

from __future__ import annotations

import numpy as np

from . import lp_solver
from .basis import Monomial
from .grid import Grid, IntervalMap

__all__ = ["solve_poly_minimax"]


def solve_poly_minimax(values, grid: Grid, degree: int, family=None) -> tuple[np.ndarray, float]:
    """Discrete minimax coefficients and deviation for a degree-``degree`` fit.

    Coefficients refer to the family evaluated in normalized coordinates
    (the grid interval mapped onto [-1, 1]).
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    f = np.asarray(values, dtype=float)
    if f.ndim != 1 or f.size != len(grid):
        raise ValueError(f"{f.size} values for {len(grid)} grid nodes")
    if not np.all(np.isfinite(f)):
        raise ValueError("values must be finite")
    if family is None:
        family = Monomial()
    s = IntervalMap(*grid.interval).to_unit(grid.nodes)
    g = family.values(s, degree + 1)
    n_nodes = f.size
    k = degree + 1
    lhs = np.zeros((2 * n_nodes, k + 1))
    lhs[:n_nodes, :k] = g
    lhs[n_nodes:, :k] = -g
    lhs[:, k] = -1.0
    rhs = np.concatenate([f, -f])
    objective = np.zeros(k + 1)
    objective[k] = 1.0
    bounds = [(None, None)] * k + [(0.0, None)]
    problem = lp_solver.LpProblem(objective, lhs, rhs, bounds=bounds)
    sol = lp_solver.solve(problem)
    if sol.status is not lp_solver.LpStatus.OPTIMAL:
        raise lp_solver.SolverFailure(f"minimax fit LP ended {sol.status.value}")
    # exactly representable targets can come back as -1e-17 after the exact rebuild
    return sol.values[:k].copy(), max(float(sol.objective_value), 0.0)
