"""Dense two-phase simplex for the small inequality-form LPs built by the solvers.

Problems arrive as ``min c.x  s.t.  A x <= b,  lower <= x <= upper`` where any
bound may be infinite. Free variables are handled through bound bookkeeping (a
free nonbasic variable rests at zero and may enter the basis in either
direction); they are never split into differences of nonnegative parts, so the
column count stays at the caller's variable count.

The tableau is held in condensed (Tucker) form: only the columns of the
currently nonbasic variables are stored and updated, which keeps each pivot
cheap on the tall, thin problems produced by the approximation code. Slack
variables form the starting basis. When some slacks start negative, a crash
start looks for a column at a finite lower bound with no upper bound whose
increase lifts every negative slack and lowers no other (the violation
variable of a minimax or feasibility-probe LP is one); pivoting it in at the
row that needs the largest step makes the basis feasible at once. Without such
a column, phase one adds a single artificial variable covering every
out-of-bounds basic row and minimizes it. Phase two runs the bounded-variable
primal simplex on the real objective. Entering columns are priced by greatest
actual improvement with a Harris two-pass ratio test until the iteration count
passes the anti-cycling threshold, after which Bland's rule takes over. The
relaxed ratio test lets pivot drift accumulate, so one repair sheds it: after
every optimization the tableau is rebuilt exactly from the problem's data, and
a rebuilt basis out of bounds gets another artificial-variable round.
Problems with many rows are solved through row activation: a strided subset
first, then every violated row joins until the subset optimum is feasible
(hence optimal) for the whole system. All selection rules are deterministic,
so the same input always produces bit-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "LpProblem",
    "LpSolution",
    "LpStatus",
    "SimplexConfig",
    "SolverFailure",
    "solve",
]


class SolverFailure(RuntimeError):
    """The simplex could not certify any answer (tiny pivots, iteration cap)."""


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class SimplexConfig:
    """Numerical knobs; the defaults suit well-scaled problems."""

    feasibility_tol: float = 1e-9
    pivot_tol: float = 1e-12
    max_iterations: int | None = None  # None: 50*(rows+cols) + 200
    bland_after: int | None = None     # None: 5*(rows+cols)


class LpProblem:
    """min c.x subject to rows A x <= b and per-variable bounds.

    ``bounds`` entries are (lower, upper) pairs with None for an infinite end;
    variables default to free.
    """

    def __init__(self, objective, lhs, rhs, bounds=None):
        c = np.asarray(objective, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("objective must be a nonempty 1-d vector")
        A = np.asarray(lhs, dtype=float)
        if A.size == 0:
            A = np.zeros((0, c.size))
        if A.ndim != 2 or A.shape[1] != c.size:
            raise ValueError(
                f"constraint matrix shape {A.shape} does not match {c.size} variables"
            )
        b = np.asarray(rhs, dtype=float).reshape(-1)
        if b.size != A.shape[0]:
            raise ValueError(f"{b.size} right-hand sides for {A.shape[0]} rows")
        lower = np.full(c.size, -np.inf)
        upper = np.full(c.size, np.inf)
        if bounds is not None:
            pairs = list(bounds)
            if len(pairs) != c.size:
                raise ValueError(f"{len(pairs)} bound pairs for {c.size} variables")
            for j, (lo, hi) in enumerate(pairs):
                lower[j] = -np.inf if lo is None else float(lo)
                upper[j] = np.inf if hi is None else float(hi)
                if not lower[j] < np.inf:
                    raise ValueError(f"x{j}: lower bound {lower[j]} is not below +inf")
                if not upper[j] > -np.inf:
                    raise ValueError(f"x{j}: upper bound {upper[j]} is not above -inf")
            if np.any(lower > upper):
                raise ValueError("empty variable bound interval")
        for name, arr in (("objective", c), ("constraint matrix", A), ("right-hand side", b)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        self.objective = c
        self.lhs = A
        self.rhs = b
        self.lower = lower
        self.upper = upper

    @property
    def n_variables(self) -> int:
        return self.objective.size

    @property
    def n_constraints(self) -> int:
        return self.rhs.size


@dataclass
class LpSolution:
    status: LpStatus
    values: np.ndarray | None
    objective_value: float
    duals: np.ndarray | None = None
    reduced_costs: np.ndarray | None = None
    iterations: int = 0
    infeasibility: float | None = None


_AT_LOWER, _AT_UPPER, _FREE, _BASIC = 0, 1, 2, 3


def _resting_values(status: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Values of nonbasic variables: at the bound they rest on, free ones at zero."""
    return np.where(status == _AT_LOWER, lower, np.where(status == _AT_UPPER, upper, 0.0))


class _Simplex:
    """Mutable solver state: condensed tableau plus variable bookkeeping."""

    def __init__(self, problem: LpProblem, cfg: SimplexConfig):
        A = problem.lhs
        self.A = A
        self.b = problem.rhs
        self.M, self.n = A.shape
        self.LO = np.concatenate([problem.lower, np.zeros(self.M)])
        self.HI = np.concatenate([problem.upper, np.full(self.M, np.inf)])
        status = np.empty(self.n + self.M, dtype=np.int8)
        for j in range(self.n):
            if self.LO[j] > -np.inf:
                status[j] = _AT_LOWER
            elif self.HI[j] < np.inf:
                status[j] = _AT_UPPER
            else:
                status[j] = _FREE
        status[self.n:] = _BASIC
        self.status = status
        self.basis = np.arange(self.n, self.n + self.M)
        self.nonbasic = np.arange(self.n)
        self.T = A.astype(float, copy=True)
        self.beta = problem.rhs.astype(float, copy=True)
        self.cfg = cfg
        self.iters = 0
        self.max_iter = cfg.max_iterations if cfg.max_iterations is not None else 50 * (self.M + self.n) + 200
        self.bland_at = cfg.bland_after if cfg.bland_after is not None else 5 * (self.M + self.n)

    def nb_values(self) -> np.ndarray:
        nb = self.nonbasic
        return _resting_values(self.status[nb], self.LO[nb], self.HI[nb])

    def point(self) -> tuple[np.ndarray, np.ndarray]:
        xn = self.nb_values()
        return xn, self.beta - self.T @ xn

    def value_of(self, var: int, xb: np.ndarray) -> float:
        if self.status[var] == _BASIC:
            row = int(np.nonzero(self.basis == var)[0][0])
            return float(xb[row])
        if self.status[var] == _AT_LOWER:
            return float(self.LO[var])
        if self.status[var] == _AT_UPPER:
            return float(self.HI[var])
        return 0.0

    def _pivot(self, row: int, col: int, leaves_to_lower: bool) -> None:
        piv = self.T[row, col]
        colq = self.T[:, col].copy()
        self.T[:, col] = 0.0
        self.T[row, col] = 1.0
        inv = 1.0 / piv
        self.T[row] *= inv
        self.beta[row] *= inv
        colq[row] = 0.0
        self.T -= np.outer(colq, self.T[row])
        self.beta -= colq * self.beta[row]
        leaving = self.basis[row]
        entering = self.nonbasic[col]
        self.basis[row] = entering
        self.nonbasic[col] = leaving
        self.status[entering] = _BASIC
        self.status[leaving] = _AT_LOWER if leaves_to_lower else _AT_UPPER

    def run_phase(self, cost: np.ndarray, watch: int | None = None) -> str:
        """Iterate until ``cost`` is optimal; returns 'optimal' or 'unbounded'.

        Pricing: greatest actual improvement across the (few) eligible
        columns, with exact per-column ratio tests; after the anti-cycling
        threshold, Bland's smallest-index rule. Both rules share one
        eligibility mask and one plain ratio test. ``watch`` enables the
        phase-one early exit: stop as soon as that variable's value is within
        feasibility tolerance of zero.
        """
        cfg = self.cfg
        tol = cfg.feasibility_tol
        while True:
            if self.iters > self.max_iter:
                raise SolverFailure(f"simplex iteration limit ({self.max_iter}) exceeded")
            nb = self.nonbasic
            st = self.status[nb]
            lon = self.LO[nb]
            hin = self.HI[nb]
            xb = self.beta - self.T @ _resting_values(st, lon, hin)
            if watch is not None and self.value_of(watch, xb) <= tol:
                return "optimal"
            d = cost[nb] - self.T.T @ cost[self.basis]
            # cost decrease per unit step in the direction(s) each column may move
            rate = np.where(st == _AT_LOWER, -d, np.where(st == _AT_UPPER, d, np.abs(d)))
            idx = np.flatnonzero((rate > tol) & (lon != hin))
            if idx.size == 0:
                return "optimal"
            bland = self.iters >= self.bland_at
            if bland:
                idx = idx[[np.argmin(nb[idx])]]
            # an eligible column always moves against the sign of its reduced cost
            dirs = np.where(d[idx] < 0.0, 1.0, -1.0)
            w_all = self.T[:, idx] * dirs
            lob = self.LO[self.basis]
            hib = self.HI[self.basis]
            xbc = xb[:, None]
            pos = w_all > cfg.pivot_tol
            neg = w_all < -cfg.pivot_tol
            # Validated bounds keep NaN and -inf out of both ratio tests: a
            # basic variable's lower end is below +inf and its upper end above
            # -inf, so an unbounded side divides out to +inf.
            plain = np.full(w_all.shape, np.inf)
            np.divide(xbc - lob[:, None], w_all, out=plain, where=pos)
            np.divide(xbc - hib[:, None], w_all, out=plain, where=neg)
            np.maximum(plain, 0.0, out=plain)
            own_all = hin[idx] - lon[idx]
            if bland:
                k = 0
                t_basic = plain[:, 0].min(initial=np.inf)
            else:
                # Harris two-pass test, vectorized per candidate column: the
                # bound-relaxed limit first, then the largest admissible pivot
                # among rows whose plain ratio fits under it.
                relaxed = np.full(w_all.shape, np.inf)
                np.divide(xbc - lob[:, None] + tol, w_all, out=relaxed, where=pos)
                np.divide(xbc - hib[:, None] - tol, w_all, out=relaxed, where=neg)
                np.maximum(relaxed, 0.0, out=relaxed)
                if self.M:
                    t_max = relaxed.min(axis=0)
                    admissible = (pos | neg) & (plain <= t_max)
                    pivot_size = np.where(admissible, np.abs(w_all), -1.0)
                    row_all = pivot_size.argmax(axis=0)
                    cols = np.arange(idx.size)
                    blocked = pivot_size[row_all, cols] > 0.0
                    t_all = np.where(blocked, plain[row_all, cols], np.inf)
                else:
                    row_all = np.zeros(idx.size, dtype=int)
                    blocked = np.zeros(idx.size, dtype=bool)
                    t_all = np.full(idx.size, np.inf)
                step = np.minimum(t_all, own_all)
                gain = np.where(np.isfinite(step), np.abs(d[idx]) * step, np.inf)
                tied = np.flatnonzero(gain == gain.max())
                if tied.size > 1:
                    dmag = np.abs(d[idx[tied]])
                    tied = tied[dmag == dmag.max()]
                if tied.size > 1:
                    tied = tied[[np.argmin(nb[idx[tied]])]]
                k = int(tied[0])
                t_basic = float(t_all[k])
                chosen_row = int(row_all[k]) if blocked[k] else None
            col = int(idx[k])
            var = int(nb[col])
            direction = float(dirs[k])
            own = float(own_all[k])
            self.iters += 1
            if own <= t_basic:
                if np.isinf(own):
                    tq = self.T[:, col]
                    near = (np.abs(tq) > 0.0) & (np.abs(tq) <= cfg.pivot_tol)
                    blockable = near & (np.isfinite(lob) | np.isfinite(hib))
                    if np.any(blockable):
                        raise SolverFailure(
                            "pivot below tolerance with no admissible alternative"
                        )
                    return "unbounded"
                self.status[var] = _AT_UPPER if self.status[var] == _AT_LOWER else _AT_LOWER
                continue
            if bland:
                rows = np.flatnonzero(plain[:, 0] <= t_basic + tol)
                row = int(rows[np.argmin(self.basis[rows])])
            else:
                row = chosen_row
            self._pivot(row, col, leaves_to_lower=direction * self.T[row, col] > 0.0)

    def assemble(self) -> np.ndarray:
        xn, xb = self.point()
        x = np.zeros(self.LO.size)
        x[self.nonbasic] = xn
        x[self.basis] = xb
        return x[: self.n]

    def crash(self, low_gap: np.ndarray) -> bool:
        """Make the starting slack basis feasible with one pivot.

        Every basic variable is still a slack in [0, inf) and the tableau is
        the constraint matrix. The entering column must rest at a finite lower
        bound with no upper bound, and raising it must lift every negative
        slack and lower no other. It enters at the row that needs the largest
        step, which leaves at zero while every other slack ends nonnegative.
        Of several such columns the smallest variable index wins. Returns
        False, leaving the state untouched, when no column qualifies.
        """
        cfg = self.cfg
        nb = self.nonbasic
        below = low_gap > cfg.feasibility_tol
        # raising a nonbasic variable by t moves the basic values by -T t
        ok = (
            (self.status[nb] == _AT_LOWER)
            & (self.HI[nb] == np.inf)
            & np.all(np.where(below[:, None], self.T < -cfg.pivot_tol, self.T <= 0.0), axis=0)
        )
        if not np.any(ok):
            return False
        col = int(np.flatnonzero(ok)[0])
        out = np.flatnonzero(below)
        need = low_gap[out] / -self.T[out, col]
        self._pivot(int(out[np.argmax(need)]), col, leaves_to_lower=True)
        return True

    def ensure_feasible(
        self, cost: np.ndarray, from_slacks: bool
    ) -> tuple[str, np.ndarray, float]:
        """Restore basic feasibility from the current basis.

        From the starting slack basis (``from_slacks``), tries the one-pivot
        crash first. Otherwise, or when no column qualifies, appends a fresh
        artificial variable covering every out-of-bounds basic row, drives it
        to zero (phase one), and retires it. Returns the verdict ('feasible'
        or 'infeasible'), the cost vector extended for any new variable, and
        the residual infeasibility.
        """
        cfg = self.cfg
        low_gap, high_gap = self.bound_gaps()
        worst = np.maximum(low_gap, high_gap)
        if worst.max(initial=0.0) <= cfg.feasibility_tol:
            return "feasible", cost, 0.0
        if from_slacks and self.crash(low_gap):
            return "feasible", cost, 0.0
        art = self.LO.size
        self.LO = np.append(self.LO, 0.0)
        self.HI = np.append(self.HI, np.inf)
        self.status = np.append(self.status, np.int8(_AT_LOWER))
        column = np.zeros(self.M)
        column[low_gap > cfg.feasibility_tol] = -1.0
        column[high_gap > cfg.feasibility_tol] = 1.0
        self.T = np.hstack([self.T, column[:, None]])
        self.nonbasic = np.append(self.nonbasic, art)
        cost = np.append(cost, 0.0)
        row = int(np.argmax(worst))
        self._pivot(row, self.nonbasic.size - 1, leaves_to_lower=low_gap[row] >= high_gap[row])
        phase_one = np.zeros(self.LO.size)
        phase_one[art] = 1.0
        outcome = self.run_phase(phase_one, watch=art)
        if outcome != "optimal":
            raise SolverFailure("phase one lost boundedness; numerical breakdown")
        _, xb = self.point()
        art_value = self.value_of(art, xb)
        if art_value > cfg.feasibility_tol:
            return "infeasible", cost, art_value
        if self.status[art] != _BASIC:
            slot = int(np.nonzero(self.nonbasic == art)[0][0])
            self.T = np.delete(self.T, slot, axis=1)
            self.nonbasic = np.delete(self.nonbasic, slot)
        else:
            self.LO[art] = 0.0
            self.HI[art] = 0.0
        return "feasible", cost, art_value

    def bound_gaps(self) -> tuple[np.ndarray, np.ndarray]:
        """How far each basic variable lies below its lower and above its upper bound."""
        _, xb = self.point()
        return self.LO[self.basis] - xb, xb - self.HI[self.basis]

    def basic_violation(self) -> float:
        low_gap, high_gap = self.bound_gaps()
        return float(np.maximum(low_gap, high_gap).max(initial=0.0))

    def refactorize(self) -> bool:
        """Rebuild the tableau from the original data: the one exact rebuild.

        The basis is mostly slacks, so reinversion reduces to one small solve
        over the tight rows against the basic structural columns. Returns
        False (leaving the tableau untouched) when the current basis does not
        admit it (retired artificial still basic, or a singular active block).
        """
        if np.any(self.basis >= self.n + self.M) or np.any(self.nonbasic >= self.n + self.M):
            return False
        struct_pos = np.flatnonzero(self.basis < self.n)
        slack_pos = np.flatnonzero(self.basis >= self.n)
        struct_vars = self.basis[struct_pos]
        slack_rows = self.basis[slack_pos] - self.n
        tight = np.ones(self.M, dtype=bool)
        tight[slack_rows] = False
        tight_rows = np.flatnonzero(tight)
        if tight_rows.size != struct_vars.size:
            return False
        nn = self.nonbasic.size
        n_cols = np.zeros((self.M, nn))
        for slot, var in enumerate(self.nonbasic):
            if var < self.n:
                n_cols[:, slot] = self.A[:, var]
            else:
                n_cols[var - self.n, slot] = 1.0
        if struct_vars.size:
            rhs = np.column_stack([n_cols[tight_rows], self.b[tight_rows]])
            try:
                xs = np.linalg.solve(self.A[np.ix_(tight_rows, struct_vars)], rhs)
            except np.linalg.LinAlgError:
                return False
            if not np.all(np.isfinite(xs)):
                return False
        else:
            xs = np.zeros((0, nn + 1))
        xk = np.column_stack([n_cols[slack_rows], self.b[slack_rows]])
        if struct_vars.size:
            xk -= self.A[np.ix_(slack_rows, struct_vars)] @ xs
        t_new = np.empty((self.M, nn))
        beta_new = np.empty(self.M)
        t_new[struct_pos] = xs[:, :nn]
        beta_new[struct_pos] = xs[:, nn]
        t_new[slack_pos] = xk[:, :nn]
        beta_new[slack_pos] = xk[:, nn]
        self.T = t_new
        self.beta = beta_new
        return True


def _max_violation(problem: LpProblem, x: np.ndarray) -> float:
    worst = 0.0
    if problem.n_constraints:
        worst = float(np.max(problem.lhs @ x - problem.rhs, initial=0.0))
    worst = max(worst, float(np.max(problem.lower - x, initial=0.0)))
    worst = max(worst, float(np.max(x - problem.upper, initial=0.0)))
    return worst


# Above this row count, tall problems are solved by activating rows on demand:
# solve a strided subset, append every violated row, re-solve until the subset
# optimum is feasible for the whole system (then it is optimal for it too).
_ACTIVATION_THRESHOLD = 1500
_ACTIVATION_SEED_ROWS = 384


def _subproblem(problem: LpProblem, rows: np.ndarray) -> LpProblem:
    sub = LpProblem.__new__(LpProblem)
    sub.objective = problem.objective
    sub.lhs = problem.lhs[rows]
    sub.rhs = problem.rhs[rows]
    sub.lower = problem.lower
    sub.upper = problem.upper
    return sub


def solve(problem: LpProblem, config: SimplexConfig | None = None) -> LpSolution:
    """Solve the LP; deterministic, with explicit failure on numerical breakdown."""
    cfg = config if config is not None else SimplexConfig()
    n_rows = problem.n_constraints
    if n_rows <= _ACTIVATION_THRESHOLD:
        return _solve_dense(problem, cfg)

    stride = max(1, n_rows // _ACTIVATION_SEED_ROWS)
    active = np.arange(0, n_rows, stride)
    iterations = 0
    for _ in range(64):
        sol = _solve_dense(_subproblem(problem, active), cfg)
        iterations += sol.iterations
        sol.iterations = iterations
        if sol.status is LpStatus.INFEASIBLE:
            # a row subset is a relaxation, so the full problem is infeasible too
            return sol
        if sol.status is LpStatus.UNBOUNDED:
            break
        violation = problem.lhs @ sol.values - problem.rhs
        bad = np.flatnonzero(violation > cfg.feasibility_tol)
        if bad.size == 0:
            duals = np.zeros(n_rows)
            duals[active] = sol.duals
            sol.duals = duals
            return sol
        active = np.union1d(active, bad)
    full = _solve_dense(problem, cfg)
    full.iterations += iterations
    return full


def _solve_dense(problem: LpProblem, cfg: SimplexConfig) -> LpSolution:
    sx = _Simplex(problem, cfg)
    M, n = sx.M, sx.n
    cost = np.concatenate([problem.objective, np.zeros(M)])

    # The relaxed (Harris) ratio test lets non-pivot rows drift out of bounds
    # by up to the feasibility tolerance per pivot. Each round optimizes and
    # rebuilds the tableau; a rebuilt basis still out of bounds is repaired
    # by the next round's artificial. The crash runs only from the slack
    # basis, whose tableau is still the problem's own data: on a drifted basis
    # the rows to repair can offer only tiny entries (6.5e-8 on a (4,4)
    # probe), and pivoting on one broke the final feasibility verification.
    outcome = None
    for repair in range(6):
        verdict, cost, residual = sx.ensure_feasible(cost, from_slacks=repair == 0)
        if verdict == "infeasible":
            return LpSolution(
                status=LpStatus.INFEASIBLE,
                values=None,
                objective_value=float("nan"),
                iterations=sx.iters,
                infeasibility=residual,
            )
        outcome = sx.run_phase(cost)
        if outcome == "unbounded":
            break
        # Refactorize even when the tableau reads feasible: its basic values
        # can sit within tolerance while the true residuals of x exceed the
        # 10x verification bound below (refactorizing only after
        # basic_violation() read dirty left 1.29e-7 on the inputs of
        # acceptance criterion 3).
        sx.refactorize()
        if sx.basic_violation() <= cfg.feasibility_tol:
            break
    else:
        raise SolverFailure("could not restore basic feasibility after repair rounds")

    x = sx.assemble()
    if outcome == "unbounded":
        return LpSolution(
            status=LpStatus.UNBOUNDED,
            values=x,
            objective_value=float("-inf"),
            iterations=sx.iters,
        )

    violation = _max_violation(problem, x)
    if violation > 10 * cfg.feasibility_tol:
        raise SolverFailure(
            f"optimal basis failed feasibility verification (violation {violation:.3e})"
        )
    duals = np.zeros(M)
    reduced = np.zeros(n)
    d_nb = cost[sx.nonbasic] - sx.T.T @ cost[sx.basis]
    for slot, var in enumerate(sx.nonbasic):
        if var < n:
            reduced[var] = d_nb[slot]
        elif var < n + M:
            duals[var - n] = d_nb[slot]
    return LpSolution(
        status=LpStatus.OPTIMAL,
        values=x,
        objective_value=float(problem.objective @ x),
        duals=duals,
        reduced_costs=reduced,
        iterations=sx.iters,
    )
