import numpy as np
import pytest
from scipy.optimize import linprog

from ratmin import lp_solver
from ratmin.basis import BasisSpec, Monomial
from ratmin.grid import chebyshev_nodes
from ratmin.lp_solver import (
    LpProblem,
    LpStatus,
    SimplexConfig,
    SolverFailure,
    solve,
)
from ratmin.minimax import ApproximationProblem, build_feasibility_lp, initial_upper_bound


class TestSpecExamples:
    def test_single_active_constraint(self):
        # minimize x subject to -x <= -1, x free
        sol = solve(LpProblem([1.0], [[-1.0]], [-1.0]))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.values[0] == pytest.approx(1.0, abs=1e-12)
        assert sol.objective_value == pytest.approx(1.0, abs=1e-12)

    def test_box_corner(self):
        sol = solve(
            LpProblem(
                [-1.0, -1.0],
                [[1.0, 0.0], [0.0, 1.0]],
                [1.0, 1.0],
                bounds=[(0, None), (0, None)],
            )
        )
        assert sol.status is LpStatus.OPTIMAL
        np.testing.assert_allclose(sol.values, [1.0, 1.0], atol=1e-12)
        assert sol.objective_value == pytest.approx(-2.0, abs=1e-12)

    def test_empty_polytope(self):
        sol = solve(LpProblem([0.0], [[1.0], [-1.0]], [0.0, -1.0]))
        assert sol.status is LpStatus.INFEASIBLE
        assert sol.infeasibility > 1e-9


class TestConstruction:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            LpProblem([1.0, 2.0], [[1.0]], [1.0])

    def test_rhs_mismatch(self):
        with pytest.raises(ValueError):
            LpProblem([1.0], [[1.0]], [1.0, 2.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            LpProblem([np.nan], [[1.0]], [1.0])

    def test_empty_bound_interval(self):
        with pytest.raises(ValueError):
            LpProblem([1.0], [[1.0]], [1.0], bounds=[(2.0, 1.0)])

    def test_lower_bound_at_plus_infinity_rejected(self):
        with pytest.raises(ValueError, match="x0: lower bound"):
            LpProblem([1.0], [[1.0]], [1.0], bounds=[(np.inf, None)])

    def test_upper_bound_at_minus_infinity_rejected(self):
        with pytest.raises(ValueError, match="x1: upper bound"):
            LpProblem([1.0, 1.0], [[1.0, 1.0]], [1.0], bounds=[(0.0, None), (None, -np.inf)])


class TestStatuses:
    def test_unbounded_free_variable(self):
        sol = solve(LpProblem([-1.0], np.zeros((0, 1)), []))
        assert sol.status is LpStatus.UNBOUNDED
        assert sol.objective_value == -np.inf

    def test_unbounded_with_constraint(self):
        sol = solve(LpProblem([-1.0], [[-1.0]], [0.0], bounds=[(0, None)]))
        assert sol.status is LpStatus.UNBOUNDED

    def test_bounded_by_upper(self):
        sol = solve(LpProblem([-1.0], np.zeros((0, 1)), [], bounds=[(0, 5)]))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.values[0] == pytest.approx(5.0)

    def test_zero_objective_returns_feasible_point(self):
        sol = solve(LpProblem([0.0, 0.0], [[1.0, 1.0]], [1.0], bounds=[(0, None), (0, None)]))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.values.sum() <= 1.0 + 1e-9


def _random_problem(rng, tall=False):
    n = int(rng.integers(1, 8))
    m = int(rng.integers(0, 15)) if not tall else int(rng.integers(1600, 2400))
    lhs = rng.normal(size=(m, n)).round(3)
    rhs = rng.normal(size=m).round(3)
    cost = rng.normal(size=n).round(3)
    bounds = []
    for _ in range(n):
        kind = rng.integers(0, 4)
        lo = None if kind in (0, 2) else round(float(rng.normal(-1, 1)), 3)
        if kind in (0, 1):
            hi = None
        else:
            hi = round(float(rng.normal(2, 1)), 3) if lo is None else lo + 0.1 + abs(round(float(rng.normal(1, 1)), 3))
        bounds.append((lo, hi))
    return LpProblem(cost, lhs, rhs, bounds=bounds)


def _scipy_status(problem, **options):
    # presolve reports some unbounded LPs as infeasible (seeds 346, 403, 522
    # and 558 below each draw one), so it is off unless a caller overrides it
    bounds = [
        (lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None)
        for lo, hi in zip(problem.lower, problem.upper)
    ]
    m = problem.n_constraints
    return linprog(
        problem.objective,
        A_ub=problem.lhs if m else None,
        b_ub=problem.rhs if m else None,
        bounds=bounds,
        method="highs",
        options={"presolve": False, **options},
    )


_STATUS = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}


def _record_crashes(monkeypatch):
    """Collect (succeeded, basic violation after) for every crash attempt."""
    outcomes = []
    crash = lp_solver._Simplex.crash

    def recording(self, *args):
        succeeded = crash(self, *args)
        outcomes.append((succeeded, self.basic_violation()))
        return succeeded

    monkeypatch.setattr(lp_solver._Simplex, "crash", recording)
    return outcomes


_PROBE_TARGETS = (
    lambda x: np.sqrt(np.abs(x - 0.25)),
    np.exp,
    np.abs,
    lambda x: np.sin(3.0 * x) / (1.2 + x),
)


@pytest.mark.parametrize("n", range(5))
def test_probe_lps_agree_with_reference_solver(n, monkeypatch):
    # Bisection-probe LPs at every (n, m) up to (4, 4), both signs, levels
    # from twice the polynomial deviation down to the feasibility tolerance.
    crashes = _record_crashes(monkeypatch)
    tol = SimplexConfig().feasibility_tol
    rng = np.random.default_rng(100 + n)
    grid = chebyshev_nodes(-1.0, 1.0, 120)
    for m in range(5):
        values = _PROBE_TARGETS[int(rng.integers(len(_PROBE_TARGETS)))](grid.nodes)
        problem = ApproximationProblem(grid, values, BasisSpec(Monomial(), Monomial(), n, m))
        upper = initial_upper_bound(problem)
        delta = 1e-6 * float(np.max(np.abs(values)))
        for sign in (1.0, -1.0):
            for level in (2.0 * upper, upper, 0.3 * upper, 1e-2 * upper, 1e-8, 2.0 * tol, tol):
                lp = build_feasibility_lp(problem, level, delta, sign).lp
                crashes.clear()
                ours = solve(lp)
                ref = _scipy_status(
                    lp, primal_feasibility_tolerance=1e-10, dual_feasibility_tolerance=1e-10
                )
                assert ours.status is _STATUS[ref.status]
                # every variable starts at zero, so the slacks start at rhs;
                # with some negative, the violation variable is the crash
                # column for the +1 sign and one pivot on it leaves the basis
                # feasible, while the -1 sign's floor rows leave no such column
                expected = [] if np.all(lp.rhs >= -tol) else [sign == 1.0]
                assert [ok for ok, _ in crashes[:1]] == expected
                assert all(after <= tol for ok, after in crashes if ok)
                if ours.status is LpStatus.OPTIMAL:
                    assert np.max(lp.lhs @ ours.values - lp.rhs) <= tol
                    # HiGHS applies its tolerances to a rescaled copy, so its
                    # optimum is good to about tol times the size of its point
                    # (the -1 sign's coefficients run into the thousands)
                    scale = max(1.0, float(np.max(np.abs(ref.x))))
                    assert abs(ours.objective_value - ref.fun) <= tol * scale


def test_crash_declines_a_column_that_would_push_a_bounded_row_out(monkeypatch):
    # min v  s.t.  x + v >= 1,  v <= 0.2,  x <= 0.9;  x free, v >= 0.
    # Lifting the first row with v alone takes the slack of v <= 0.2 to -0.8,
    # so the appended artificial must do phase one.
    crashes = _record_crashes(monkeypatch)
    problem = LpProblem(
        [0.0, 1.0],
        [[-1.0, -1.0], [0.0, 1.0], [1.0, 0.0]],
        [-1.0, 0.2, 0.9],
        bounds=[(None, None), (0.0, None)],
    )
    ours = solve(problem)
    ref = _scipy_status(problem)
    assert [ok for ok, _ in crashes] == [False]
    assert ours.status is LpStatus.OPTIMAL
    assert ours.objective_value == pytest.approx(ref.fun, abs=1e-9)
    assert np.max(problem.lhs @ ours.values - problem.rhs) <= 1e-9


@pytest.mark.parametrize("seed", [*range(8), 346, 403, 522, 558])
def test_agrees_with_reference_solver(seed):
    rng = np.random.default_rng(seed)
    for _ in range(12):
        problem = _random_problem(rng)
        ours = solve(problem)
        ref = _scipy_status(problem)
        assert ours.status is _STATUS[ref.status]
        if ours.status is LpStatus.OPTIMAL:
            assert ours.objective_value == pytest.approx(ref.fun, abs=1e-7, rel=1e-7)
            if problem.n_constraints:
                assert np.max(problem.lhs @ ours.values - problem.rhs) <= 1e-9


@pytest.mark.parametrize("seed", range(4))
def test_bland_pricing_agrees_with_reference_solver(seed):
    # bland_after=0 prices every pivot by Bland's smallest-index rule
    rng = np.random.default_rng(50 + seed)
    for _ in range(12):
        problem = _random_problem(rng)
        ours = solve(problem, SimplexConfig(bland_after=0))
        ref = _scipy_status(problem)
        assert ours.status is _STATUS[ref.status]
        if ours.status is LpStatus.OPTIMAL:
            assert ours.objective_value == pytest.approx(ref.fun, abs=1e-7, rel=1e-7)


def test_tall_problem_matches_reference():
    rng = np.random.default_rng(42)
    for _ in range(3):
        problem = _random_problem(rng, tall=True)
        ours = solve(problem)
        ref = _scipy_status(problem)
        assert ours.status is _STATUS[ref.status]
        if ours.status is LpStatus.OPTIMAL:
            assert ours.objective_value == pytest.approx(ref.fun, abs=1e-7, rel=1e-7)
            assert np.max(problem.lhs @ ours.values - problem.rhs) <= 1e-9


def test_duality_gap_small_on_random_instances():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 25:
        problem = _random_problem(rng)
        sol = solve(problem)
        if sol.status is not LpStatus.OPTIMAL:
            continue
        checked += 1
        y = sol.duals
        d = sol.reduced_costs
        assert np.all(y >= -1e-9)
        # complementary slackness: positive multipliers only on tight rows
        if problem.n_constraints:
            slack = problem.rhs - problem.lhs @ sol.values
            assert np.max(np.abs(y * slack)) <= 1e-6
        # dual objective: -b.y plus bound contributions at the attained bounds
        dual_obj = -float(problem.rhs @ y) if problem.n_constraints else 0.0
        for j in range(problem.n_variables):
            if d[j] > 0 and np.isfinite(problem.lower[j]):
                dual_obj += problem.lower[j] * d[j]
            elif d[j] < 0 and np.isfinite(problem.upper[j]):
                dual_obj += problem.upper[j] * d[j]
        assert abs(sol.objective_value - dual_obj) <= 1e-7 * max(1.0, abs(sol.objective_value))


def test_never_infeasible_with_known_feasible_point():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 20))
        x0 = rng.normal(size=n)
        lhs = rng.normal(size=(m, n))
        rhs = lhs @ x0 + rng.uniform(0.0, 2.0, size=m)
        bounds = [(x - rng.uniform(0, 3), x + rng.uniform(0, 3)) for x in x0]
        problem = LpProblem(rng.normal(size=n), lhs, rhs, bounds=bounds)
        sol = solve(problem)
        assert sol.status is not LpStatus.INFEASIBLE


def test_bit_identical_reruns():
    rng = np.random.default_rng(3)
    problem = _random_problem(rng)
    first = solve(problem)
    second = solve(problem)
    assert first.status is second.status
    if first.status is LpStatus.OPTIMAL:
        assert np.array_equal(first.values, second.values)
        assert first.objective_value == second.objective_value
        assert np.array_equal(first.duals, second.duals)


def test_tiny_pivot_raises_instead_of_wrong_answer():
    # min -x s.t. 1e-15*x <= 1: the only blocking entry is below pivot
    # tolerance, so claiming unbounded would be wrong
    problem = LpProblem([-1.0], [[1e-15]], [1.0], bounds=[(0, None)])
    with pytest.raises(SolverFailure):
        solve(problem)


def test_iteration_limit_raises():
    problem = LpProblem(
        [-1.0, -1.0],
        [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
        [1.0, 1.0, 1.5],
        bounds=[(0, None), (0, None)],
    )
    with pytest.raises(SolverFailure, match="iteration limit"):
        solve(problem, SimplexConfig(max_iterations=1))
