import math

import numpy as np
import pytest

from ratmin.basis import BasisSpec, Monomial
from ratmin.grid import uniform_nodes
from ratmin.minimax import ApproximationProblem, BisectionConfig, solve_minimax
from ratmin.sine_model import SineFitResult, SineSearchSpace, fit_sine_model, select_best


def make_problem(values, n=0, m=0):
    grid = uniform_nodes(-1, 1, len(values))
    return ApproximationProblem(grid, np.asarray(values, dtype=float),
                                BasisSpec(Monomial(), Monomial(), n, m))


class TestSearchSpace:
    def test_defaults(self):
        space = SineSearchSpace()
        assert space.omegas == tuple(float(w) for w in range(1, 16))
        assert space.taus == (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4)
        assert len(space.probes()) == 60

    def test_validation(self):
        with pytest.raises(ValueError):
            SineSearchSpace(omegas=())
        with pytest.raises(ValueError):
            SineSearchSpace(taus=(1.0, 0.5))


class TestSelectBest:
    def test_plain_minimum(self):
        grid = {(1.0, 0.0): 0.5, (2.0, 0.0): 0.1, (3.0, 0.0): 0.9}
        assert select_best(grid, 1e-9) == (2.0, 0.0)

    def test_tie_breaks_to_smallest_omega_then_tau(self):
        grid = {
            (5.0, 0.5): 0.1000000001,
            (2.0, 1.0): 0.1,
            (2.0, 0.25): 0.10000000005,
            (7.0, 0.0): 0.3,
        }
        assert select_best(grid, 1e-6) == (2.0, 0.25)


class TestFit:
    def test_zero_signal_wins_lexicographically_smallest_probe(self):
        space = SineSearchSpace(omegas=(1.0, 2.0, 3.0), taus=(0.0, math.pi / 4))
        result = fit_sine_model(make_problem(np.zeros(41)), space, BisectionConfig(epsilon=1e-8))
        assert (result.omega, result.tau) == (1.0, 0.0)
        assert result.best.z <= 1e-8
        assert len(result.z_grid) == 6

    def test_recovers_frequency_five(self):
        s = np.linspace(-1, 1, 101)
        result = fit_sine_model(
            make_problem(np.sin(5 * s)), SineSearchSpace(), BisectionConfig(epsilon=1e-6)
        )
        assert result.omega == 5.0
        assert result.tau == 0.0
        assert result.best.z <= 1e-6
        # the winner is unique: all other probes are far worse
        others = [z for key, z in result.z_grid.items() if key != (5.0, 0.0)]
        assert min(others) > 0.05

    def test_exhaustive_grid_and_exact_minimum(self):
        s = np.linspace(-1, 1, 81)
        space = SineSearchSpace(omegas=(1.0, 2.0, 3.0, 4.0), taus=(0.0, math.pi / 2))
        result = fit_sine_model(
            make_problem(np.sin(3 * s) * (1 + 0.2 * s)), space, BisectionConfig(epsilon=1e-7)
        )
        assert set(result.z_grid) == set(space.probes())
        assert result.best.z == min(result.z_grid.values())

    def test_constant_target_every_probe_poor(self):
        # all probes with a sine zero-crossing on the interval are far from a
        # constant; even the best probe, sin(s + pi/2) = cos(s), stays > 0.25
        values = np.ones(41)
        problem = make_problem(values)
        result = fit_sine_model(problem, SineSearchSpace(), BisectionConfig(epsilon=1e-6))
        assert all(z >= 0.25 for z in result.z_grid.values())
        # while the plain ratio fit is exact
        plain = solve_minimax(problem, BisectionConfig(epsilon=1e-8))
        assert plain.z <= 1e-8

    def test_loop_order_does_not_change_the_result(self):
        s = np.linspace(-1, 1, 81)
        values = np.sin(4 * s) + 0.1 * np.cos(s)
        problem = make_problem(values)
        space = SineSearchSpace(omegas=(2.0, 3.0, 4.0, 5.0), taus=(0.0, math.pi / 4))
        config = BisectionConfig(epsilon=1e-7)
        reference = fit_sine_model(problem, space, config)

        # re-run the probes in reversed order and reduce with the same rule
        fits = {}
        for pair in reversed(space.probes()):
            omega, tau = pair
            from ratmin.basis import SineModulatedMonomial

            spec = BasisSpec(SineModulatedMonomial(omega, tau), Monomial(), 0, 0)
            inner = ApproximationProblem(problem.grid, problem.values, spec)
            fits[pair] = solve_minimax(inner, config)
        z_grid = {pair: fit.z for pair, fit in fits.items()}
        winner = select_best(z_grid, config.epsilon)
        assert winner == (reference.omega, reference.tau)
        assert z_grid == reference.z_grid
        assert np.array_equal(fits[winner].A, reference.best.A)
        assert np.array_equal(fits[winner].B, reference.best.B)
        assert fits[winner].z == reference.best.z

    def test_result_serializes(self):
        result = fit_sine_model(
            make_problem(np.zeros(41)),
            SineSearchSpace(omegas=(1.0, 2.0), taus=(0.0,)),
            BisectionConfig(epsilon=1e-8),
        )
        assert isinstance(result, SineFitResult)
        payload = result.to_dict()
        assert payload["omega"] == 1.0
        assert len(payload["z_grid"]) == 2
