"""Amplitude-modulated sine fits: ratio(t) * sin(omega*t + tau).

With omega and tau fixed the problem is an ordinary ratio fit in a
sine-modulated numerator family, so the overall search is a brute-force
sweep over a finite (omega, tau) grid with one bisection solve per probe.
omega counts radians per unit of normalized time (the fit interval mapped to
[-1, 1]), which keeps the sweep grid meaningful regardless of sampling units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .basis import BasisSpec, SineModulatedMonomial
from .minimax import (
    ApproximationProblem,
    BisectionConfig,
    RationalApproximant,
    solve_minimax,
)

__all__ = ["SineFitResult", "SineSearchSpace", "fit_sine_model", "select_best"]

_DEFAULT_TAUS = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4)


@dataclass(frozen=True)
class SineSearchSpace:
    """Finite sweep grids for the frequency and the phase shift."""

    omegas: tuple[float, ...] = tuple(float(w) for w in range(1, 16))
    taus: tuple[float, ...] = _DEFAULT_TAUS

    def __post_init__(self):
        for name, values in (("omegas", self.omegas), ("taus", self.taus)):
            if len(values) == 0:
                raise ValueError(f"{name} must be nonempty")
            if any(b <= a for a, b in zip(values, values[1:])):
                raise ValueError(f"{name} must be strictly increasing")

    def probes(self) -> list[tuple[float, float]]:
        return [(w, t) for w in self.omegas for t in self.taus]


@dataclass
class SineFitResult:
    """The winning probe plus the full deviation table over the sweep."""

    best: RationalApproximant
    omega: float
    tau: float
    z_grid: dict[tuple[float, float], float]

    def to_dict(self) -> dict:
        payload = self.best.to_dict()
        payload["omega"] = float(self.omega)
        payload["tau"] = float(self.tau)
        payload["z_grid"] = [
            {"omega": w, "tau": t, "z": z} for (w, t), z in sorted(self.z_grid.items())
        ]
        return payload


def select_best(z_grid: dict[tuple[float, float], float], epsilon: float) -> tuple[float, float]:
    """Canonical winner: deviations within epsilon of the minimum tie-break
    to the smallest omega, then the smallest tau, independent of sweep order.
    """
    z_min = min(z_grid.values())
    return min(key for key, z in z_grid.items() if z <= z_min + epsilon)


def fit_sine_model(
    problem: ApproximationProblem,
    space: SineSearchSpace | None = None,
    config: BisectionConfig | None = None,
) -> SineFitResult:
    """Sweep (omega, tau), running one inner bisection solve per pair.

    Probes run one after another in sweep order; the winner does not depend
    on that order thanks to the canonical tie-break.
    """
    space = space if space is not None else SineSearchSpace()
    config = config if config is not None else BisectionConfig()
    base = problem.basis

    def run_probe(pair: tuple[float, float]) -> RationalApproximant:
        omega, tau = pair
        spec = BasisSpec(SineModulatedMonomial(omega, tau), base.denominator, base.n, base.m)
        inner = ApproximationProblem(problem.grid, problem.values, spec)
        return solve_minimax(inner, config)

    results = {pair: run_probe(pair) for pair in space.probes()}
    z_grid = {pair: fit.z for pair, fit in results.items()}
    omega, tau = select_best(z_grid, config.epsilon)
    return SineFitResult(best=results[(omega, tau)], omega=omega, tau=tau, z_grid=z_grid)
