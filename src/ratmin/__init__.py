"""Best uniform approximation by ratios of basis-function combinations.

The deviation objective is quasiconvex in the coefficients, so the global
optimum is found by bisection on the deviation level with one linear
feasibility solve per probe. The package adds equioscillation diagnostics
for certifying optimality, an amplitude-modulated sine model, and a pipeline
that turns signal directories into classifier-ready feature tables.
"""

from .basis import (
    BasisSpec,
    ChebyshevT,
    EvaluationError,
    Monomial,
    SineModulatedMonomial,
    eval_denominator_basis,
    eval_numerator_basis,
    eval_ratio,
)
from .equioscillation import EquioscillationReport, analyze
from .grid import Grid, IntervalMap, chebyshev_nodes, uniform_nodes
from .lp_solver import LpProblem, LpSolution, LpStatus, SimplexConfig, SolverFailure, solve
from .minimax import (
    ApproximationError,
    ApproximationProblem,
    BisectionConfig,
    BisectionLimitError,
    FeasibilityInstance,
    InfeasibleProblemError,
    RationalApproximant,
    build_feasibility_lp,
    error_curve,
    initial_upper_bound,
    max_deviation,
    solve_minimax,
)
from .poly_minimax import solve_poly_minimax
from .signal_pipeline import (
    FeatureExtractionError,
    FeatureVector,
    SegmentFormatError,
    SegmentSet,
    SplitSpec,
    extract_features,
    load_segments,
    read_feature_csv,
    read_samples,
    separability_smoke_check,
    split,
    write_feature_csv,
)
from .sine_model import SineFitResult, SineSearchSpace, fit_sine_model, select_best

__version__ = "0.1.0"
