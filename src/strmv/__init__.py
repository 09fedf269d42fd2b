"""Mean-variance portfolio optimization with sketched, conditioned factors.

The pipeline: center a return panel into the covariance factor, compress its
temporal dimension with a randomized embedding, truncate the noisy spectral
bulk, lift with a ridge, and solve the constrained problem with an
accelerated projected-gradient method that only ever touches the thin
factor.
"""

from .errors import (
    ArgumentError,
    DataFormatError,
    DegenerateSpectrumError,
    DimensionError,
    InfeasibleTargetError,
    NumericError,
    ProjectionFailureError,
    StrmvError,
)
from .metrics import (
    INTERVALS_PER_YEAR,
    PortfolioStats,
    annualize,
    objective_gap,
    relative_spectral_error,
)
from .models import (
    FactorModel,
    build_baseline,
    build_sketch,
    build_str,
    ridge_for_target_kappa,
)
from .oracle import OracleSolution, QPInstance, solve_exact
from .panel import (
    CovarianceFactor,
    ReturnPanel,
    SyntheticSpec,
    center_and_factor,
    generate_synthetic,
    load_panel,
    save_panel,
)
from .projection import (
    FeasibleSet,
    ProjectionDiagnostics,
    project_feasible,
    project_simplex,
)
from .sketch import (
    SketchConfig,
    SketchedFactor,
    apply_sketch,
    recommended_sketch_size,
)
from .solver import (
    CurvatureConstants,
    SolveResult,
    SolverConfig,
    curvature_constants,
    estimate_spectral_norm,
    gradient,
    objective,
    solve,
)
from .spectrum import (
    SpectrumReport,
    ThinSVD,
    cumulative_energy,
    energy_rank,
    select_truncation_level,
    thin_svd,
)

__version__ = "0.1.0"
