"""Robust scatter-matrix estimation toolkit.

Fixed-point solvers for Tyler's and Maronna's M-estimators and their
regularized variants, samplers for heavy-tailed and dependent-coordinate
families, weight-concentration experiments, and sparse covariance /
precision pipelines (hard thresholding and CLIME).
"""

from .errors import (
    ConvergenceError,
    CsvFormatError,
    ExistenceError,
    InfeasibleError,
    RobustScatterError,
    UnboundedError,
)
from .estimators import (
    ScatterEstimate,
    SolverConfig,
    UFunction,
    fit,
    huber_u,
    interference_h,
    make_ufunction,
    maronna,
    maronna_regularized,
    rational_u,
    require_existence,
    tyler,
    tyler_regularized,
    tyler_u,
)
from .experiment import (
    ExperimentConfig,
    ExperimentReport,
    eigen_bounds_diag,
    fit_loglog_slope,
    quadratic_form_diagnostics,
    stieltjes_diag,
    weight_deviation_experiment,
    weight_deviations,
)
from .master_equation import MasterEquationResult, solve_master
from .model import (
    Dataset,
    NormReport,
    ScatterMatrix,
    leave_one_out_covariance,
    load_dataset_csv,
    matrix_norms,
    sample_covariance,
    save_matrix_csv,
)
from .samplers import (
    DistributionSpec,
    RadialLaw,
    derive_seed,
    sample,
    spd_sqrt,
    symmetrize,
)
from .sparse import (
    SparseEstimate,
    choose_threshold,
    clime,
    clime_column,
    hard_threshold,
    sparse_cov_estimate,
)

__version__ = "0.1.0"
