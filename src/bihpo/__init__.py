"""Bilevel hyperparameter optimization with ensemble hypergradients.

The package tunes regularization-style hyperparameters by differentiating
through (or around) an inner gradient-descent solve: iterative reverse-mode
differentiation (full and truncated), implicit differentiation with conjugate
gradient or fixed-point linear solvers, validation-split ensembling of the
resulting hypergradients, and an online variant that keeps per-split shadow
iterates. Closed-form ridge oracles and Monte-Carlo bias-variance diagnostics
quantify estimator quality.
"""

__version__ = "0.1.0"

from .data import (
    DataView,
    Dataset,
    Split,
    SplitPlan,
    carve_holdout,
    corrupt_labels,
    derive_seed,
    enumerate_all_splits,
    full_view,
    gen_linear,
    gen_multiclass,
    make_splits,
    read_libsvm,
    splitmix64,
    subset,
    val_size,
)
from .diagnostics import (
    BiasVarianceReport,
    FpcReport,
    RidgeOracle,
    SweepDesign,
    VarianceCurve,
    bias_variance_sweep,
    ensemble_variance_curve,
    fpc_verify,
    fpc_with_replacement,
    fpc_without_replacement,
)
from .errors import (
    BilevelError,
    ConfigError,
    ContractViolationError,
    InfeasiblePlanError,
    NumericalError,
    ParseError,
    SingularMatrixError,
)
from .hypergrad import (
    HypergradMethod,
    HypergradResult,
    InnerTrajectory,
    aid_hypergrad,
    contraction_params,
    estimate_hypergrad,
    finite_diff_hypergrad,
    inner_solve,
    itd_hypergrad,
    trhg_hypergrad,
)
from .linalg import LinearOperator, cg_solve, fixed_point_solve
from .problems import (
    MODEL_KINDS,
    BilevelProblem,
    DerivativeReport,
    ModelSpec,
    build_problem,
    verify_derivatives,
)
from .strategies import (
    HPOTrace,
    OuterOptimizer,
    SplitEval,
    StepRecord,
    optimizer_step,
    run_ehg,
    run_oehg,
)

__all__ = [
    "__version__",
    "BiasVarianceReport",
    "BilevelError",
    "BilevelProblem",
    "ConfigError",
    "ContractViolationError",
    "DataView",
    "Dataset",
    "DerivativeReport",
    "FpcReport",
    "HPOTrace",
    "HypergradMethod",
    "HypergradResult",
    "InfeasiblePlanError",
    "InnerTrajectory",
    "LinearOperator",
    "MODEL_KINDS",
    "ModelSpec",
    "NumericalError",
    "OuterOptimizer",
    "ParseError",
    "RidgeOracle",
    "SingularMatrixError",
    "Split",
    "SplitEval",
    "SplitPlan",
    "StepRecord",
    "SweepDesign",
    "VarianceCurve",
    "aid_hypergrad",
    "bias_variance_sweep",
    "build_problem",
    "carve_holdout",
    "cg_solve",
    "contraction_params",
    "corrupt_labels",
    "derive_seed",
    "ensemble_variance_curve",
    "enumerate_all_splits",
    "estimate_hypergrad",
    "finite_diff_hypergrad",
    "fixed_point_solve",
    "fpc_verify",
    "fpc_with_replacement",
    "fpc_without_replacement",
    "full_view",
    "gen_linear",
    "gen_multiclass",
    "inner_solve",
    "itd_hypergrad",
    "make_splits",
    "optimizer_step",
    "read_libsvm",
    "run_ehg",
    "run_oehg",
    "splitmix64",
    "subset",
    "trhg_hypergrad",
    "val_size",
    "verify_derivatives",
]
