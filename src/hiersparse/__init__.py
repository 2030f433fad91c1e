"""Multiscale sparsification of noisy datasets.

Fits kernel regularization networks on a ladder of shrinking length scales,
scores each scale by generalized cross-validation, and keeps the cheapest
one.  The result is a sparse representation (a subset of the data) plus a
sparse model (coefficients on that subset) that serves mean predictions on
its own and t-confidence intervals with the help of the training data.
"""

__version__ = "0.1.0"

from .errors import (
    CSVParseError,
    DegenerateDofError,
    DegenerateGCVError,
    DegenerateGeometryError,
    FitError,
    IllConditionedScaleError,
)
from .hierarchy import ScaleRecord, SparseModel, compression_ratio, fit
from .kernel import (
    Dataset,
    diameter_T,
    gram,
    kernel_matrix,
    length_scale,
    numerical_rank,
)
from .network import (
    FittedScale,
    RepresenterOracle,
    gcv,
    influence_matrix,
    influence_traces,
    optimize_gcv,
    optimize_lambda,
    representer,
    solve_weights,
)
from .penalty import (
    PenaltyMatrix,
    PenaltySpec,
    penalty_components,
    penalty_operator,
)
from .predict import (
    PredictionSet,
    confidence_intervals,
    predict_intervals,
    predict_mean,
    predict_std,
    residual_dof,
    sigma2_hat,
)
from .sparsify import (
    ScaleBasis,
    pivoted_qr,
    pivoted_qr_permutation,
    select_basis,
    sketch,
)
from .synth import SynthSpec, eval_true, sample
from .tdist import t_quantile

__all__ = [
    "CSVParseError",
    "Dataset",
    "DegenerateDofError",
    "DegenerateGCVError",
    "DegenerateGeometryError",
    "FitError",
    "FittedScale",
    "IllConditionedScaleError",
    "PenaltyMatrix",
    "PenaltySpec",
    "PredictionSet",
    "RepresenterOracle",
    "ScaleBasis",
    "ScaleRecord",
    "SparseModel",
    "SynthSpec",
    "compression_ratio",
    "confidence_intervals",
    "diameter_T",
    "eval_true",
    "fit",
    "gcv",
    "gram",
    "influence_matrix",
    "influence_traces",
    "kernel_matrix",
    "length_scale",
    "numerical_rank",
    "optimize_gcv",
    "optimize_lambda",
    "penalty_components",
    "penalty_operator",
    "pivoted_qr",
    "pivoted_qr_permutation",
    "predict_intervals",
    "predict_mean",
    "predict_std",
    "representer",
    "residual_dof",
    "sample",
    "select_basis",
    "sigma2_hat",
    "sketch",
    "solve_weights",
    "t_quantile",
]
