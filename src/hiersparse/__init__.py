"""Multiscale sparsification of noisy datasets.

Fits kernel regularization networks on a ladder of shrinking length scales,
scores each scale by generalized cross-validation, and keeps the cheapest
one.  The result is a sparse representation (a subset of the data) plus a
sparse model (coefficients on that subset) that serves mean predictions on
its own and t-confidence intervals with the help of the training data.
"""

__version__ = "0.1.0"

import importlib

# home module -> the public names it defines.  A name is imported on first
# access (PEP 562), so ``import hiersparse`` loads neither the fit's modules nor
# scipy.  Nothing is cached here: each access reads the home module's attribute,
# so a name replaced there (a test's monkeypatch, a tracer's wrapper) is seen
# through the package too, and restored with it.
_EXPORTS = {
    "errors": ("CSVParseError", "DegenerateDofError", "DegenerateGCVError",
               "DegenerateGeometryError", "FitError", "IllConditionedScaleError"),
    "hierarchy": ("compression_ratio", "fit"),
    "kernel": ("Dataset", "diameter_T", "gram", "kernel_matrix", "length_scale",
               "numerical_rank"),
    "model": ("ScaleRecord", "SparseModel"),
    "network": ("FittedScale", "RepresenterOracle", "gcv", "influence_matrix",
                "influence_traces", "optimize_gcv", "optimize_lambda", "representer",
                "solve_weights"),
    "penalty": ("PenaltyMatrix", "PenaltySpec", "penalty_components", "penalty_operator"),
    "predict": ("PredictionSet", "confidence_intervals", "predict_intervals", "predict_mean",
                "predict_std", "residual_dof", "sigma2_hat"),
    "sparsify": ("ScaleBasis", "pivoted_qr", "pivoted_qr_permutation", "select_basis",
                 "sketch"),
    "synth": ("SynthSpec", "eval_true", "sample"),
    "tdist": ("t_quantile",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
