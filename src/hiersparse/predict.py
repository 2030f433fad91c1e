"""Prediction from the sparse model: means, standard errors, t-intervals.

Mean prediction needs only the model payload (epsilon_t, X_t, C_t).  Interval
prediction additionally rebuilds the basis on the full training inputs to
estimate the noise variance and the pointwise fit standard error, so it
requires the original dataset.  That noise fit (the inverse L^{-1} of the
Cholesky factor of B^T B + n P, assembled from the band ``penalty_band`` as
the GCV search does, sigma^2 and df_res) does not depend on the queries:
repeated interval calls on one (model, dataset) reuse one factorization and
one inversion, and each batch of queries costs one triangular product.  Only
the most recent fit is kept, keyed on the content of the arrays it reads.

Every prediction is served by one loop: ``kernel_matrix`` on each 1536-row block
of queries (``_BLOCK_ROWS``), written into preallocated outputs, the block's basis
released before the next is built.  A call holds one block's basis, not the whole
m x l query basis: serving memory grows with the model, not with the batch.

Only the interval path imports scipy (through ``network`` and xTRMM), on its
first call: loading a model and serving its mean needs numpy alone.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDofError
from .kernel import Dataset, kernel_matrix, point_table
from .model import SparseModel
from .penalty import penalty_band, weighted_penalty
from .tdist import t_quantile


@dataclass
class PredictionSet:
    """Mean, standard error, and two-sided t-bounds at the query points."""

    X_m: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    alpha: float
    df_res: float
    sigma2_hat: float


# query rows per serving block, a multiple of 256.  Edges sit at multiples of it
# and the last block takes the remainder (_BLOCK_ROWS to 2 _BLOCK_ROWS - 1 rows):
# with OpenBLAS a separate short tail changes the last bits of the mean (GEMV,
# tails of 1-3 rows) and of the std (xTRMM, tails under about 256 rows that are
# not a multiple of 8), so every row gets the bits of a whole-batch call, as
# verified at this size, which served fastest over 1-D and 2-D models together.
_BLOCK_ROWS = 1536


def _query_matrix(model: SparseModel, X_m: np.ndarray) -> np.ndarray:
    """X_m as an m x d table (``point_table`` with the model's d)."""
    X_m = point_table(X_m, model.X_t.shape[1])
    if X_m.shape[1] != model.X_t.shape[1]:
        raise ValueError(
            f"query dimension {X_m.shape[1]} does not match model dimension "
            f"{model.X_t.shape[1]}"
        )
    return X_m


def predict_mean(model: SparseModel, X_m: np.ndarray) -> np.ndarray:
    """Kernel basis at the queries times the sparse coefficients.

    Uses only (epsilon_t, X_t, C_t), not the training dataset; a mean past
    the float range raises ``ValueError``.
    """
    return _serve(model, X_m)[1]


# the most recent noise fit, (L^{-1}, sigma^2, df_res), under its _noise_fit_key;
# entries are never modified, so a race between threads costs a refit at worst
_NOISE_FIT_MEMO: dict[bytes, tuple[np.ndarray, float, float]] = {}


def _noise_fit_key(model: SparseModel, dataset: Dataset) -> bytes:
    """Digest of the dtype, shape and bytes of everything the noise fit reads."""
    digest = hashlib.blake2b(digest_size=20)
    for part in (dataset.X, dataset.Y, model.X_t, model.C_t, model.epsilon_t,
                 model.Q_t, model.Lambda_t):
        a = np.ascontiguousarray(part)
        digest.update(f"{a.dtype.str}{a.shape}".encode())
        digest.update(a)
    return digest.digest()


def _noise_fit(model: SparseModel, dataset: Dataset):
    """Inverse Cholesky factor L^{-1} of the full-data penalized system,
    sigma^2 and dof; ``ValueError`` unless the dataset has the model's d and n."""
    if dataset.d != model.X_t.shape[1]:
        raise ValueError("training data dimension does not match model")
    if dataset.n != model.n_train:
        raise ValueError(f"training data has {dataset.n} rows, but the model was fit "
                         f"on {model.n_train}")
    key = _noise_fit_key(model, dataset)
    noise = _NOISE_FIT_MEMO.get(key)
    if noise is None:
        from .network import _PenalizedSystem  # scipy: loaded for intervals only

        n = dataset.n
        B_t = kernel_matrix(dataset.X, model.X_t, model.epsilon_t)
        index, values = penalty_band(model.Q_t, model.X_t)
        system = _PenalizedSystem(B_t, (index, weighted_penalty(model.Lambda_t, values)), n)
        df_res = n - 2.0 * system.trace_u + system.trace_uut
        if df_res <= 0:
            raise DegenerateDofError(
                f"residual degrees of freedom {df_res:.3g} <= 0; intervals suppressed"
            )
        resid = dataset.Y - B_t @ model.C_t
        sigma2 = float(resid @ resid) / df_res
        if not np.isfinite(sigma2):
            raise DegenerateDofError("the residual sum of squares overflows; intervals suppressed")
        noise = system.Linv, sigma2, df_res
        _NOISE_FIT_MEMO.clear()
        _NOISE_FIT_MEMO[key] = noise
    return noise


def _std(Linv: np.ndarray, sigma2: float, B_m: np.ndarray) -> np.ndarray:
    """sigma * sqrt(diag(B_m S^{-1} B_m^T)), from the row norms of B_m L^{-T}.

    One triangular product (xTRMM), which overwrites B_m: callers pass a
    basis they no longer need.  Multiplying by the inverse of a triangular
    factor is about as accurate as substitution (Higham 2002, section 14).
    """
    from scipy.linalg.blas import dtrmm

    W = dtrmm(1.0, Linv, B_m, side=1, lower=1, trans_a=1, overwrite_b=1)
    return np.sqrt(sigma2) * np.sqrt(np.einsum("ij,ij->i", W, W))


def sigma2_hat(model: SparseModel, dataset: Dataset) -> float:
    """Unbiased noise-variance estimate ||Y - B^t C_t||^2 / df_res with
    df_res = n - 2 tr(U) + tr(U U^T)."""
    _, sigma2, _ = _noise_fit(model, dataset)
    return sigma2


def residual_dof(model: SparseModel, dataset: Dataset) -> float:
    """Nonparametric residual degrees of freedom at the convergence scale."""
    _, _, df_res = _noise_fit(model, dataset)
    return df_res


def predict_std(model: SparseModel, dataset: Dataset, X_m: np.ndarray) -> np.ndarray:
    """Pointwise standard error sigma * sqrt(b(x) (B^T B + n P)^{-1} b(x)^T); the mean
    is served alongside, so one past the float range raises ``ValueError`` here too."""
    return _serve(model, X_m, dataset)[2]


def _serve(model: SparseModel, X_m: np.ndarray, dataset: Dataset | None = None):
    """(queries as a table, mean, std, noise fit) at ``X_m``, std and noise fit None
    without a ``dataset``; ``ValueError`` where finite coefficients sum past the float
    range.  Block edges sit at multiples of ``_BLOCK_ROWS``, the last block taking
    the remainder (one empty block for an empty batch)."""
    X_m = _query_matrix(model, X_m)  # a bad query fails before the noise fit
    noise = None if dataset is None else _noise_fit(model, dataset)
    m = len(X_m)
    edges = [*range(0, max(m // _BLOCK_ROWS, 1) * _BLOCK_ROWS, _BLOCK_ROWS), m]
    mean, std = np.empty(m), None if noise is None else np.empty(m)
    for a, b in zip(edges, edges[1:]):
        B_m = kernel_matrix(X_m[a:b], model.X_t, model.epsilon_t)
        mean[a:b] = B_m @ model.C_t
        if not np.isfinite(mean[a:b]).all():
            raise ValueError("the predicted mean overflows the float range")
        if noise is not None:
            std[a:b] = _std(*noise[:2], B_m)  # last: it overwrites B_m
        del B_m  # before the next block is built, so a call holds one block's basis
    return X_m, mean, std, noise


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")


def confidence_intervals(
    mean: np.ndarray, std: np.ndarray, df_res: float, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided intervals mean -+ t(1 - alpha/2; df_res) * std."""
    _check_alpha(alpha)
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    half = t_quantile(1.0 - alpha / 2.0, df_res) * std
    return mean - half, mean + half


def predict_intervals(
    model: SparseModel, dataset: Dataset, X_m: np.ndarray, alpha: float = 0.05
) -> PredictionSet:
    """Mean prediction with t-confidence bounds at level 1 - alpha."""
    _check_alpha(alpha)
    X_m, mean, std, (_, sigma2, df_res) = _serve(model, X_m, dataset)
    lower, upper = confidence_intervals(mean, std, df_res, alpha)
    return PredictionSet(
        X_m=X_m,
        mean=mean,
        std=std,
        lower=lower,
        upper=upper,
        alpha=alpha,
        df_res=df_res,
        sigma2_hat=sigma2,
    )
