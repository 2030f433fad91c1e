"""Representative-point selection: randomized sketch + column-pivoted QR.

The Gram matrix of numerical rank ``l`` is compressed to a short sketch
``W = A G`` (``A`` Gaussian), and greedy column-pivoted QR on ``W`` picks the
``l`` columns with the largest residual norms.  Those column indices are the
sparse point set; the matching Gram columns form the regression basis.

The pivoted QR is LAPACK's xGEQP3 (Quintana-Orti, Sun & Bischof 1998), called
through ``scipy.linalg.qr``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr


@dataclass(frozen=True)
class ScaleBasis:
    """The first ``l_s`` indices of the pivot order and their Gram columns."""

    selected: np.ndarray
    B: np.ndarray


def sketch(G: np.ndarray, l_s: int, k_extra: int, seed: int) -> np.ndarray:
    """Bias-removal sketch ``W = A G`` on ``k = min(n, l_s + k_extra)`` random
    Gaussian rows ``A``; deterministic per seed."""
    G = np.asarray(G, dtype=float)
    if l_s < 1:
        raise ValueError("rank must be at least 1")
    if k_extra < 0:
        raise ValueError("k_extra must be nonnegative")
    n = G.shape[0]
    k = min(n, l_s + k_extra)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((k, n))
    return A @ G


def pivoted_qr(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Householder QR with greedy max-norm column pivoting (LAPACK xGEQP3).

    Returns the full column permutation and the diagonal of R.  Each step
    pivots on the column of largest residual norm, so up to rounding the
    pivot sequence is the greedy Gram-Schmidt selection and ``|diag(R)|`` is
    nonincreasing.  xGEQP3 downdates the residual norms and recomputes one
    when cancellation makes its downdate inaccurate; a tie goes to the
    leftmost column in the current, partly permuted, order.
    """
    R = np.asarray(W, dtype=float)
    if R.ndim != 2:
        raise ValueError("W must be a matrix")
    if not np.any(R):
        raise ValueError("cannot pivot an all-zero matrix")
    R, perm = qr(R, pivoting=True, mode="r", check_finite=False)
    return perm.astype(int), np.diag(R).copy()


def pivoted_qr_permutation(W: np.ndarray) -> np.ndarray:
    """Column permutation of the pivoted QR factorization of W."""
    perm, _ = pivoted_qr(W)
    return perm


def select_basis(G: np.ndarray, pivot: np.ndarray, l_s: int) -> ScaleBasis:
    """Assemble the basis from the top ``l_s`` pivoted Gram columns."""
    G = np.asarray(G, dtype=float)
    pivot = np.asarray(pivot, dtype=int)
    n = G.shape[0]
    if not 1 <= l_s <= n:
        raise ValueError(f"rank {l_s} out of range for n={n}")
    selected = pivot[:l_s].copy()
    if np.unique(selected).size != l_s:
        raise ValueError("pivot contains repeated indices")
    return ScaleBasis(selected=selected, B=G[:, selected].copy())
