"""Independent oracles and problem builders shared across the test suite.

Oracles deliberately avoid the library's own code paths: explicit loops,
comparison sorts, explicit inverses, and least-squares solves stand in for
the factorization-based routines they check.
"""
from __future__ import annotations

import math

import numpy as np

from hiersparse import (
    Dataset,
    confidence_intervals,
    diameter_T,
    gram,
    kernel_matrix,
    numerical_rank,
    pivoted_qr_permutation,
    select_basis,
    sketch,
)
from hiersparse import predict


# ---------------------------------------------------------------------------
# oracles


def brute_force_max_distance(X: np.ndarray) -> float:
    best = 0.0
    for i in range(len(X)):
        for j in range(i + 1, len(X)):
            best = max(best, float(np.linalg.norm(X[i] - X[j])))
    return best


def greedy_pivot_oracle(W: np.ndarray):
    """Greedy Gram-Schmidt column selection: at each step pick the column with
    the largest residual norm (ties: lowest original index), then deflate."""
    R = np.array(W, dtype=float)
    k, n = R.shape
    remaining = list(range(n))
    order, norms = [], []
    for _ in range(min(k, n)):
        res = [float(np.linalg.norm(R[:, j])) for j in remaining]
        top = max(res)
        if top == 0.0:
            break
        pick_pos = res.index(top)  # list.index returns the first (lowest) match
        col = remaining.pop(pick_pos)
        order.append(col)
        norms.append(top)
        u = R[:, col] / top
        for j in remaining:
            R[:, j] = R[:, j] - (u @ R[:, j]) * u
        R[:, col] = 0.0
    return order, norms


def sort_permutation_oracle(values) -> list[int]:
    return sorted(range(len(values)), key=lambda i: (values[i], i))


def difference_matrix_oracle(q: int, m: int) -> np.ndarray:
    """D^q by composing first-difference operators, not binomial stencils."""

    def d1(size):
        D = np.zeros((size - 1, size))
        for r in range(size - 1):
            D[r, r] = -1.0
            D[r, r + 1] = 1.0
        return D

    if m <= q:
        return np.zeros((0, m))
    D = d1(m)
    for step in range(1, q):
        D = d1(m - step) @ D
    return D


def permutation_matrix_oracle(coords) -> np.ndarray:
    order = sort_permutation_oracle(list(coords))
    m = len(order)
    Pe = np.zeros((m, m))
    for row, src in enumerate(order):
        Pe[row, src] = 1.0
    return Pe


def penalty_oracle(Q, lam, points: np.ndarray) -> np.ndarray:
    points = np.atleast_2d(points)
    m = points.shape[0]
    P = np.zeros((m, m))
    for i, (q, weight) in enumerate(zip(Q, lam)):
        D = difference_matrix_oracle(int(q), m)
        if D.shape[0] == 0:
            continue
        Pe = permutation_matrix_oracle(points[:, i])
        F = D @ Pe
        P = P + float(weight) * (F.T @ F)
    return P


def kernel_matrix_oracle(A: np.ndarray, B: np.ndarray, eps: float) -> np.ndarray:
    A = np.atleast_2d(A)
    B = np.atleast_2d(B)
    out = np.empty((A.shape[0], B.shape[0]))
    for i in range(A.shape[0]):
        for j in range(B.shape[0]):
            out[i, j] = math.exp(-float(np.sum((A[i] - B[j]) ** 2)) / eps)
    return out


def influence_oracle(B: np.ndarray, P: np.ndarray, n: int) -> np.ndarray:
    return B @ np.linalg.inv(B.T @ B + n * P) @ B.T


def gcv_oracle(B: np.ndarray, Y: np.ndarray, P: np.ndarray, n: int) -> float:
    U = influence_oracle(B, P, n)
    resid = (np.eye(n) - U) @ Y
    return (resid @ resid / n) / (np.trace(np.eye(n) - U) / n) ** 2


def weights_lstsq_oracle(B: np.ndarray, Y: np.ndarray, F: np.ndarray, n: int) -> np.ndarray:
    """Minimize (1/n)||Y - B theta||^2 + theta^T F^T F theta via stacked
    least squares (SVD route, independent of the normal equations)."""
    A = np.vstack([B, math.sqrt(n) * F])
    b = np.concatenate([Y, np.zeros(F.shape[0])])
    theta, *_ = np.linalg.lstsq(A, b, rcond=None)
    return theta


def whole_batch_oracle(model, dataset: Dataset, X_m: np.ndarray, alpha: float):
    """``PredictionSet`` of every query from one basis on all rows of ``X_m``:
    ``kernel_matrix`` on the whole batch, then ``@ C_t`` and ``predict._std``.

    The reference for blocked serving is a whole batch, not a row at a time:
    a row predicted alone, or in a small batch whose size is not a multiple
    of 4, can differ in its last bits from the same row in a batch of
    thousands (OpenBLAS GEMV and xTRMM tile the rows).
    """
    X_m = np.asarray(X_m, dtype=float)
    Linv, sigma2, df_res = predict._noise_fit(model, dataset)
    B_m = kernel_matrix(X_m, model.X_t, model.epsilon_t)
    mean = B_m @ model.C_t
    std = predict._std(Linv, sigma2, B_m)
    lower, upper = confidence_intervals(mean, std, df_res, alpha)
    return predict.PredictionSet(X_m=X_m, mean=mean, std=std, lower=lower, upper=upper,
                                 alpha=alpha, df_res=df_res, sigma2_hat=sigma2)


# ---------------------------------------------------------------------------
# problem builders


def rel_err(x, ref) -> float:
    x = np.asarray(x, dtype=float)
    ref = np.asarray(ref, dtype=float)
    return float(np.linalg.norm(x - ref) / (1.0 + np.linalg.norm(ref)))


def make_dataset(n: int, d: int, seed: int, noise: float = 0.1) -> Dataset:
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(n, d))
    f = np.sin(2.0 * X[:, 0]) + (X**2).sum(axis=1)
    return Dataset(X=X, Y=f + noise * rng.standard_normal(n))


def make_basis_problem(
    n: int, d: int, seed: int, s: int = 3, noise: float = 0.1, phi: float = 1e-10
):
    """Mid-scale basis from the real selection pipeline on a random dataset.

    Returns a dict with the dataset, basis matrix, selected centers (in pivot
    order), length scale, and selected indices.  Identity checks that compare
    against the unpenalized projection want ``phi`` around 1e-6: the basis
    condition number is roughly phi^{-1/2} and the normal equations lose
    kappa^2 digits.
    """
    ds = make_dataset(n, d, seed, noise=noise)
    T = diameter_T(ds.X)
    eps = T / 2.0**s
    G = gram(ds.X, eps)
    l = numerical_rank(G, phi)
    pivot = pivoted_qr_permutation(sketch(G, l, 8, seed))
    basis = select_basis(G, pivot, l)
    return {
        "dataset": ds,
        "X": ds.X,
        "Y": ds.Y,
        "G": G,
        "B": basis.B,
        "centers": ds.X[basis.selected],
        "selected": basis.selected,
        "eps": eps,
        "n": n,
        "l": l,
    }
