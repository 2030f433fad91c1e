"""Scale sweep: fit one regularization network per scale, keep the cheapest.

Scales are visited in order with epsilon_s = T / M**s until the Gram matrix
reaches full numerical rank over the distinct points (or a safety cap).  The
incumbent is replaced only on strictly smaller GCV cost, so cost ties resolve
to the earlier, sparser scale.  The returned model carries everything mean
prediction needs: the selected points, their coefficients, and the
convergence length scale.
"""
from __future__ import annotations

import numbers

import numpy as np

from .errors import FitError
from .kernel import Dataset, diameter_T, gram, length_scale, numerical_rank
from .model import ScaleRecord, SparseModel
from .network import optimize_gcv
from .sparsify import pivoted_qr_permutation, select_basis, sketch


def compression_ratio(l_s: int, n: int) -> float:
    """Fraction of the dataset dropped by a scale keeping l_s of n points."""
    if not 1 <= l_s <= n:
        raise ValueError(f"l_s={l_s} out of range for n={n}")
    return 1.0 - l_s / n


def fit(
    dataset: Dataset,
    *,
    T: float | str = "auto",
    M: float = 2.0,
    phi: float = 1e-10,
    k_extra: int = 8,
    seed: int = 0,
    max_scales: int = 25,
) -> SparseModel:
    """Sweep scales 0, 1, 2, ... and return the minimum-GCV sparse model.

    Each scale builds the Gram matrix, estimates its numerical rank l_s,
    selects l_s representative points by sketched column-pivoted QR (sketch
    seeded with ``seed + s``), and optimizes the network.  The sweep stops
    once l_s reaches the number of distinct points in X (the Gram rank cannot
    exceed it) or ``max_scales`` scales have been fit.  An unfit scale is
    recorded as ``optimize_gcv`` returns it (cost +inf, lam and q None).
    Out-of-range or mistyped settings (a bool, a non-number ``T`` or ``M``, or a
    non-integer ``max_scales``, ``seed`` or ``k_extra``) raise a ``ValueError``
    before any Gram matrix is built.
    The sketch's Gaussian matrix meets the rows in dataset order, so permuting
    the rows can change the selected points, and with them the fit.
    """
    X, Y, n = dataset.X, dataset.Y, dataset.n
    if n < 2:
        raise ValueError("need at least two points to fit")
    for name, value, low in (("max_scales", max_scales, 1), ("seed", seed, 0),
                             ("k_extra", k_extra, 0)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    if not 0 < phi < 1:
        raise ValueError(f"phi must lie in (0, 1), got {phi}")
    if isinstance(T, bool) or not (T == "auto" if isinstance(T, str)
                                   else isinstance(T, numbers.Real)):
        raise ValueError(f"T must be 'auto' or a number, got {T!r}")
    if isinstance(M, bool) or not isinstance(M, numbers.Real):
        raise ValueError(f"M must be a number, got {M!r}")
    T_val = diameter_T(X) if isinstance(T, str) else float(T)
    M, seed = float(M), int(seed)  # a numpy M or seed would reach every record
    n_distinct = np.unique(X, axis=0).shape[0]

    history: list[ScaleRecord] = []
    best, best_cost = None, np.inf  # best: (t, Y_t, C_t) of the incumbent scale
    for s in range(max_scales):
        eps = length_scale(T_val, M, s)
        G = gram(X, eps)
        l_s = numerical_rank(G, phi)
        scale_seed = seed + s
        pivot = pivoted_qr_permutation(sketch(G, l_s, k_extra, scale_seed))
        basis = select_basis(G, pivot, l_s)
        del G  # the basis holds copies of its columns; the search never reads G
        centers = X[basis.selected]
        comp = compression_ratio(l_s, n)
        fs = optimize_gcv(basis.B, Y, centers, n)
        history.append(
            ScaleRecord(s, eps, l_s, comp, fs.cost, fs.lam, fs.q, scale_seed, centers)
        )
        if fs.cost < best_cost:
            best, best_cost = (s, Y[basis.selected], fs.theta), fs.cost
        if l_s >= n_distinct:
            break

    if best is None:
        raise FitError("no scale produced a usable fit")
    t, Y_t, C_t = best
    rec = history[t]  # the served scale's record: its very arrays, so they agree by construction
    return SparseModel(t=t, epsilon_t=rec.epsilon_s, X_t=rec.points, Y_t=Y_t, C_t=C_t,
                       Lambda_t=rec.lam, Q_t=rec.q, n_train=n, history=history)
