"""Difference-based smoothing penalties composed across dimensions.

Coefficients live on the selected centers in pivot order.  For each dimension
``i`` a permutation Pe_i reorders them by nondecreasing center coordinate, an
order-``q_i`` difference operator D^{q_i} penalizes their successive changes,
and the weighted quadratic forms are summed:

    P = sum_i lambda_i * Pe_i^T D^{q_i}^T D^{q_i} Pe_i

Each Psi_i has at most 2 q_i + 1 nonzeros a row.  D^q and Pe_i are formed
only as stencils on the coordinate-sorted centers in ``penalty_band`` (the
nonzeros of every Psi_i, which ``penalty_components`` scatters into zeros)
and as a gather and q differences in ``component_action``; no dense D^q or
Pe_i is built.  Orders are restricted to q in {1, 2}; higher orders oversmooth.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import point_table


@dataclass(frozen=True)
class PenaltySpec:
    """Per-dimension difference orders (each 1 or 2) and positive weights."""

    Q: tuple[int, ...]
    Lambda: np.ndarray

    def __post_init__(self):
        Q = tuple(int(q) for q in self.Q)
        lam = np.asarray(self.Lambda, dtype=float).ravel()
        if len(Q) != lam.size:
            raise ValueError("Q and Lambda must have one entry per dimension")
        if any(q not in ORDERS for q in Q):
            raise ValueError("penalty orders must be 1 or 2")
        if not np.all(lam > 0):
            raise ValueError("all penalty weights must be positive")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "Lambda", lam)


@dataclass(frozen=True)
class PenaltyMatrix:
    """Total operator P."""

    P: np.ndarray


# row r of D^q holds its stencil at the centers of sorted ranks r, ..., r + q
_STENCILS = {1: np.array([-1.0, 1.0]), 2: np.array([1.0, -2.0, 1.0])}
ORDERS = tuple(_STENCILS)


def _coordinate_order(points: np.ndarray, dim: int) -> np.ndarray:
    """Pe_i as an index array: the centers by coordinate ``dim``, ties in pivot order."""
    if not 0 <= dim < points.shape[1]:
        raise ValueError(f"dimension {dim} out of range for d={points.shape[1]}")
    return np.argsort(points[:, dim], kind="stable")


def penalty_band(Q, points: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """(index, values): the sorted row-major flat indices of the union of the
    nonzeros of Psi_1, ..., Psi_d, and each Psi_i's entries there (exact
    small integers, 0.0 where Psi_i has none).  Row r of D^q Pe_i adds
    s_a s_b at (order[r + a], order[r + b]) of Psi_i, for stencil s.  ``ValueError``
    when Q has fewer orders than the centers have dimensions."""
    points = point_table(points, len(Q))
    m, d = points.shape
    if len(Q) < d:
        raise ValueError(f"penalty orders Q={tuple(Q)!r} are fewer than the d={d} dimensions")
    flat, weights = [], []
    for i, q in enumerate(Q):
        if q not in _STENCILS:
            raise ValueError(f"penalty order {q!r} is not 1 or 2")
        s, order = _STENCILS[q], _coordinate_order(points, i)
        rows = order[np.arange(max(m - q, 0))[:, None] + np.arange(q + 1)]
        flat.append((rows[:, :, None] * m + rows[:, None, :]).ravel())
        weights.append(np.tile(np.outer(s, s).ravel(), len(rows)))
    index, slot = np.unique(np.concatenate(flat), return_inverse=True)
    slots = np.split(slot.ravel(), np.cumsum([f.size for f in flat])[:-1])
    values = [np.zeros(index.size) for _ in flat]
    for v, sl, w in zip(values, slots, weights):
        np.add.at(v, sl, w)
    return index, values


def penalty_components(Q, points: np.ndarray) -> list[np.ndarray]:
    """Unweighted quadratic forms Psi_i = (D^{q_i} Pe_i)^T (D^{q_i} Pe_i):
    ``penalty_band`` scattered into zeros, so +0.0 everywhere off the band."""
    points = point_table(points, len(Q))
    m = len(points)
    index, values = penalty_band(Q, points)
    comps = [np.zeros((m, m)) for _ in values]
    for psi, v in zip(comps, values):
        psi.ravel()[index] = v
    return comps


def component_action(q: int, points: np.ndarray, dim: int):
    """Z -> Psi Z for the order-q component of dimension ``dim``, O(m) a column.

    Rows are gathered into coordinate order (along the contiguous axis of an
    F-ordered Z's transpose), differenced q times, passed back through the
    transposed differences and scattered to basis order, in two buffers and
    in Z's layout; with fewer than q + 1 coefficients Psi is zero.
    """
    order = _coordinate_order(point_table(points), dim)
    inverse, m = np.argsort(order), order.size

    def apply(Z: np.ndarray) -> np.ndarray:
        if m <= q:
            return np.zeros_like(Z)
        flip = Z.ndim == 2 and Z.flags.f_contiguous and not Z.flags.c_contiguous
        T = np.transpose if flip else np.asarray
        W = T(np.take(T(Z), order, axis=int(flip)))
        spare = np.empty_like(W)
        for k in range(q):  # D: m - k rows in, one fewer out
            np.subtract(W[1:m - k], W[:m - k - 1], out=spare[:m - k - 1])
            W, spare = spare, W
        for r in range(m - q, m):  # -D^T: r rows in, zero-padded at both ends
            np.subtract(W[:1], 0.0, out=spare[:1])
            np.subtract(W[1:r], W[:r - 1], out=spare[1:r])
            np.subtract(0.0, W[r - 1:r], out=spare[r:r + 1])
            np.negative(spare[:r + 1], out=spare[:r + 1])
            W, spare = spare, W
        return T(np.take(T(W), inverse, axis=int(flip), out=T(spare), mode="clip"))

    return apply


def penalty_operator(spec: PenaltySpec, points: np.ndarray) -> PenaltyMatrix:
    """Weighted sum of the per-dimension difference forms; symmetric PSD."""
    return PenaltyMatrix(P=weighted_penalty(spec.Lambda, penalty_components(spec.Q, points)))


def weighted_penalty(Lambda, comps) -> np.ndarray:
    """P = sum_i lambda_i Psi_i, accumulated in dimension order."""
    P = np.zeros_like(comps[0])
    for lam_i, psi in zip(Lambda, comps):
        P += lam_i * psi
    return P
