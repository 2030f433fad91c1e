"""Difference-based smoothing penalties composed across dimensions.

Coefficients live on the selected centers in pivot order.  For each dimension
``i`` a permutation Pe_i reorders them by nondecreasing center coordinate, an
order-``q_i`` difference operator D^{q_i} penalizes their successive changes,
and the weighted quadratic forms are summed:

    P = sum_i lambda_i * Pe_i^T D^{q_i}^T D^{q_i} Pe_i

D^q and Pe_i are formed only inside ``component_action``, as a gather and q
differences; no dense D^q or Pe_i is built.  Orders are restricted to
q in {1, 2}; higher orders oversmooth.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
        if any(q not in (1, 2) for q in Q):
            raise ValueError("penalty orders must be 1 or 2")
        if not np.all(lam > 0):
            raise ValueError("all penalty weights must be positive")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "Lambda", lam)


@dataclass(frozen=True)
class PenaltyMatrix:
    """Total operator P."""

    P: np.ndarray


def penalty_components(Q, points: np.ndarray) -> list[np.ndarray]:
    """Unweighted quadratic forms Psi_i = (D^{q_i} Pe_i)^T (D^{q_i} Pe_i).

    ``component_action`` of the identity, exact as the stencils are small
    integers; adding 0.0 turns its -0.0 entries into the +0.0 of F^T F.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    eye = np.eye(points.shape[0])
    return [component_action(int(q), points, i)(eye) + 0.0 for i, q in enumerate(Q)]


def component_action(q: int, points: np.ndarray, dim: int):
    """Z -> Psi Z for the order-q component of dimension ``dim``, O(m) a column.

    Rows are gathered into coordinate order, differenced q times, passed back
    through the transposed differences and scattered to basis order; with
    fewer than q + 1 coefficients Psi is zero.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if not 0 <= dim < points.shape[1]:
        raise ValueError(f"dimension {dim} out of range for d={points.shape[1]}")
    order = np.argsort(points[:, dim], kind="stable")  # ties keep pivot order

    def apply(Z: np.ndarray) -> np.ndarray:
        if len(order) <= q:
            return np.zeros_like(Z)
        W = np.diff(Z[order], n=q, axis=0)
        for _ in range(q):
            W = -np.diff(W, axis=0, prepend=0.0, append=0.0)
        out = np.empty_like(W)
        out[order] = W
        return out

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
