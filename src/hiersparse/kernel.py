"""Squared-exponential Gram matrices indexed by a geometric scale ladder.

The kernel is ``exp(-||a - b||^2 / epsilon_s)`` with ``epsilon_s = T / M**s``,
a squared-distance scale.  Every increment divides ``epsilon_s`` by ``M`` and
so shrinks the kernel support by ``1/sqrt(M)``; the numerical rank of the
Gram matrix grows like ``epsilon_s**(-d/2)``, by about ``M**(d/2)`` per step
(``sqrt(2)`` in one dimension at the default ``M = 2``), until it saturates
at ``n``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError


def point_table(X, d: int = 1) -> np.ndarray:
    """X as an m x d float table: a scalar is one point, and a flat array one point
    per entry when d = 1, else one point.  An array of more than two axes is refused."""
    X = np.asarray(X, dtype=float)
    if X.ndim > 2:
        raise ValueError(f"need an m x d table of points, got shape {X.shape}")
    return X[:, None] if X.ndim == 1 and d == 1 else np.atleast_2d(X)


@dataclass(frozen=True)
class Dataset:
    """Observed sample: coordinates ``X`` (n x d) and responses ``Y`` (n)."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = point_table(self.X)
        Y = np.asarray(self.Y, dtype=float).ravel()
        if X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError(f"X must be a nonempty n x d matrix, got shape {X.shape}")
        if X.shape[0] != Y.shape[0]:
            raise ValueError(f"X has {X.shape[0]} rows but Y has {Y.shape[0]} entries")
        if not np.all(np.isfinite(X)):
            raise ValueError("X contains nonfinite coordinates")
        if not np.all(np.isfinite(Y)):
            raise ValueError("Y contains nonfinite observations")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def diameter_T(X: np.ndarray) -> float:
    """Base squared-distance scale from the most distant pair: ``diam(X)**2 / 2``.

    ``T`` is ``epsilon_0``; the scale-0 kernel support is ``sqrt(T)``.  Raises
    ``DegenerateGeometryError`` when every point coincides, or when the squared
    diameter leaves float range (overflow, or underflow to 0 for distinct points).
    """
    shape, X = np.shape(X), point_table(X)
    if X.shape[0] < 2:
        raise ValueError(f"need an n x d table of at least two points, got shape {shape}")
    with np.errstate(over="ignore"):
        diam2 = float(_sq_distances(X, X).max())
    if not np.isfinite(diam2):
        raise DegenerateGeometryError(
            "squared diameter overflows float range; rescale the coordinates"
        )
    if diam2 == 0.0:
        if np.any(X != X[0]):
            raise DegenerateGeometryError(
                "squared diameter underflows to zero for distinct points; "
                "rescale the coordinates"
            )
        raise DegenerateGeometryError("all points are identical; diameter is zero")
    return diam2 / 2.0


def length_scale(T: float, M: float, s: int) -> float:
    """Squared-distance scale ``epsilon_s = T / M**s``, strictly decreasing in s.

    Each step shrinks the kernel support ``sqrt(epsilon_s)`` by ``1/sqrt(M)``
    and grows the Gram rank by about ``M**(d/2)``.
    """
    if not 0 < T < np.inf:
        raise ValueError("T must be positive and finite")
    if not 1 < M < np.inf:
        raise ValueError("M must exceed 1 and be finite")
    if s < 0:
        raise ValueError("scale index must be nonnegative")
    return T / M**s


# entries per tile of rows of B (256 KiB): for d >= 2 a tile's passes run in cache.
# d = 1 is one tile: a 1-D tile loop cost about 10% on wide batches
_TILE = 32768


def _sq_distances(A, B, epsilon=None) -> np.ndarray:
    """``||a_j - b_i||^2`` in a new len(B) x len(A) array filled by tiles of rows,
    returned transposed; with ``epsilon``, ``exp(-d2 / epsilon)``."""
    At, Bt = A.T.copy(), B.T.copy()
    (d, m), l = At.shape, len(B)
    out = np.empty((l, m))
    rows = l if d == 1 else max(_TILE // max(m, 1), 1)
    term = np.empty((min(rows, l), m)) if d > 1 else None
    # numpy 2.4 runs a broadcast subtraction about 3x slower per entry when its ufunc
    # buffer holds three or more rows: from 64 columns, use a one-row buffer (per thread)
    narrow = 64 <= m <= np.getbufsize() // 3
    size = np.setbufsize(m // 16 * 16) if narrow else None
    try:
        for r in range(0, l, rows):
            tile = out[r:r + rows]
            np.subtract(At[0], Bt[0, r:r + rows, None], out=tile)
            np.square(tile, out=tile)
            for k in range(1, d):
                t = term[:len(tile)]
                np.subtract(At[k], Bt[k, r:r + rows, None], out=t)
                tile += np.square(t, out=t)
            if epsilon is not None:
                with np.errstate(over="ignore"):  # a tiny epsilon: -inf, whose exp is 0
                    np.divide(tile, -epsilon, out=tile)
                    np.exp(tile, out=tile)
    finally:
        if narrow:
            np.setbufsize(size)
    return out.T


def kernel_matrix(A: np.ndarray, B: np.ndarray, epsilon: float) -> np.ndarray:
    """Cross kernel ``exp(-||a_i - b_j||^2 / epsilon)`` for rows of A and B.

    Squared distances are summed from direct coordinate differences, so an exact
    common shift of A and B changes no entry, and as fl(a - b) = -fl(b - a) the
    kernel of X with itself is exactly symmetric with unit diagonal.  The result
    is in Fortran order.  Each entry costs 3d + 1 passes; for d >= 2 they run on
    tiles of about 256 KiB of rows of B in cache, and a tile is the only temporary.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise ValueError(f"need point tables of one dimension, got shapes {A.shape} and {B.shape}")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        raise ValueError("nonfinite coordinates")
    return _sq_distances(A, B, epsilon)


def gram(X: np.ndarray, epsilon_s: float) -> np.ndarray:
    """Scale-s Gram matrix on X, in C order; exactly symmetric with unit diagonal."""
    return kernel_matrix(X, X, epsilon_s).T  # by that symmetry, the same matrix


def numerical_rank(G: np.ndarray, phi: float) -> int:
    """Count of singular values within relative precision ``phi`` of the top.

    A zero matrix reports rank 0; that is a signal, not a failure.
    """
    if not 0 < phi < 1:
        raise ValueError("phi must lie in (0, 1)")
    G = np.asarray(G, dtype=float)
    sv = np.linalg.svd(G, compute_uv=False, hermitian=True)
    if sv.size == 0 or sv[0] <= 0.0:
        return 0
    return int(np.count_nonzero(sv / sv[0] >= phi))
