"""Penalized least-squares network at one scale, selected by GCV.

Weights solve the normal equations  (B^T B + n P) theta = B^T Y  through a
Cholesky factorization; the influence (hat) matrix is
U = B (B^T B + n P)^{-1} B^T, and the model-selection score is

    GCV = (1/n) ||(I - U) Y||^2 / [ (1/n) tr(I - U) ]^2

minimized jointly over the per-dimension difference orders Q in {1,2}^d and
the positive weights Lambda (log-grid search plus golden-section refinement).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, solve_triangular
from scipy.linalg.lapack import dsygst

from .errors import DegenerateGCVError, IllConditionedScaleError, ScaleUnfitError
from .kernel import kernel_matrix
from .penalty import penalty_components

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0

# log10 search domain for each penalty weight; zero penalty is excluded
LOG_LAMBDA_GRID = np.linspace(-8.0, 2.0, 11)


@dataclass
class FittedScale:
    """Optimized network at one scale: weights, hyperparameters, diagnostics."""

    theta: np.ndarray
    lam: np.ndarray
    q: tuple[int, ...]
    cost: float
    trace_u: float
    fitted: np.ndarray
    comp: float


@dataclass
class RepresenterOracle:
    """Dual-side vectors at a query point x.

    ``M_lambda`` reproduces the prediction as an inner product with Y,
    ``M_zero`` is its zero-penalty (orthogonal projection) limit, ``R_x``
    holds the kernel evaluated between x and every training point, and
    ``a = M_zero^T U R_x`` is the cross term of the pointwise error
    functional's squared norm  1 - 2a + M_lambda^T G M_lambda.
    """

    M_lambda: np.ndarray
    M_zero: np.ndarray
    R_x: np.ndarray
    a: float


def _factor(S: np.ndarray, jitter: float):
    """Cholesky of an SPD system; one jittered retry before giving up."""
    try:
        return cho_factor(S, lower=True)
    except LinAlgError:
        pass
    try:
        return cho_factor(S + jitter * np.eye(S.shape[0]), lower=True)
    except LinAlgError as exc:
        raise IllConditionedScaleError(
            "penalized normal equations singular to working precision"
        ) from exc


def _default_jitter(C: np.ndarray) -> float:
    return 1e-12 * float(np.trace(C)) / C.shape[0]


def solve_weights(B: np.ndarray, Y: np.ndarray, P: np.ndarray, n: int) -> np.ndarray:
    """theta = (B^T B + n P)^{-1} B^T Y via Cholesky, never an explicit inverse."""
    B = np.asarray(B, dtype=float)
    Y = np.asarray(Y, dtype=float).ravel()
    C = B.T @ B
    factor = _factor(C + n * np.asarray(P, dtype=float), _default_jitter(C))
    return cho_solve(factor, B.T @ Y)


def influence_matrix(B: np.ndarray, P: np.ndarray, n: int) -> np.ndarray:
    """Full hat matrix U = B (B^T B + n P)^{-1} B^T (n x n; on-demand only)."""
    B = np.asarray(B, dtype=float)
    C = B.T @ B
    factor = _factor(C + n * np.asarray(P, dtype=float), _default_jitter(C))
    return B @ cho_solve(factor, B.T)


def influence_traces(B: np.ndarray, P: np.ndarray, n: int) -> tuple[float, float]:
    """(tr U, tr U U^T) from the factorization, without forming U."""
    B = np.asarray(B, dtype=float)
    C = B.T @ B
    factor = _factor(C + n * np.asarray(P, dtype=float), _default_jitter(C))
    V = solve_triangular(factor[0], B.T, lower=True)
    tr_u = float(np.sum(V * V))
    M = V @ V.T
    tr_uut = float(np.sum(M * M))
    return tr_u, tr_uut


def gcv(B: np.ndarray, Y: np.ndarray, P: np.ndarray, n: int) -> float:
    """GCV score of the penalized fit; raises when tr(I - U) vanishes."""
    B = np.asarray(B, dtype=float)
    Y = np.asarray(Y, dtype=float).ravel()
    C = B.T @ B
    factor = _factor(C + n * np.asarray(P, dtype=float), _default_jitter(C))
    V = solve_triangular(factor[0], B.T, lower=True)
    tr_u = float(np.sum(V * V))
    denom = n - tr_u
    if denom <= n * 1e-12:
        raise DegenerateGCVError(
            "tr(I - U) = 0: unpenalized full-rank interpolation has no GCV score"
        )
    theta = cho_solve(factor, B.T @ Y)
    resid = Y - B @ theta
    return n * float(resid @ resid) / denom**2


def _solve_at(B, Y, psis, n, lam) -> tuple[np.ndarray, float]:
    """Weights and tr(U) at a fixed penalty point, via the Cholesky route."""
    C = B.T @ B
    S = C.copy()
    for lam_i, psi in zip(lam, psis):
        S += (n * float(lam_i)) * psi
    factor = _factor(S, _default_jitter(C))
    V = solve_triangular(factor[0], B.T, lower=True, check_finite=False)
    theta = cho_solve(factor, B.T @ Y, check_finite=False)
    return theta, float(np.sum(V * V))


class _PencilLine:
    """GCV along one penalty weight, all other weights frozen.

    The line of systems C + base + n*lam*Psi_i is whitened against its
    lam_floor member S = L L^T: LAPACK's xSYGST reduces n*Psi_i to
    K = L^{-1} (n Psi_i) L^{-T} in one blocked pass, ``eigh`` diagonalizes
    K = W diag(gamma) W^T, and one triangular solve back-transforms the
    eigenvectors to V = L^{-T} W, so Btilde = B V.  Every lambda evaluation
    is then O(n l): tr U = sum_j ||Btilde_j||^2 / (1 + (lam - floor) gamma_j)
    and the fitted values are a diagonal reweighting of Btilde^T Y.  Valid
    for every lam > 0 since the whitened penalty spectrum is capped at
    1/lam_floor.
    """

    def __init__(self, C, B, Y, psi, n, lam_floor, base=None):
        self.n = n
        self.Y = Y
        self.lam_floor = lam_floor
        S_ref = C + (n * lam_floor) * psi
        if base is not None:
            S_ref = S_ref + base
        self.ok = True
        try:
            factor = _factor(S_ref, _default_jitter(C))
        except IllConditionedScaleError:
            self.ok = False
            return
        L = factor[0]
        K, info = dsygst(n * psi, L, itype=1, lower=1)
        if info != 0:
            raise LinAlgError(f"dsygst: illegal value in argument {-info}")
        gamma, W = np.linalg.eigh(K, UPLO="L")  # xSYGST fills the lower triangle only
        self.gamma = np.maximum(gamma, 0.0)
        V = solve_triangular(L, W, trans="T", lower=True, check_finite=False)
        self.B_tilde = B @ V
        self.zc = self.B_tilde.T @ Y
        self.cdiag = np.sum(self.B_tilde**2, axis=0)  # diag of whitened B^T B

    def cost_at(self, lam: float) -> float:
        if not self.ok:
            return np.inf
        den = 1.0 + (lam - self.lam_floor) * self.gamma
        tr_u = float(np.sum(self.cdiag / den))
        denom = self.n - tr_u
        if denom <= self.n * 1e-12:
            return np.inf
        fitted = self.B_tilde @ (self.zc / den)
        resid = self.Y - fitted
        return self.n * float(resid @ resid) / denom**2


def _golden_section(f, a: float, b: float, tol: float) -> tuple[float, float]:
    """Deterministic golden-section minimization on [a, b]."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


def optimize_lambda(
    B: np.ndarray,
    Y: np.ndarray,
    centers: np.ndarray,
    n: int,
    q: tuple[int, ...],
    *,
    refine_passes: int = 3,
    refine_tol: float = 1e-3,
    _psis=None,
) -> tuple[np.ndarray, float]:
    """Best positive weights for fixed penalty orders ``q``.

    Coarse log10 grid (tensorized for d <= 2, coordinate descent above),
    then per-coordinate golden-section refinement.  Returns (Lambda, cost);
    cost is +inf when every candidate was degenerate.

    Each search along coordinate i runs on a ``_PencilLine`` built for the
    other coordinates' log-weights.  The last line built for each coordinate
    is kept with those weights as its key and reused while they are
    unchanged; for d = 2 the grid line holding the incumbent is kept in its
    place, which is the line refinement starts on.  At most d + 1 lines are
    held at once.
    """
    B = np.asarray(B, dtype=float)
    Y = np.asarray(Y, dtype=float).ravel()
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    d = centers.shape[1]
    psis = _psis if _psis is not None else penalty_components(q, centers)
    grid = LOG_LAMBDA_GRID
    lam_floor = 10.0 ** grid[0]
    C = B.T @ B
    lines: dict[int, tuple[tuple[float, ...], _PencilLine]] = {}

    def line_for(i: int, point: tuple[float, ...]) -> _PencilLine:
        key = point[:i] + point[i + 1 :]
        held = lines.get(i)
        if held is not None and held[0] == key:
            return held[1]
        base = None
        if d > 1:
            base = np.zeros_like(C)
            for j, psi in enumerate(psis):
                if j != i:
                    base += (n * 10.0 ** point[j]) * psi
        line = _PencilLine(C, B, Y, psis[i], n, lam_floor, base=base)
        lines[i] = (key, line)
        return line

    best_point, best_cost = None, np.inf
    if d == 1:
        line = line_for(0, (grid[0],))
        for g in grid:
            c = line.cost_at(10.0**g)
            if c < best_cost:
                best_point, best_cost = (float(g),), c
    elif d == 2:
        incumbent = None
        for g2 in grid:
            line = line_for(0, (grid[0], float(g2)))
            for g1 in grid:
                c = line.cost_at(10.0**g1)
                if c < best_cost:
                    best_point, best_cost = (float(g1), float(g2)), c
                    incumbent = lines[0]
        if incumbent is not None:
            lines[0] = incumbent  # refinement pass 1 searches this same line
        incumbent = None  # no line is held outside ``lines`` from here on
    else:
        point = tuple(float(grid[len(grid) // 2]) for _ in range(d))
        for _ in range(2):
            for i in range(d):
                line = line_for(i, point)
                for g in grid:
                    cand = point[:i] + (float(g),) + point[i + 1 :]
                    c = line.cost_at(10.0**g)
                    if c < best_cost:
                        best_point, best_cost = cand, c
            if best_point is not None:
                point = best_point

    if best_point is None or not np.isfinite(best_cost):
        return 10.0 ** np.zeros(d), np.inf

    step = float(grid[1] - grid[0])
    point = best_point
    for _ in range(refine_passes):
        for i in range(d):
            line = line_for(i, point)
            x_best, c_best = _golden_section(
                lambda x: line.cost_at(10.0**x),
                point[i] - step,
                point[i] + step,
                refine_tol,
            )
            if c_best < best_cost:
                point = point[:i] + (float(x_best),) + point[i + 1 :]
                best_cost = c_best
    return 10.0 ** np.asarray(point), best_cost


def optimize_gcv(
    B: np.ndarray,
    Y: np.ndarray,
    centers: np.ndarray,
    n: int,
    *,
    refine_passes: int = 3,
    refine_tol: float = 1e-3,
) -> FittedScale:
    """Minimize GCV over every order combination Q in {1,2}^d and Lambda > 0."""
    B = np.asarray(B, dtype=float)
    Y = np.asarray(Y, dtype=float).ravel()
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    d = centers.shape[1]
    l = B.shape[1]

    psi_by_dim_q = {
        (i, q): psi
        for q in (1, 2)
        for i, psi in enumerate(penalty_components([q] * d, centers))
    }

    best = None
    for q_combo in itertools.product((1, 2), repeat=d):
        psis = [psi_by_dim_q[(i, qi)] for i, qi in enumerate(q_combo)]
        lam, cost = optimize_lambda(
            B, Y, centers, n, q_combo,
            refine_passes=refine_passes, refine_tol=refine_tol, _psis=psis,
        )
        if best is None or cost < best[2]:
            best = (q_combo, lam, cost, psis)

    q_combo, lam, cost, psis = best
    if not np.isfinite(cost):
        raise ScaleUnfitError("every penalty candidate was degenerate at this scale")

    theta, trace_u = _solve_at(B, Y, psis, n, lam)
    return FittedScale(
        theta=theta,
        lam=lam,
        q=q_combo,
        cost=cost,
        trace_u=trace_u,
        fitted=B @ theta,
        comp=1.0 - l / n,
    )


def representer(
    x: np.ndarray,
    X: np.ndarray,
    B: np.ndarray,
    P: np.ndarray,
    epsilon_s: float,
    selected: np.ndarray,
    n: int,
) -> RepresenterOracle:
    """Representer vectors at query x for the fitted network.

    M_lambda = B (B^T B + n P)^{-1} R_x|_sel  and  M_zero = B (B^T B)^{-1}
    R_x|_sel, where R_x holds kernel values between x and all training points
    (restricted to the selected centers in basis order for the solves).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    B = np.asarray(B, dtype=float)
    R_x = kernel_matrix(np.atleast_2d(np.asarray(x, dtype=float)), X, epsilon_s).ravel()
    r_sel = R_x[np.asarray(selected, dtype=int)]
    C = B.T @ B
    jitter = _default_jitter(C)
    factor_s = _factor(C + n * np.asarray(P, dtype=float), jitter)
    factor_0 = _factor(C, jitter)
    M_lambda = B @ cho_solve(factor_s, r_sel)
    M_zero = B @ cho_solve(factor_0, r_sel)
    a = float((B.T @ M_zero) @ cho_solve(factor_s, B.T @ R_x))
    return RepresenterOracle(M_lambda=M_lambda, M_zero=M_zero, R_x=R_x, a=a)
