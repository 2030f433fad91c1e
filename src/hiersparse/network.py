"""Penalized least-squares network at one scale, selected by GCV.

Weights solve the normal equations  (B^T B + n P) theta = B^T Y  through a
Cholesky factorization; the influence (hat) matrix is
U = B (B^T B + n P)^{-1} B^T, and the model-selection score is

    GCV = (1/n) ||(I - U) Y||^2 / [ (1/n) tr(I - U) ]^2

minimized jointly over the per-dimension difference orders Q in {1,2}^d and
the positive weights Lambda inside the box ``LOG_LAMBDA_BOUNDS``: each order
combination is seeded from one pencil line on the log grid ``LOG_LAMBDA_SEEDS``
(for every d), then refined by golden section (d = 1) or projected Newton
descent (d >= 2); the grid, ``REFINE_PASSES`` and ``REFINE_TOL`` are constants.

GCV needs B only through B^T B = R^T R, with R the triangular factor of a
thin QR of B (Wood 2004, JASA 99:673, section 3), so the influence traces and
the Newton search's derivatives work with l x l matrices, not l x n ones.

Every Cholesky factor of a penalized system, and its inverse, comes from
``_PenalizedSystem``, here and in ``predict``; every run-time caller gives
it the penalty as its band (``penalty_band``), never as a dense matrix.
A trace solve's column blocks, a Hessian's products and the two order searches
of a d = 1 scale each go through one ``_blas.each``, which starts all but the
last on its worker; none is split, so no bit changes.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, solve_triangular
from scipy.linalg.lapack import dsygst, dtrtri

from . import _blas
from .errors import DegenerateGCVError, IllConditionedScaleError
from .kernel import kernel_matrix, point_table
from .penalty import ORDERS, component_action, penalty_band, weighted_penalty

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0

# log10 box of every penalty weight: the d = 1 golden-section passes are
# clipped to it and the d >= 2 Newton search is projected onto it
LOG_LAMBDA_BOUNDS = (-11.0, 5.0)
# the seed grid of every d on lambda_1 = ... = lambda_d, half a decade apart
LOG_LAMBDA_SEEDS = np.linspace(LOG_LAMBDA_BOUNDS[0], LOG_LAMBDA_BOUNDS[1], 33)
NEWTON_MAX_STEPS = 20
# d = 1 golden-section passes or d >= 2 Newton descents, and the log10
# tolerance that ends each of them
REFINE_PASSES = 3
REFINE_TOL = 1e-3
_MAX_HALVINGS = 30
# column blocks of the lower-trapezoidal solve L^{-1} R^T (2, 4 and 8 measured)
_TRACE_BLOCKS = 4


@dataclass
class FittedScale:
    """Optimized network at one scale; an unfit one has cost +inf, the rest None."""

    theta: np.ndarray | None
    lam: np.ndarray | None
    q: tuple[int, ...] | None
    cost: float


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


def _factor(S: np.ndarray):
    """Cholesky of S in one attempt, in place where its layout allows; raises
    ``IllConditionedScaleError`` if S is not positive definite to working precision."""
    try:
        return cho_factor(S, lower=True, overwrite_a=True, check_finite=False)
    except LinAlgError as exc:
        raise IllConditionedScaleError(
            "penalized normal equations singular to working precision"
        ) from exc


def _assembled(C: np.ndarray, P, w: float) -> np.ndarray:
    """C + w P, checked finite (a band's C once per search, by ``_prepared``).
    A band writes C[index] + w p over C + 0.0, the dense sum's operations, in
    a buffer it owns; its F-ordered view, factored in place, is S bit for bit."""
    if not isinstance(P, tuple):
        return np.asarray_chkfinite(C + w * P)
    index, p = P
    S = np.add(C, 0.0, order="C")
    S.ravel()[index] = np.asarray_chkfinite(np.take(C, index) + w * p)
    return S.T


def _lower_solve(L: np.ndarray, T: np.ndarray) -> np.ndarray:
    """L^{-1} T for lower triangular L and lower trapezoidal T (l x k, k <= l).

    Column j of T is zero above row j, and so is column j of the result, so
    each of ``_TRACE_BLOCKS`` column blocks is solved from its diagonal down, by
    one xTRSM in place in a copy of T: the first (largest) on the ``_blas`` worker.
    """
    out = np.array(T, order="F")
    edges = np.linspace(0, T.shape[1], _TRACE_BLOCKS + 1).astype(int)
    first, *rest = [(L[a:, a:], out[a:, a:b]) for a, b in zip(edges[:-1], edges[1:])]
    _blas.each([(_blas.trsm, 1.0, *first), (lambda: [_blas.trsm(1.0, *b) for b in rest],)])
    return out


class _PenalizedSystem:
    """The penalized system S = C + w P of basis B, factored once.

    C = B^T B unless the caller passes it, and w = n except on a pencil
    line's anchor.  P is dense, or a band pair (index, p): P's values p at
    the sorted flat indices ``index``.  ``_assembled`` forms S; S = L L^T by
    ``_factor``, one attempt that raises ``IllConditionedScaleError``.
    With R the min(n, l) x l factor of a thin QR of B (R^T R = B^T B; formed
    on the first trace read unless the caller passes it) and
    V = L^{-1} R^T, an l x min(n, l) matrix, U = B S^{-1} B^T
    has the nonzero spectrum of V^T V, so tr U = ||V||^2 and
    tr U U^T = ||V V^T||^2.  V, the traces and L^{-1} (xTRTRI) are formed
    only when first read.
    """

    def __init__(self, B: np.ndarray, P, w: float, C: np.ndarray | None = None,
                 R: np.ndarray | None = None):
        self.B, self.R = B, R
        C = B.T @ B if C is None else C
        self.factor = _factor(_assembled(C, P, w))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return cho_solve(self.factor, rhs, check_finite=False)

    @cached_property
    def Linv(self) -> np.ndarray:
        Linv, info = dtrtri(self.factor[0], lower=1)
        if info != 0:
            raise LinAlgError(f"dtrtri: info {info}")
        return Linv

    @cached_property
    def V(self) -> np.ndarray:
        R = np.linalg.qr(self.B, mode="r") if self.R is None else self.R
        return _lower_solve(self.factor[0], R.T)

    @cached_property
    def trace_u(self) -> float:
        return float(np.sum(self.V * self.V))

    @cached_property
    def trace_uut(self) -> float:
        M = self.V @ self.V.T
        return float(np.sum(M * M))


def solve_weights(B: np.ndarray, Y: np.ndarray, P: np.ndarray, n: int) -> np.ndarray:
    """theta = (B^T B + n P)^{-1} B^T Y via Cholesky, never an explicit inverse."""
    B = np.asarray(B, dtype=float)
    Y = np.asarray(Y, dtype=float).ravel()
    return _PenalizedSystem(B, np.asarray(P, dtype=float), n).solve(B.T @ Y)


def influence_matrix(B: np.ndarray, P: np.ndarray, n: int) -> np.ndarray:
    """Full hat matrix U = B (B^T B + n P)^{-1} B^T (n x n; on-demand only)."""
    B = np.asarray(B, dtype=float)
    return B @ _PenalizedSystem(B, np.asarray(P, dtype=float), n).solve(B.T)


def influence_traces(B: np.ndarray, P: np.ndarray, n: int) -> tuple[float, float]:
    """(tr U, tr U U^T) from the factorization, without forming U."""
    system = _PenalizedSystem(np.asarray(B, dtype=float), np.asarray(P, dtype=float), n)
    return system.trace_u, system.trace_uut


def gcv(B: np.ndarray, Y: np.ndarray, P: np.ndarray, n: int) -> float:
    """GCV score of the penalized fit; raises when tr(I - U) vanishes."""
    B = np.asarray(B, dtype=float)
    Y = np.asarray(Y, dtype=float).ravel()
    system = _PenalizedSystem(B, np.asarray(P, dtype=float), n)
    return _gcv_score(n, system.trace_u, Y - B @ system.solve(B.T @ Y))


def _gcv_score(n: int, trace_u: float, resid: np.ndarray) -> float:
    """GCV = n ||resid||^2 / (n - tr U)^2; raises when tr(I - U) <= n * 1e-12."""
    denom = n - trace_u
    if denom <= n * 1e-12:
        raise DegenerateGCVError(
            "tr(I - U) = 0: unpenalized full-rank interpolation has no GCV score"
        )
    return n * float(resid @ resid) / denom**2


class _PencilLine:
    """GCV along the penalty direction Psi = Psi_1 + ... + Psi_d, from their
    ``penalty_band`` pair ``band``.

    The line of systems C + n*lam*Psi is whitened against its lam_floor
    member S = L L^T (raises ``IllConditionedScaleError`` when S cannot be
    factored): LAPACK's xSYGST reduces n*Psi to
    K = L^{-1} (n Psi) L^{-T} in one blocked pass, in place in the buffer
    that holds n Psi, ``eigh`` diagonalizes
    K = W diag(gamma) W^T, and one triangular solve back-transforms the
    eigenvectors to V = L^{-T} W, so Btilde = B V.  Every lambda evaluation
    is then O(n l): tr U = sum_j ||Btilde_j||^2 / (1 + (lam - floor) gamma_j)
    and the fitted values are a diagonal reweighting of Btilde^T Y.  Since
    lam_floor * gamma_j <= 1, every denominator is at least
    min(1, lam / lam_floor): exact for every lam > 0, and at least 1 from the
    anchor up, which is why the seed line is anchored at the box floor; there
    whitening costs digits at large lam instead (``optimize_lambda``).
    """

    def __init__(self, C, B, Y, band, n, lam_floor):
        self.n = n
        self.Y = Y
        self.lam_floor = lam_floor
        index, values = band
        psi = sum(values)
        L = _PenalizedSystem(B, (index, psi), n * lam_floor, C).factor[0]
        K = np.zeros(C.shape)
        K.ravel()[index] = n * psi
        K, info = dsygst(K.T, L, itype=1, lower=1, overwrite_a=1)  # n Psi is symmetric
        if info != 0:
            raise LinAlgError(f"dsygst: illegal value in argument {-info}")
        gamma, W = np.linalg.eigh(K, UPLO="L")  # xSYGST fills the lower triangle only
        del K
        self.gamma = np.maximum(gamma, 0.0)
        V = solve_triangular(L, W, trans="T", lower=True, check_finite=False)
        del L, W  # before B V, the line's n x l basis
        self.B_tilde = B @ V
        self.zc = self.B_tilde.T @ Y
        self.cdiag = np.sum(self.B_tilde**2, axis=0)  # diag of whitened B^T B

    def cost_at(self, lam: float) -> float:
        den = 1.0 + (lam - self.lam_floor) * self.gamma
        tr_u = float((self.cdiag / den).sum())
        try:
            return _gcv_score(self.n, tr_u, self.Y - self.B_tilde @ (self.zc / den))
        except DegenerateGCVError:
            return np.inf


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


class _GCVSurface:
    """GCV as a function of log10 weights rho for fixed orders ``q``.

    ``at(rho)`` forms S = C + n P from the band of orders ``q`` on
    ``centers``, bit for bit as ``gcv`` does from the dense P, so a point's
    ``cost`` is that score at Lambda = 10**rho (+inf when S cannot be
    factored or tr(I - U) vanishes).  ``derivatives(point)`` gives its
    gradient and Hessian in rho.  B enters the traces only through
    B^T B = R^T R, with R the thin-QR factor of B.  With S = L L^T,
    V = L^{-1} R^T, A = S^{-1} R^T = L^{-T} V, P_i = n lam_i Psi_i and
    Z_i = L^{-1} P_i A, all l x l for n >= l, in eta = ln Lambda (Wood 2004,
    JASA 99:673):

        tau = tr U = ||V||^2,  d tau_i = -tr(A^T P_i A),
        d2 tau_ij = 2 <Z_i, Z_j> + delta_ij d tau_i,
        d theta_i = -S^{-1} P_i theta,

    and the residual sum of squares follows from theta, d theta_i, B and the
    residual, O(n l) each.  The banded Psi_i act through ``component_action``
    and L^{-1} is the system's ``Linv``, so a Hessian costs d + 1 triangular
    products with an l x l matrix and no further factorization.
    """

    def __init__(self, B, Y, C, R, centers, n, q):
        self.B, self.Y, self.C, self.R, self.n = B, Y, C, R, n
        self.index, self.values = penalty_band(q, centers)
        self.BtY = B.T @ Y
        self.actions = [component_action(qi, centers, i) for i, qi in enumerate(q)]

    def at(self, rho: np.ndarray) -> SimpleNamespace:
        n, lam = self.n, 10.0**rho
        point = SimpleNamespace(rho=rho, lam=lam, cost=np.inf)
        try:
            system = point.system = _PenalizedSystem(
                self.B, (self.index, weighted_penalty(lam, self.values)), n, self.C, self.R
            )
            point.theta = system.solve(self.BtY)
            point.resid = self.Y - self.B @ point.theta
            point.cost = _gcv_score(n, system.trace_u, point.resid)
        except (IllConditionedScaleError, DegenerateGCVError):
            pass
        return point

    def derivatives(self, point) -> tuple[np.ndarray, np.ndarray]:
        """Gradient and Hessian of the cost in log10 Lambda at ``point``.  ``_blas.each``
        forms each Z_i but the last on its worker while P_{i+1} A forms here."""
        n, d, system = self.n, len(self.actions), point.system
        A = system.V
        del system.V  # A takes V's memory; V is formed again if read
        A = _blas.trmm(1.0, system.Linv, A, trans=True)
        scale = n * point.lam
        dtau = np.empty(d)

        def products():
            for i, (s_i, act) in enumerate(zip(scale, self.actions)):
                PA = act(A)  # F-ordered, as A is
                dtau[i] = -s_i * np.einsum("ij,ij->", A, PA)
                yield _blas.trmm, s_i, system.Linv, PA  # Z_i, in place

        Z = _blas.each(products(), d)
        del A
        d2tau = np.diag(dtau)
        Ptheta = [s_i * act(point.theta) for s_i, act in zip(scale, self.actions)]
        dtheta = [-system.solve(v) for v in Ptheta]
        w = system.solve(self.B.T @ point.resid)
        Bdtheta = self.B @ np.column_stack(dtheta)
        drss = np.array([2.0 * float(w @ v) for v in Ptheta])
        d2rss = np.diag(drss) + 2.0 * (Bdtheta.T @ Bdtheta)
        for i in range(d):
            for j in range(i, d):
                d2tau[i, j] += 2.0 * np.einsum("ij,ij->", Z[i], Z[j])
                cross = (scale[j] * self.actions[j](dtheta[i])
                         + scale[i] * self.actions[i](dtheta[j]))
                d2rss[i, j] += 2.0 * float(w @ cross)
                d2tau[j, i], d2rss[j, i] = d2tau[i, j], d2rss[i, j]
        # cost = n rss / D^2 with D = n - tau, so d cost / d tau = 2 cost / D
        D, cost = n - system.trace_u, point.cost
        grad = n * drss / D**2 + 2.0 * cost * dtau / D
        hess = (
            n * d2rss / D**2
            + 2.0 * n * (np.outer(drss, dtau) + np.outer(dtau, drss)) / D**3
            + 2.0 * cost * d2tau / D
            + 6.0 * cost * np.outer(dtau, dtau) / D**2
        )
        ln10 = np.log(10.0)
        return ln10 * grad, ln10**2 * hess


def _descent_direction(g: np.ndarray, H: np.ndarray) -> np.ndarray:
    """-H^{-1} g, with H shifted by a multiple of I until it is positive
    definite (Nocedal & Wright 2006, Algorithm 3.3)."""
    eye = np.eye(len(g))
    beta = 1e-3 * max(float(np.max(np.abs(np.diag(H)))), float(np.max(np.abs(g))), 1e-300)
    shift = 0.0 if np.min(np.diag(H)) > 0.0 else beta
    while True:
        try:
            R = np.linalg.cholesky(H + shift * eye)
            break
        except np.linalg.LinAlgError:
            shift = max(2.0 * shift, beta)
    return -cho_solve((R, True), g, check_finite=False)


def _newton(surface: _GCVSurface, rho: np.ndarray, tol: float):
    """Projected, backtracking Newton descent on the log10 box from ``rho``.

    A coordinate on a bound whose gradient points out of the box is held
    there; the others take the (modified) Newton step, projected onto the
    box and halved until the cost falls by the Armijo margin.  Stops when a
    step moves no coordinate by ``tol`` or more, when no step lowers the
    cost, when the derivatives are not finite, or after ``NEWTON_MAX_STEPS``
    steps.
    """
    lo, hi = LOG_LAMBDA_BOUNDS
    x = surface.at(rho)
    for _ in range(NEWTON_MAX_STEPS if np.isfinite(x.cost) else 0):
        g, H = surface.derivatives(x)
        del x.system  # only x.rho and x.cost are read from here on
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(H))):
            break
        free = ~(((x.rho <= lo) & (g > 0.0)) | ((x.rho >= hi) & (g < 0.0)))
        if not free.any():
            break
        step = np.zeros_like(g)
        step[free] = _descent_direction(g[free], H[np.ix_(free, free)])
        for halving in range(_MAX_HALVINGS):
            trial = surface.at(np.clip(x.rho + 0.5**halving * step, lo, hi))
            decrease = min(float(g @ (trial.rho - x.rho)), 0.0)
            if trial.cost < x.cost and trial.cost <= x.cost + 1e-4 * decrease:
                break
        else:
            break
        moved = float(np.max(np.abs(trial.rho - x.rho)))
        x = trial
        if moved < tol:
            break
    return x


def _floor_points(surface: _GCVSurface, rho: np.ndarray) -> list:
    """(cost, rho) with one weight of ``rho`` at a time moved to the box floor.

    A weight at the floor leaves its dimension unsmoothed; GCV often has a
    basin there that Newton from the diagonal does not reach.
    """
    lo = LOG_LAMBDA_BOUNDS[0]
    points = []
    for i in np.flatnonzero(rho != lo):
        moved = rho.copy()
        moved[i] = lo
        points.append((surface.at(moved).cost, moved))
    return points


def _grid_line(B, Y, C, centers, n, q):
    """(line, g, cost): the pencil line along Psi_1 + ... + Psi_d anchored at
    the box floor, and its lowest point g on ``LOG_LAMBDA_SEEDS``; (None, None,
    inf) when the anchor cannot be factored or every cost is +inf."""
    grid = LOG_LAMBDA_SEEDS
    try:
        line = _PencilLine(C, B, Y, penalty_band(q, centers), n, 10.0 ** grid[0])
    except IllConditionedScaleError:
        return None, None, np.inf
    costs = [line.cost_at(10.0**g) for g in grid]
    k = int(np.argmin(costs))
    return (line, grid[k], costs[k]) if np.isfinite(costs[k]) else (None, None, np.inf)


def _line_search(B, Y, C, centers, n, q) -> tuple[np.ndarray | None, float]:
    """``optimize_lambda`` for d = 1 with C = B^T B, by golden section on the pencil line
    of orders ``q`` (Newton on ``_GCVSurface``: the same t and Q_t, 1.9-2.2x slower)."""
    line, point, best_cost = _grid_line(B, Y, C, centers, n, q)
    if line is None:
        return None, np.inf
    step = LOG_LAMBDA_SEEDS[1] - LOG_LAMBDA_SEEDS[0]
    for _ in range(REFINE_PASSES):
        lo, hi = np.clip([point - step, point + step], *LOG_LAMBDA_BOUNDS)
        x_best, c_best = _golden_section(lambda x: line.cost_at(10.0**x), lo, hi, REFINE_TOL)
        if not c_best < best_cost:
            break  # the next pass would search the same interval again
        point, best_cost = x_best, c_best
    return 10.0 ** np.asarray([point]), best_cost


def _newton_search(surface: _GCVSurface, seed) -> tuple[np.ndarray | None, float]:
    """``optimize_lambda`` for d >= 2 on ``surface`` from the log10 ``seed`` on
    the diagonal (None when the seed line was degenerate)."""
    if seed is None:
        return None, np.inf
    rho = np.full(len(surface.actions), seed)
    found = _floor_points(surface, rho)
    for _ in range(REFINE_PASSES):
        end = _newton(surface, rho, REFINE_TOL)
        found += [(end.cost, end.rho)] + _floor_points(surface, end.rho)
        cost, rho = min(found, key=lambda point: point[0])
        if not cost < end.cost:
            break
    return (10.0**rho, cost) if np.isfinite(cost) else (None, np.inf)


def _searches(B, Y, C, centers, n, combos) -> list:
    """(Lambda, cost) of each order combination in ``combos``, in their order.

    For d = 1, ``_blas.each`` runs the ``_line_search`` of every combination but
    the last on its worker and the last here; the searches share no state, so no
    bit changes, and each holds its own pencil line.  For d >= 2 every seed line
    runs, and is freed, before the thin-QR factor R of B is formed for the
    ``_newton_search`` of each combination, so R is alive in no line's ``eigh``."""
    if centers.shape[1] == 1:
        return _blas.each([(_line_search, B, Y, C, centers, n, q) for q in combos])
    seeds = [_grid_line(B, Y, C, centers, n, q)[1] for q in combos]
    R = np.linalg.qr(B, mode="r")
    return [_newton_search(_GCVSurface(B, Y, C, R, centers, n, q), seed)
            for q, seed in zip(combos, seeds)]


def _prepared(B, Y, centers):
    """(B, Y, centers, C) as float arrays, centers a table with one row per column
    of B (``ValueError`` else), and C = B^T B checked finite."""
    B = np.asarray(B, dtype=float)
    Y = np.asarray(Y, dtype=float).ravel()
    centers = point_table(centers)
    if B.ndim != 2 or B.shape[1] != len(centers):
        raise ValueError(f"{len(centers)} centers for a basis of shape {B.shape}")
    return B, Y, centers, np.asarray_chkfinite(B.T @ B)


def optimize_lambda(
    B: np.ndarray, Y: np.ndarray, centers: np.ndarray, n: int, q: tuple[int, ...]
) -> tuple[np.ndarray | None, float]:
    """Best positive weights for fixed penalty orders ``q``.

    Returns (Lambda, cost) with log10 Lambda inside ``LOG_LAMBDA_BOUNDS``;
    cost is the ``gcv`` score at Lambda (for d = 1 the pencil line's, which
    drifts from it as lam grows: on the 17 d = 1 benchmark fits by up to
    3.2e-9 relative at the winning scales, 1.6e-6 at any); (None, inf) when
    every candidate was degenerate.  For every d, one ``_PencilLine`` along
    Psi_1 + ... + Psi_d, anchored at the box floor, scores the diagonal
    lambda_1 = ... = lambda_d on the log10 grid ``LOG_LAMBDA_SEEDS``.

    d = 1: up to ``REFINE_PASSES`` golden-section passes, each over one grid
    step either side of the incumbent, narrow it to ``REFINE_TOL`` decades;
    a pass that does not lower the cost ends the refinement.

    d >= 2: the best grid point seeds a projected Newton descent on log10
    Lambda with the exact GCV gradient and Hessian (``_GCVSurface``, one
    Cholesky per point), which stops once a step moves no log10 weight by
    ``REFINE_TOL`` or more.  The seed and the end of each descent are also
    tried with one weight at a time at the box floor; the lowest such point,
    if it beats the descent, starts the next one, up to ``REFINE_PASSES``
    descents in all.  The search is local: GCV can have several basins, and
    one the diagonal does not lead to can be missed.  Orders ``q`` other
    than one of {1, 2} per dimension raise ``ValueError`` before any factoring.
    """
    B, Y, centers, C = _prepared(B, Y, centers)
    d = centers.shape[1]
    if len(q) != d or any(v not in ORDERS for v in q):
        raise ValueError(f"penalty orders q={q!r} must be one of 1 or 2 for each of "
                         f"the d={d} dimensions")
    return _searches(B, Y, C, centers, n, [tuple(int(v) for v in q)])[0]


def optimize_gcv(B: np.ndarray, Y: np.ndarray, centers: np.ndarray, n: int) -> FittedScale:
    """Minimize GCV over Lambda > 0 and Q in {1,2}^d; ties keep the lexically first Q.

    B^T B and, for d >= 2, the thin-QR factor R of B are shared by every
    combination's search (``_searches``); each search holds only the band of
    its own components Psi_i, and no dense Psi_i or P is formed.  When every
    combination is degenerate the scale is unfit: cost +inf, the rest None.
    The winner's system is factored once, with no retry: for d >= 2 the
    search factored it already, and for d = 1 it adds n (lam - lam_floor) Psi,
    positive semidefinite, to the line's anchor, which factored.
    """
    B, Y, centers, C = _prepared(B, Y, centers)
    combos = list(itertools.product(ORDERS, repeat=centers.shape[1]))
    candidates = [(*found, q) for found, q in zip(_searches(B, Y, C, centers, n, combos), combos)]
    lam, cost, q = min(candidates, key=lambda c: c[1])
    if lam is None:
        return FittedScale(theta=None, lam=None, q=None, cost=np.inf)

    # the weights solve the winner's system, from its band, bit for bit as
    # ``solve_weights`` does from the dense P
    index, values = penalty_band(q, centers)
    theta = _PenalizedSystem(B, (index, weighted_penalty(lam, values)), n, C).solve(B.T @ Y)
    return FittedScale(theta=theta, lam=lam, q=q, cost=cost)


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
    B = np.asarray(B, dtype=float)
    R_x = kernel_matrix(x, X, epsilon_s).ravel()
    r_sel = R_x[np.asarray(selected, dtype=int)]
    C = B.T @ B
    penalized = _PenalizedSystem(B, np.asarray(P, dtype=float), n, C)
    M_lambda = B @ penalized.solve(r_sel)
    M_zero = B @ _PenalizedSystem(B, np.zeros_like(C), n, C).solve(r_sel)
    a = float((B.T @ M_zero) @ penalized.solve(B.T @ R_x))
    return RepresenterOracle(M_lambda=M_lambda, M_zero=M_zero, R_x=R_x, a=a)
