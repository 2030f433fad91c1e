import itertools
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from hiersparse import network
from hiersparse import (
    DegenerateGCVError,
    IllConditionedScaleError,
    PenaltySpec,
    gcv,
    influence_matrix,
    influence_traces,
    kernel_matrix,
    optimize_gcv,
    optimize_lambda,
    penalty_operator,
    representer,
    solve_weights,
)
from hiersparse.network import LOG_LAMBDA_BOUNDS
from hiersparse import penalty
from hiersparse.penalty import penalty_band, penalty_components, weighted_penalty
from helpers import (
    gcv_oracle,
    make_basis_problem,
    make_dataset,
    rel_err,
    weights_lstsq_oracle,
)


def _penalty_for(prob, Q=None, lam=None):
    d = prob["centers"].shape[1]
    Q = Q if Q is not None else (1,) * d
    lam = lam if lam is not None else np.full(d, 0.1)
    return penalty_operator(PenaltySpec(Q=Q, Lambda=np.asarray(lam)), prob["centers"]).P


class TestSolveWeights:
    def test_identity_basis_closed_form(self):
        Y = np.array([3.0, -1.0])
        theta = solve_weights(np.eye(2), Y, 0.5 * np.eye(2), n=2)
        assert theta == pytest.approx(Y / 2.0, rel=1e-12)
        lam = 0.17
        theta = solve_weights(np.eye(2), Y, lam * np.eye(2), n=2)
        assert theta == pytest.approx(Y / (1.0 + 2.0 * lam), rel=1e-12)

    def test_unpenalized_square_interpolates(self):
        rng = np.random.default_rng(0)
        B = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
        Y = rng.standard_normal(4)
        theta = solve_weights(B, Y, np.zeros((4, 4)), n=4)
        assert rel_err(theta, np.linalg.solve(B, Y)) < 1e-9

    def test_matches_least_squares_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(5):
            B = rng.standard_normal((10, 4))
            Y = rng.standard_normal(10)
            F = rng.standard_normal((3, 4))
            theta = solve_weights(B, Y, F.T @ F, n=10)
            assert rel_err(theta, weights_lstsq_oracle(B, Y, F, 10)) < 1e-9


class TestInfluence:
    def test_orthonormal_basis_zero_penalty_is_projector(self):
        rng = np.random.default_rng(2)
        Q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        U = influence_matrix(Q, np.zeros((3, 3)), n=8)
        assert np.allclose(U, Q @ Q.T, atol=1e-12)
        assert np.allclose(U @ U, U, atol=1e-12)

    def test_trace_decreases_with_penalty_weight(self):
        prob = make_basis_problem(30, 1, seed=3)
        B, centers, n = prob["B"], prob["centers"], prob["n"]
        traces = []
        for lam in [1e-4, 1e-2, 1.0, 1e2, 1e4]:
            P = penalty_operator(
                PenaltySpec(Q=(1,), Lambda=np.array([lam])), centers
            ).P
            traces.append(influence_traces(B, P, n)[0])
        assert all(a >= b - 1e-10 for a, b in zip(traces, traces[1:]))
        assert traces[0] > traces[-1]

    def test_symmetric(self):
        prob = make_basis_problem(25, 2, seed=4)
        U = influence_matrix(prob["B"], _penalty_for(prob), prob["n"])
        assert np.allclose(U, U.T, rtol=1e-10, atol=1e-12)

    def test_fitted_values_for_every_y(self):
        prob = make_basis_problem(20, 1, seed=5)
        P = _penalty_for(prob)
        U = influence_matrix(prob["B"], P, prob["n"])
        rng = np.random.default_rng(6)
        for _ in range(4):
            Y = rng.standard_normal(prob["n"])
            theta = solve_weights(prob["B"], Y, P, prob["n"])
            assert rel_err(U @ Y, prob["B"] @ theta) < 1e-9

    def test_traces_match_explicit_matrix(self):
        prob = make_basis_problem(18, 1, seed=7)
        P = _penalty_for(prob)
        U = influence_matrix(prob["B"], P, prob["n"])
        tr_u, tr_uut = influence_traces(prob["B"], P, prob["n"])
        assert tr_u == pytest.approx(np.trace(U), rel=1e-10)
        assert tr_uut == pytest.approx(np.trace(U @ U.T), rel=1e-10)


def _trace_problem(l, shape, extra, duplicate, seed):
    """Random l-column basis, tall, square or wide, and an SPD penalty."""
    n = {"tall": l + extra, "square": l, "wide": max(1, l - extra)}[shape]
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, l))
    if duplicate and l > 1:
        B[:, -1] = B[:, 0]
    A = rng.standard_normal((l, l))
    return B, A @ A.T / l + rng.uniform(1e-3, 1.0) * np.eye(l), n


_TRACE_CASES = dict(
    l=st.integers(1, 3 * network._TRACE_BLOCKS + 1),
    shape=st.sampled_from(["tall", "square", "wide"]),
    extra=st.integers(1, 20),
    duplicate=st.booleans(),
    seed=st.integers(0, 2**16),
)


class TestTracePath:
    """The traces come from V = L^{-1} R^T, with R the thin-QR factor of B."""

    @settings(max_examples=60, deadline=None)
    @given(**_TRACE_CASES)
    def test_traces_equal_the_explicit_hat_matrix(self, l, shape, extra, duplicate, seed):
        B, P, n = _trace_problem(l, shape, extra, duplicate, seed)
        U = influence_matrix(B, P, n)
        tr_u, tr_uut = influence_traces(B, P, n)
        assert tr_u == pytest.approx(np.trace(U), rel=1e-10)
        assert tr_uut == pytest.approx(np.sum(U * U), rel=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(**_TRACE_CASES)
    def test_block_solve_equals_the_full_triangular_solve(self, l, shape, extra, duplicate,
                                                          seed):
        B, P, n = _trace_problem(l, shape, extra, duplicate, seed)
        system = network._PenalizedSystem(B, P, n)
        R = np.linalg.qr(B, mode="r")
        ref = solve_triangular(system.factor[0], R.T, lower=True)
        assert system.V.shape == (l, min(n, l))  # l columns, not n, for a tall B
        assert np.max(np.abs(system.V - ref)) <= 1e-12 * np.max(np.abs(ref))
        # a factor the caller passes in gives the same bits as one formed lazily
        passed = network._PenalizedSystem(B, P, n, R=R)
        assert np.array_equal(passed.V, system.V)


class TestDuplicatedRows:
    """Stacking (B, Y) on itself, with n -> 2n, doubles both sides of
    (B^T B + n P) theta = B^T Y and of tr U's ratio, so none of them moves."""

    @settings(max_examples=300, deadline=None)
    @given(l=st.integers(1, 12), extra=st.integers(0, 20), k=st.integers(1, 12),
           seed=st.integers(0, 2**16))
    def test_weights_and_traces_are_unchanged(self, l, extra, k, seed):
        rng = np.random.default_rng(seed)
        n = l + extra
        B, Y = rng.standard_normal((n, l)), rng.standard_normal(n)
        F = rng.standard_normal((k, l))
        P = F.T @ F
        B2, Y2 = np.vstack([B, B]), np.concatenate([Y, Y])
        theta, theta2 = solve_weights(B, Y, P, n), solve_weights(B2, Y2, P, 2 * n)
        assert np.linalg.norm(theta2 - theta) <= 1e-9 * np.linalg.norm(theta)
        for once, twice in zip(influence_traces(B, P, n), influence_traces(B2, P, 2 * n)):
            assert twice == pytest.approx(once, rel=1e-9)


class TestGCV:
    def test_zero_basis_limit(self):
        Y = np.array([1.0, -2.0, 3.0, 0.5])
        value = gcv(np.zeros((4, 2)), Y, np.eye(2), n=4)
        assert value == pytest.approx(float(Y @ Y) / 4.0, rel=1e-12)

    def test_unpenalized_interpolation_degenerate(self):
        with pytest.raises(DegenerateGCVError):
            gcv(np.eye(3), np.array([1.0, 2.0, 3.0]), np.zeros((3, 3)), n=3)
        # two centers leave an order-2 penalty no row, so Psi = 0 and
        # tr(I - U) = 0 at every weight: each scorer meets the floor
        B, Y, centers = np.eye(2), np.array([1.0, -2.0]), np.array([[0.0], [1.0]])
        with pytest.raises(DegenerateGCVError):
            gcv(B, Y, penalty_operator(PenaltySpec((2,), np.ones(1)), centers).P, n=2)
        line = network._PencilLine(B.T @ B, B, Y, penalty_band((2,), centers), 2, 1e-8)
        assert line.cost_at(1.0) == np.inf
        surface = network._GCVSurface(B, Y, B.T @ B, np.linalg.qr(B, mode="r"), centers, 2,
                                      (2,))
        assert surface.at(np.zeros(1)).cost == np.inf
        lam, cost = optimize_lambda(B, Y, centers, 2, (2,))
        assert lam is None and cost == np.inf

    def test_three_point_hand_oracle(self):
        rng = np.random.default_rng(8)
        B = rng.standard_normal((3, 2))
        Y = rng.standard_normal(3)
        pts = np.array([[0.0], [1.0]])
        P = penalty_operator(PenaltySpec(Q=(1,), Lambda=np.array([0.1])), pts).P
        assert gcv(B, Y, P, 3) == pytest.approx(gcv_oracle(B, Y, P, 3), rel=1e-10)


class TestOptimize:
    def test_pure_noise_is_smoothed(self):
        rng = np.random.default_rng(9)
        ds = make_dataset(60, 1, seed=9, noise=0.0)
        Y = rng.standard_normal(60)  # no structure at all
        prob = make_basis_problem(60, 1, seed=9, s=1)  # coarse basis
        fs = optimize_gcv(prob["B"], Y, prob["centers"], prob["n"])
        assert np.var(prob["B"] @ fs.theta) < np.var(Y)
        assert fs.cost > 0.0

    def test_linear_data_prefers_second_order(self):
        # linear structure sits in the second-difference null space, so once
        # any smoothing is warranted (small noise) q=2 scores at least as well
        rng = np.random.default_rng(10)
        X = np.sort(rng.uniform(0, 1, size=(40, 1)), axis=0)
        Y = 2.0 * X[:, 0] + 1.0 + 0.05 * rng.standard_normal(40)
        from hiersparse import diameter_T, gram, numerical_rank, pivoted_qr_permutation, select_basis, sketch

        G = gram(X, diameter_T(X) / 4.0)
        l = numerical_rank(G, 1e-10)
        basis = select_basis(G, pivoted_qr_permutation(sketch(G, l, 8, 0)), l)
        centers = X[basis.selected]
        _, cost_q1 = optimize_lambda(basis.B, Y, centers, 40, (1,))
        _, cost_q2 = optimize_lambda(basis.B, Y, centers, 40, (2,))
        assert cost_q2 <= cost_q1

    def test_returns_min_over_all_order_combinations(self):
        prob = make_basis_problem(30, 2, seed=11, s=2)
        B, Y, centers, n = prob["B"], prob["Y"], prob["centers"], prob["n"]
        fs = optimize_gcv(B, Y, centers, n)
        by_hand = []
        for q_combo in itertools.product((1, 2), repeat=2):
            _, cost = optimize_lambda(B, Y, centers, n, q_combo)
            by_hand.append((q_combo, cost))
        best_combo, best_cost = min(by_hand, key=lambda t: t[1])
        assert fs.cost == pytest.approx(best_cost, rel=1e-12)
        assert len(by_hand) == 4
        assert fs.q in [c for c, _ in by_hand]

    @pytest.mark.parametrize("d", [1, 2])
    def test_equal_costs_keep_the_first_order_combination(self, monkeypatch, d):
        for name in ("_line_search", "_newton_search"):
            monkeypatch.setattr(network, name, lambda *args: (np.full(d, 0.1), 1.0))
        prob = make_basis_problem(40, d, seed=3, s=1)
        fs = optimize_gcv(prob["B"], prob["Y"], prob["centers"], prob["n"])
        assert fs.q == (1,) * d
        assert fs.cost == 1.0

    @pytest.mark.parametrize("d", [1, 2])
    def test_decreasing_costs_pick_the_last_order_combination(self, monkeypatch, d):
        # keyed by the orders q, not by call order: d = 1 searches on two threads.
        # For d >= 2 a stand-in surface, its orders q, carries them to the search
        combos = list(itertools.product((1, 2), repeat=d))
        costs = dict(zip(combos, np.arange(2.0**d, 0.0, -1.0)))
        monkeypatch.setattr(network, "_line_search", lambda B, Y, C, centers, n, q:
                            (np.full(d, 0.1), costs[q]))
        monkeypatch.setattr(network, "_GCVSurface", lambda B, Y, C, R, centers, n, q: q)
        monkeypatch.setattr(network, "_newton_search", lambda q, seed:
                            (np.full(d, 0.1), costs[q]))
        prob = make_basis_problem(40, d, seed=3, s=1)
        fs = optimize_gcv(prob["B"], prob["Y"], prob["centers"], prob["n"])
        assert fs.q == (2,) * d
        assert fs.cost == 1.0

    def test_fitted_scale_consistency(self):
        prob = make_basis_problem(30, 1, seed=12)
        fs = optimize_gcv(prob["B"], prob["Y"], prob["centers"], prob["n"])
        assert fs.theta.shape == (prob["l"],)
        assert np.all(fs.lam > 0.0)
        # fitted values reproduce the influence-matrix action
        P = penalty_operator(PenaltySpec(fs.q, fs.lam), prob["centers"]).P
        U = influence_matrix(prob["B"], P, prob["n"])
        assert rel_err(prob["B"] @ fs.theta, U @ prob["Y"]) < 1e-8

    @pytest.mark.parametrize("d, n, seed, s", [(1, 60, 3, 3), (2, 80, 4, 2), (3, 40, 5, 1)])
    def test_weights_are_the_solve_weights_result_bit_for_bit(self, d, n, seed, s):
        prob = make_basis_problem(n, d, seed=seed, s=s)
        fs = optimize_gcv(prob["B"], prob["Y"], prob["centers"], n)
        P = penalty_operator(PenaltySpec(fs.q, fs.lam), prob["centers"]).P
        assert np.array_equal(fs.theta, solve_weights(prob["B"], prob["Y"], P, n))

    @pytest.mark.parametrize("d, q", [(2, (1,)), (2, (3, 1)), (2, (0, 1)), (1, (1.5,))])
    def test_undefined_orders_are_refused_before_any_factorization(self, monkeypatch, d, q):
        prob = make_basis_problem(60, d, seed=1, s=2)
        factors = []
        _counting(monkeypatch, "cho_factor", factors)
        with pytest.raises(ValueError, match=re.escape(f"q={q!r}")):
            optimize_lambda(prob["B"], prob["Y"], prob["centers"], prob["n"], q)
        assert factors == []

    @pytest.mark.parametrize("count", [-1, 1])
    @pytest.mark.parametrize("d", [1, 2])
    def test_a_center_count_other_than_the_basis_columns_is_refused_before_any_factorization(
            self, monkeypatch, d, count):
        prob = make_basis_problem(60, d, seed=1, s=2)
        B, Y, centers, n = prob["B"], prob["Y"], prob["centers"], prob["n"]
        centers = centers[:count] if count < 0 else np.vstack([centers, centers[:count]])
        factors = []
        _counting(monkeypatch, "cho_factor", factors)
        for search in (lambda: optimize_gcv(B, Y, centers, n),
                       lambda: optimize_lambda(B, Y, centers, n, (1,) * d)):
            with pytest.raises(ValueError, match=re.escape(
                    f"{len(centers)} centers for a basis of shape {B.shape}")):
                search()
        assert factors == []

    def test_flat_centers_are_the_column(self):
        prob = make_basis_problem(60, 1, seed=3, s=3)
        B, Y, centers, n = prob["B"], prob["Y"], prob["centers"], prob["n"]
        flat, column = (optimize_gcv(B, Y, c, n) for c in (centers[:, 0], centers))
        assert (flat.q, flat.cost) == (column.q, column.cost)
        assert np.array_equal(flat.lam, column.lam) and np.array_equal(flat.theta, column.theta)
        for q in ((1,), (2,)):
            (lam_f, cost_f), (lam_c, cost_c) = (optimize_lambda(B, Y, c, n, q)
                                                for c in (centers[:, 0], centers))
            assert cost_f == cost_c and np.array_equal(lam_f, lam_c)

    def test_one_flat_center_of_two_coordinates_is_read_as_two_points(self):
        prob = make_basis_problem(60, 2, seed=3, s=2)
        B, Y, centers, n = prob["B"][:, :1], prob["Y"], prob["centers"][:1], prob["n"]
        assert network._prepared(B, Y, centers)[2].shape == (1, 2)
        for search in (lambda: optimize_gcv(B, Y, centers[0], n),
                       lambda: optimize_lambda(B, Y, centers[0], n, (1, 1))):
            with pytest.raises(ValueError, match=re.escape(
                    f"2 centers for a basis of shape {B.shape}")):
                search()

    @pytest.mark.parametrize("d", [1, 2])
    def test_search_forms_no_dense_component(self, monkeypatch, d):
        def dense(*args, **kwargs):
            raise AssertionError("a dense penalty component was formed")

        for module in (penalty, network):
            for name in ("penalty_components", "penalty_operator"):
                monkeypatch.setattr(module, name, dense, raising=False)
        prob = make_basis_problem(60, d, seed=3, s=2)
        fs = optimize_gcv(prob["B"], prob["Y"], prob["centers"], prob["n"])
        assert np.isfinite(fs.cost)

    def test_nonfinite_basis_is_refused(self):
        prob = make_basis_problem(40, 2, seed=3, s=1)
        B = prob["B"].copy()
        B[0, 0] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            optimize_gcv(B, prob["Y"], prob["centers"], prob["n"])

    def test_working_set_holds_one_order_combination(self):
        # tracemalloc peak of one d = 2 search at l = n = 200, where each
        # l x l matrix takes 320 kB: 2.826e6 bytes measured with the penalty
        # held as its band and each system assembled and factored in one
        # buffer (3.86e6 with dense components, 4.83e6 with all four
        # combinations' components and the seed line held); the bound is 3.5%
        # above
        prob = make_basis_problem(200, 2, seed=0, s=5)
        args = prob["B"], prob["Y"], prob["centers"], prob["n"]
        optimize_gcv(*args)  # first calls may allocate caches; keep them out
        tracemalloc.start()
        try:
            optimize_gcv(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert prob["l"] == 200
        assert peak < 2.92e6

    def test_three_dimensional_coordinate_descent_path(self):
        prob = make_basis_problem(25, 3, seed=13, s=1, noise=0.2)
        fs = optimize_gcv(prob["B"], prob["Y"], prob["centers"], prob["n"])
        assert len(fs.q) == 3
        assert all(q in (1, 2) for q in fs.q)
        assert np.isfinite(fs.cost)


class TestPencilLine:
    @pytest.mark.parametrize("d, n, seed, s", [(1, 60, 3, 3), (2, 80, 4, 2), (3, 40, 5, 1)])
    def test_optimized_cost_is_the_direct_gcv_score(self, d, n, seed, s):
        prob = make_basis_problem(n, d, seed=seed, s=s)
        B, Y, centers = prob["B"], prob["Y"], prob["centers"]
        for q in itertools.product((1, 2), repeat=d):
            lam, cost = optimize_lambda(B, Y, centers, n, q)
            P = penalty_operator(PenaltySpec(q, lam), centers).P
            assert cost == pytest.approx(gcv(B, Y, P, n), rel=1e-9)

    def test_one_pencil_line_per_order_combination(self, monkeypatch):
        # d >= 2 builds one line, along the diagonal, and solves its Newton
        # systems without eigh, so eigh calls count pencil lines only
        built, eigh_calls = [], []
        eigh = np.linalg.eigh

        class CountingLine(network._PencilLine):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        def counting_eigh(*args, **kwargs):
            eigh_calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(network, "_PencilLine", CountingLine)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        for n, d, seed, s in [(80, 2, 4, 2), (40, 3, 5, 1)]:
            prob = make_basis_problem(n, d, seed=seed, s=s)
            for q in itertools.product((1, 2), repeat=d):
                built.clear()
                eigh_calls.clear()
                _, cost = optimize_lambda(prob["B"], prob["Y"], prob["centers"], n, q)
                assert np.isfinite(cost)
                assert len(built) == 1
                assert len(eigh_calls) == 1


class TestGoldenSection:
    def test_no_pass_repeats_the_interval_of_the_last(self, monkeypatch):
        # a pass that fails to lower the cost leaves the incumbent in place,
        # so another pass would search the same interval from the same point
        # the passes of each search, keyed by its problem and orders q and
        # recorded by the thread it runs on: d = 1 searches its two orders on two threads
        searches, current = {}, threading.local()
        real_search, real_golden = network._line_search, network._golden_section

        def search(B, Y, C, centers, n, q):
            current.passes = searches[problem, q] = []
            return real_search(B, Y, C, centers, n, q)

        def golden(f, a, b, tol):
            current.passes.append((a, b))
            return real_golden(f, a, b, tol)

        monkeypatch.setattr(network, "_line_search", search)
        monkeypatch.setattr(network, "_golden_section", golden)
        for problem in itertools.product(range(4), (1, 2, 3)):
            prob = make_basis_problem(60, 1, seed=problem[0], s=problem[1])
            optimize_gcv(prob["B"], prob["Y"], prob["centers"], prob["n"])
        assert len(searches) == 24
        assert any(len(passes) > 1 for passes in searches.values())
        for passes in searches.values():
            assert 1 <= len(passes) <= network.REFINE_PASSES
            assert all(a != b for a, b in zip(passes, passes[1:]))

    def test_no_grid_point_of_the_box_scores_lower(self):
        # seeded from a grid on [-8, 2] only, 11 of these 192 searches ended
        # above the grid minimum, the worst by 4.1% at (40, 2, 1, q = 1)
        grid = np.linspace(*LOG_LAMBDA_BOUNDS, 33)
        above = []
        for n, seed, s in itertools.product((40, 60, 120), range(8), range(1, 5)):
            prob = make_basis_problem(n, 1, seed=seed, s=s)
            B, Y, centers = prob["B"], prob["Y"], prob["centers"]
            C, R = B.T @ B, np.linalg.qr(B, mode="r")
            for q in [(1,), (2,)]:
                _, cost = optimize_lambda(B, Y, centers, n, q)
                surface = network._GCVSurface(B, Y, C, R, centers, n, q)
                grid_min = min(surface.at(np.array([g])).cost for g in grid)
                if cost > grid_min * (1.0 + 1e-9):
                    above.append((n, seed, s, q, cost / grid_min - 1.0))
        assert above == []


class TestNewtonSearch:
    # points where the penalty conditions S: near the box floor gcv() itself
    # is smooth only to about 1e-10, too rough for a second difference
    @pytest.mark.parametrize("n, d, seed, s, rho", [
        (80, 2, 4, 2, (-3.0, -2.0)),
        (80, 2, 4, 2, (-5.0, -6.0)),
        (40, 3, 5, 1, (-3.0, -2.0, -4.0)),
        (40, 3, 5, 1, (-4.0, -5.0, -3.0)),
    ])
    def test_gradient_and_hessian_match_central_differences(self, n, d, seed, s, rho):
        prob = make_basis_problem(n, d, seed=seed, s=s)
        B, Y, centers = prob["B"], prob["Y"], prob["centers"]
        rho = np.array(rho)
        E = np.eye(d)
        for q in itertools.product((1, 2), repeat=d):
            f = lambda r: gcv(B, Y, penalty_operator(PenaltySpec(q, 10.0**r), centers).P, n)
            surface = network._GCVSurface(B, Y, B.T @ B, np.linalg.qr(B, mode="r"),
                                          centers, n, q)
            point = surface.at(rho)
            assert point.cost == f(rho)
            g, H = surface.derivatives(point)
            h = 1e-3
            g_fd = np.array([(f(rho + h * e) - f(rho - h * e)) / (2 * h) for e in E])
            H_fd = np.array([[
                (f(rho + h * (ei + ej)) - f(rho + h * (ei - ej))
                 - f(rho - h * (ei - ej)) + f(rho - h * (ei + ej))) / (4 * h * h)
                for ej in E] for ei in E])
            assert np.linalg.norm(g - g_fd) <= 1e-5 * np.linalg.norm(g_fd)
            assert np.linalg.norm(H - H_fd) <= 1e-5 * np.linalg.norm(H_fd)

    @settings(max_examples=30, deadline=None)
    @given(
        d=st.integers(1, 3),
        n=st.integers(20, 60),
        seed=st.integers(0, 10_000),
        s=st.integers(0, 4),
        q_bits=st.integers(0, 7),
    )
    def test_weights_stay_inside_the_declared_box(self, d, n, seed, s, q_bits):
        prob = make_basis_problem(n, d, seed=seed, s=s)
        q = tuple(1 + (q_bits >> i & 1) for i in range(d))
        lam, _ = optimize_lambda(prob["B"], prob["Y"], prob["centers"], n, q)
        lo, hi = LOG_LAMBDA_BOUNDS
        assert lam.shape == (d,)
        assert np.all(lam >= 10.0**lo) and np.all(lam <= 10.0**hi)

    @pytest.mark.parametrize("n, seed, s", [(80, 4, 2), (150, 8, 4)])
    def test_no_grid_point_of_the_box_scores_lower(self, n, seed, s):
        # (150, 8, 4) has its lowest basin at lambda_2 -> 0, which Newton
        # from the diagonal alone does not reach
        prob = make_basis_problem(n, 2, seed=seed, s=s)
        grid = np.linspace(*LOG_LAMBDA_BOUNDS, 33)
        for q in itertools.product((1, 2), repeat=2):
            _, cost = optimize_lambda(prob["B"], prob["Y"], prob["centers"], n, q)
            grid_min = min(
                gcv(prob["B"], prob["Y"],
                    penalty_operator(PenaltySpec(q, 10.0 ** np.array([a, b])),
                                     prob["centers"]).P, n)
                for a in grid for b in grid
            )
            assert cost <= grid_min * (1.0 + 1e-9)


def _counting(monkeypatch, name, calls):
    """Replace ``network.<name>`` by a wrapper that records each call in ``calls``."""
    real = getattr(network, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(network, name, counted)


class TestPenalizedSystemOwner:
    @pytest.mark.parametrize("n, d, seed, s", [(60, 1, 3, 3), (80, 2, 4, 2), (25, 3, 13, 1)])
    def test_every_factor_belongs_to_a_penalized_system(self, monkeypatch, n, d, seed, s):
        prob = make_basis_problem(n, d, seed=seed, s=s)
        choleskys, factors, systems = [], [], []
        _counting(monkeypatch, "cho_factor", choleskys)
        _counting(monkeypatch, "_factor", factors)

        class CountingSystem(network._PenalizedSystem):
            def __init__(self, *args, **kwargs):
                systems.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(network, "_PenalizedSystem", CountingSystem)
        optimize_gcv(prob["B"], prob["Y"], prob["centers"], n)
        assert len(choleskys) == len(factors) == len(systems) > 2**d

    def test_two_derivative_calls_at_one_point_invert_once(self, monkeypatch):
        prob = make_basis_problem(80, 2, seed=4, s=2)
        B, Y, centers = prob["B"], prob["Y"], prob["centers"]
        q = (1, 2)
        surface = network._GCVSurface(B, Y, B.T @ B, np.linalg.qr(B, mode="r"),
                                      centers, 80, q)
        point = surface.at(np.array([-3.0, -2.0]))
        inversions = []
        _counting(monkeypatch, "dtrtri", inversions)
        first, again = surface.derivatives(point), surface.derivatives(point)
        assert len(inversions) == 1
        for a, b in zip(first, again):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("n, d, seed, s", [(60, 1, 3, 3), (80, 2, 4, 2)])
    def test_unfactorable_anchor_gives_an_unfit_scale(self, monkeypatch, n, d, seed, s):
        prob = make_basis_problem(n, d, seed=seed, s=s)

        def singular(S):
            raise IllConditionedScaleError("forced")

        monkeypatch.setattr(network, "_factor", singular)
        lam, cost = optimize_lambda(prob["B"], prob["Y"], prob["centers"], n, (1,) * d)
        assert lam is None and cost == np.inf
        fs = optimize_gcv(prob["B"], prob["Y"], prob["centers"], n)
        assert fs.theta is None and fs.lam is None and fs.q is None and fs.cost == np.inf

    @pytest.mark.parametrize("singular", [
        lambda B, Y: solve_weights(B, Y, np.zeros((3, 3)), 4),
        lambda B, Y: network._PenalizedSystem(B, (np.array([0]), np.array([0.0])), 4),
    ], ids=["dense", "band"])
    def test_singular_system_raises_after_one_attempt(self, monkeypatch, singular):
        # columns 1 and 3 are equal, so in integers the third Cholesky pivot
        # is exactly 0; no perturbed system is factored in its place
        x = np.arange(4.0)
        B = np.column_stack([np.ones(4), x, np.ones(4)])
        Y = np.array([0.5, 1.5, 1.0, 3.0])
        factors = []
        _counting(monkeypatch, "cho_factor", factors)
        with pytest.raises(IllConditionedScaleError):
            singular(B, Y)
        assert len(factors) == 1


class TestBandedSystem:
    """A system assembled from the band is the dense one, bit for bit."""

    @pytest.mark.parametrize("n, d, seed, s", [(60, 1, 3, 3), (80, 2, 4, 2), (40, 3, 5, 1)])
    def test_assembled_system_is_the_dense_sum(self, monkeypatch, n, d, seed, s):
        prob = make_basis_problem(n, d, seed=seed, s=s)
        B, centers = prob["B"], prob["centers"]
        C = B.T @ B
        assert np.array_equal(C, C.T)  # so the factored view S^T is S
        rng = np.random.default_rng(seed)
        factored = []
        real = network.cho_factor

        def capture(a, *args, **kwargs):
            factored.append(np.array(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(network, "cho_factor", capture)
        for q in itertools.product((1, 2), repeat=d):
            lam = 10.0 ** rng.uniform(*LOG_LAMBDA_BOUNDS, size=d)
            index, values = penalty_band(q, centers)
            banded = network._PenalizedSystem(B, (index, weighted_penalty(lam, values)), n, C)
            S, P = factored[-1], weighted_penalty(lam, penalty_components(q, centers))
            dense = C + n * P
            assert np.array_equal(S, dense) and np.array_equal(S.T, dense)
            assert np.array_equal(np.signbit(S), np.signbit(dense))
            from_dense = network._PenalizedSystem(B, P, n, C)
            assert np.array_equal(np.tril(banded.factor[0]), np.tril(from_dense.factor[0]))

    def test_nonfinite_band_entries_are_refused(self):
        prob = make_basis_problem(40, 1, seed=3, s=1)
        index, values = penalty_band((1,), prob["centers"])
        p = values[0].copy()
        p[0] = np.inf
        with pytest.raises(ValueError, match="infs or NaNs"):
            network._PenalizedSystem(prob["B"], (index, p), prob["n"])


class TestRepresenter:
    def _fit(self, n=35, d=1, seed=14, lam=None, Q=None):
        prob = make_basis_problem(n, d, seed=seed, phi=1e-6)
        P = _penalty_for(prob, Q=Q, lam=lam)
        theta = solve_weights(prob["B"], prob["Y"], P, prob["n"])
        return prob, P, theta

    def test_inner_product_reproduces_prediction(self):
        prob, P, theta = self._fit()
        rng = np.random.default_rng(15)
        for _ in range(50):
            x = rng.uniform(-1, 1, size=1)
            rep = representer(
                x, prob["X"], prob["B"], P, prob["eps"], prob["selected"], prob["n"]
            )
            direct = float((kernel_matrix(x, prob["centers"], prob["eps"]) @ theta)[0])
            assert abs(float(prob["Y"] @ rep.M_lambda) - direct) <= 1e-8 * (
                1.0 + abs(direct)
            )

    def test_zero_penalty_collapses_to_projection(self):
        prob = make_basis_problem(20, 1, seed=16)
        P0 = np.zeros((prob["l"], prob["l"]))
        rep = representer(
            np.array([0.3]), prob["X"], prob["B"], P0, prob["eps"],
            prob["selected"], prob["n"],
        )
        assert np.array_equal(rep.M_lambda, rep.M_zero)

    def test_noiseless_mean_is_inner_product_with_sample(self):
        prob = make_basis_problem(30, 1, seed=17, noise=0.0, phi=1e-6)
        P = _penalty_for(prob)
        theta = solve_weights(prob["B"], prob["Y"], P, prob["n"])
        x = np.array([0.1])
        rep = representer(
            x, prob["X"], prob["B"], P, prob["eps"], prob["selected"], prob["n"]
        )
        pred = float((kernel_matrix(x, prob["centers"], prob["eps"]) @ theta)[0])
        assert float(prob["Y"] @ rep.M_lambda) == pytest.approx(pred, rel=1e-9, abs=1e-12)

    def test_lambda_to_zero_limit_is_monotone(self):
        prob = make_basis_problem(25, 1, seed=18, phi=1e-6)
        x = np.array([0.2])
        gaps = []
        for lam in (1e-2, 1e-4, 1e-6):
            P = _penalty_for(prob, lam=np.array([lam]))
            rep = representer(
                x, prob["X"], prob["B"], P, prob["eps"], prob["selected"], prob["n"]
            )
            gaps.append(float(np.linalg.norm(rep.M_lambda - rep.M_zero)))
        assert gaps[0] > gaps[1] > gaps[2]


class TestTheoryIdentities:
    def test_pythagoras_split(self):
        prob = make_basis_problem(30, 1, seed=19, phi=1e-6)
        B, Y, n = prob["B"], prob["Y"], prob["n"]
        P = _penalty_for(prob, lam=np.array([0.7]))
        theta_l = solve_weights(B, Y, P, n)
        # the projection's oracle is a QR least-squares solve: the unpenalized
        # normal equations lose kappa(B)^2 digits (kappa ~ 9e4 here), more
        # than the identity's 1e-8 tolerance
        theta_0 = np.linalg.lstsq(B, Y, rcond=None)[0]
        lhs = np.sum((Y - B @ theta_l) ** 2)
        rhs = np.sum((Y - B @ theta_0) ** 2) + np.sum((B @ theta_0 - B @ theta_l) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-8)

    @pytest.mark.parametrize("seed", [19, 20, 21, 22, 23])
    def test_unpenalized_weights_within_normal_equation_error(self, seed):
        # forward error of the normal equations is O(kappa(B)^2 eps); the
        # measured ratio to kappa^2 eps is at most 0.22 on these seeds
        prob = make_basis_problem(30, 1, seed=seed, phi=1e-6)
        B, Y, n = prob["B"], prob["Y"], prob["n"]
        theta = solve_weights(B, Y, np.zeros((prob["l"], prob["l"])), n)
        theta_ls = np.linalg.lstsq(B, Y, rcond=None)[0]
        bound = np.linalg.cond(B) ** 2 * np.finfo(float).eps
        assert np.linalg.norm(theta - theta_ls) <= bound * np.linalg.norm(theta_ls)

    def test_penalized_fit_converges_to_projection(self):
        # o(lambda) decay of the squared fitted-value gap needs a basis whose
        # smallest normal-equation eigenvalue is not penalty-dominated over
        # the sweep, hence the strong rank truncation here
        prob = make_basis_problem(30, 1, seed=20, phi=1e-2)
        B, Y, n = prob["B"], prob["Y"], prob["n"]
        theta_0 = solve_weights(B, Y, np.zeros((prob["l"], prob["l"])), n)
        lams = [1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9]
        gaps = []
        for lam in lams:
            theta_l = solve_weights(B, Y, _penalty_for(prob, lam=[lam]), n)
            gaps.append(float(np.sum((B @ theta_l - B @ theta_0) ** 2)))
        # squared gap shrinks with lambda, and faster than lambda itself
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))
        ratios = [g / lam for g, lam in zip(gaps, lams)]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 1e-3 * ratios[0]

    def test_sup_norm_bound_and_sandwich(self):
        prob = make_basis_problem(35, 1, seed=21, phi=1e-6)
        B, X, Y, n = prob["B"], prob["X"], prob["Y"], prob["n"]
        P = _penalty_for(prob, lam=np.array([0.05]))
        grid = np.linspace(X.min(), X.max(), 150)[:, None]
        reps = [
            representer(x, X, B, P, prob["eps"], prob["selected"], n) for x in grid
        ]
        approx_vals = np.array([float(Y @ r.M_lambda) for r in reps])
        l1_profile = np.array([float(np.sum(np.abs(r.M_lambda))) for r in reps])
        star = int(np.argmax(l1_profile))
        U = influence_matrix(B, P, n)
        um0 = U @ reps[star].M_zero
        y_inf = float(np.max(np.abs(Y)))
        assert np.max(np.abs(approx_vals)) <= np.linalg.norm(um0, 1) * y_inf + 1e-8
        assert np.linalg.norm(um0, 2) <= l1_profile[star] + 1e-8
        assert l1_profile[star] <= np.linalg.norm(um0, 1) + 1e-8

    def test_pointwise_error_bound_for_kernel_functions(self):
        # rigorous pointwise bound from the error-functional norm:
        #   |f(x) - <f|_X, M>| <= sqrt(1 - 2 M^T R + M^T G M) * ||f||.
        # Cauchy-Schwarz gives M^T G M >= a^2 with a = M^T R, so the
        # (1-a)||f|| form is only a lower estimate of this bound; criterion 1
        # of the acceptance suite checks the same bound on more set-ups.
        prob = make_basis_problem(30, 1, seed=22, noise=0.0, phi=1e-6)
        X, B, eps, n = prob["X"], prob["B"], prob["eps"], prob["n"]
        G = prob["G"]
        P = _penalty_for(prob, lam=np.array([0.1]))
        rng = np.random.default_rng(23)
        z = rng.uniform(-1, 1, size=(5, 1))
        c = rng.standard_normal(5)
        K_zz = kernel_matrix(z, z, eps)
        f_norm = float(np.sqrt(c @ K_zz @ c))
        f_at_X = kernel_matrix(X, z, eps) @ c
        for _ in range(40):
            x = rng.uniform(-1, 1, size=1)
            rep = representer(x, X, B, P, eps, prob["selected"], n)
            f_x = float((kernel_matrix(x, z, eps) @ c)[0])
            err = abs(f_x - float(f_at_X @ rep.M_lambda))
            e2 = 1.0 - 2.0 * float(rep.M_lambda @ rep.R_x) + float(
                rep.M_lambda @ G @ rep.M_lambda
            )
            assert err <= np.sqrt(max(e2, 0.0)) * f_norm + 1e-8
