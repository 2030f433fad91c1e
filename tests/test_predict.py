import copy
import dataclasses
import sys
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiersparse import network, predict
from hiersparse import (
    Dataset,
    DegenerateDofError,
    PenaltySpec,
    SparseModel,
    SynthSpec,
    confidence_intervals,
    eval_true,
    fit,
    influence_matrix,
    kernel_matrix,
    penalty_operator,
    predict_intervals,
    predict_mean,
    predict_std,
    residual_dof,
    sample,
    sigma2_hat,
    solve_weights,
)
from hiersparse.dataio import model_from_dict, model_to_dict
from hiersparse.synth import PROBLEMS, noise_sigma
from helpers import (
    influence_oracle,
    kernel_matrix_oracle,
    make_basis_problem,
    penalty_oracle,
    whole_batch_oracle,
)


def _manual_model(X_t, C_t, eps=1.0, lam=(1.0,), q=(1,), n_train=5):
    X_t = np.atleast_2d(np.asarray(X_t, dtype=float))
    return SparseModel(
        t=0,
        epsilon_t=eps,
        X_t=X_t,
        Y_t=np.zeros(len(X_t)),
        C_t=np.asarray(C_t, dtype=float),
        Lambda_t=np.asarray(lam, dtype=float),
        Q_t=tuple(q),
        n_train=n_train,
        history=[],
    )


def _noiseless_fit(seed=0, n=40):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n, 1))
    Y = np.cos(3.0 * X[:, 0])
    ds = Dataset(X=X, Y=Y)
    return ds, fit(ds, seed=seed)


class TestPredictMean:
    def test_zero_coefficients_give_zero(self):
        model = _manual_model([[0.0], [1.0]], [0.0, 0.0])
        assert np.array_equal(predict_mean(model, [[0.5]]), np.zeros(1))

    def test_single_center_kernel_decay(self):
        eps = 0.01
        model = _manual_model([[0.0]], [2.5], eps=eps)
        x = np.array([[np.sqrt(50.0 * eps)]])  # squared distance = 50 eps
        pred = predict_mean(model, x)
        assert pred[0] == pytest.approx(2.5 * np.exp(-50.0), rel=1e-10)
        assert abs(pred[0]) < 1e-20

    def test_training_points_reproduced_on_noiseless_fit(self):
        ds, model = _noiseless_fit(seed=1)
        pred = predict_mean(model, model.X_t)
        resid_scale = float(np.max(np.abs(ds.Y - predict_mean(model, ds.X))))
        assert np.max(np.abs(pred - model.Y_t)) <= resid_scale + 1e-8

    def test_mean_equals_influence_action_at_training_inputs(self):
        ds, model = _noiseless_fit(seed=2)
        B_t = kernel_matrix(ds.X, model.X_t, model.epsilon_t)
        P = penalty_operator(PenaltySpec(model.Q_t, model.Lambda_t), model.X_t).P
        U = influence_matrix(B_t, P, ds.n)
        pred = predict_mean(model, ds.X)
        assert np.linalg.norm(pred - U @ ds.Y) <= 1e-8 * (1 + np.linalg.norm(U @ ds.Y))

    def test_pure_function_of_model_payload(self):
        ds, model = _noiseless_fit(seed=3)
        grid = np.linspace(0, 1, 23)[:, None]
        before = predict_mean(model, grid)
        clone = model_from_dict(model_to_dict(model))  # survives serialization
        del ds
        after = predict_mean(clone, grid)
        assert np.array_equal(before, after)

    def test_dimension_mismatch_rejected(self):
        model = _manual_model([[0.0], [1.0]], [1.0, 1.0])
        with pytest.raises(ValueError):
            predict_mean(model, np.zeros((3, 2)))


class TestSigma2:
    def test_zero_residual(self):
        rng = np.random.default_rng(4)
        X = np.linspace(0, 1, 5)[:, None]
        Y = rng.standard_normal(5)
        eps = 0.5
        B = kernel_matrix(X, X, eps)
        C = np.linalg.solve(B, Y)  # exact interpolation on all points
        model = _manual_model(X, C, eps=eps, lam=(0.3,), q=(1,), n_train=5)
        assert sigma2_hat(model, Dataset(X=X, Y=Y)) == pytest.approx(0.0, abs=1e-18)

    def test_vanishing_influence_reduces_to_mean_square(self):
        # zero-basis limit: both traces vanish, the dof formula returns n,
        # and the variance estimate collapses to the mean square of Y
        from hiersparse import influence_traces

        rng = np.random.default_rng(5)
        Y = rng.standard_normal(6)
        tr_u, tr_uut = influence_traces(np.zeros((6, 2)), np.eye(2), 6)
        assert tr_u == 0.0 and tr_uut == 0.0
        df = 6 - 2.0 * tr_u + tr_uut
        assert df == 6.0
        assert float(Y @ Y) / df == pytest.approx(float(np.mean(Y**2)), rel=1e-14)

    def test_matches_dense_matrix_oracle(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(0, 1, size=(5, 1))
        Y = np.sin(4 * X[:, 0]) + 0.3 * rng.standard_normal(5)
        ds = Dataset(X=X, Y=Y)
        model = fit(ds, seed=6)
        B = kernel_matrix_oracle(X, model.X_t, model.epsilon_t)
        P = penalty_oracle(model.Q_t, model.Lambda_t, model.X_t)
        U = influence_oracle(B, P, 5)
        df = 5 - 2.0 * np.trace(U) + np.trace(U @ U.T)
        resid = Y - B @ model.C_t
        expect = float(resid @ resid) / df
        assert sigma2_hat(model, ds) == pytest.approx(expect, rel=1e-9)
        assert residual_dof(model, ds) == pytest.approx(df, rel=1e-9)

    def test_degenerate_dof_raises(self):
        # one point, one center, unit kernel: U = [[1]] exactly, df = 0
        model = _manual_model([[0.7]], [2.0], eps=1.0, lam=(1.0,), q=(1,), n_train=1)
        ds = Dataset(X=np.array([[0.7]]), Y=np.array([2.0]))
        with pytest.raises(DegenerateDofError):
            sigma2_hat(model, ds)


class TestPredictStd:
    def test_zero_noise_gives_zero_std(self):
        rng = np.random.default_rng(7)
        X = np.linspace(0, 1, 5)[:, None]
        Y = rng.standard_normal(5)
        eps = 0.5
        B = kernel_matrix(X, X, eps)
        C = np.linalg.solve(B, Y)
        model = _manual_model(X, C, eps=eps, lam=(0.3,), q=(1,), n_train=5)
        std = predict_std(model, Dataset(X=X, Y=Y), np.array([[0.3], [0.9]]))
        assert np.allclose(std, 0.0, atol=1e-10)

    def test_extrapolation_wider_than_interior(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(0.0, 1.0, size=(60, 1))
        Y = np.sin(5 * X[:, 0]) + 0.2 * rng.standard_normal(60)
        ds = Dataset(X=X, Y=Y)
        model = fit(ds, seed=8)
        # "outside" still has to be within kernel reach: arbitrarily far away
        # the basis row vanishes and the projection variance returns to zero
        inner = np.array([[float(np.median(X))]])
        outer = np.array([[float(X.max()) + 0.4]])
        std = predict_std(model, ds, np.vstack([inner, outer]))
        assert std[0] <= std[1]

    def test_quadratic_form_matches_dense_oracle(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(0, 1, size=(7, 1))
        Y = np.cos(3 * X[:, 0]) + 0.2 * rng.standard_normal(7)
        ds = Dataset(X=X, Y=Y)
        model = fit(ds, seed=9)
        queries = rng.uniform(0, 1, size=(4, 1))
        got = predict_std(model, ds, queries)
        B = kernel_matrix_oracle(X, model.X_t, model.epsilon_t)
        P = penalty_oracle(model.Q_t, model.Lambda_t, model.X_t)
        S_inv = np.linalg.inv(B.T @ B + 7 * P)
        U = influence_oracle(B, P, 7)
        df = 7 - 2 * np.trace(U) + np.trace(U @ U.T)
        sigma2 = float((Y - B @ model.C_t) @ (Y - B @ model.C_t)) / df
        B_m = kernel_matrix_oracle(queries, model.X_t, model.epsilon_t)
        expect = np.sqrt(sigma2) * np.sqrt(np.einsum("ij,jk,ik->i", B_m, S_inv, B_m))
        assert got == pytest.approx(expect, rel=1e-9)

    def test_inverse_factor_matches_extended_precision_substitution(self):
        # a weight at the box floor leaves S = B^T B + n P ill conditioned
        # (cond(L) about 7e4); the product with L^{-1} must stay as accurate
        # as forward substitution, here against a long-double reference
        prob = make_basis_problem(50, 2, seed=1, s=2)
        ds, X_t, eps = prob["dataset"], prob["centers"], prob["eps"]
        Q, lam = (2, 2), np.array([1e-11, 1e-9])
        P = penalty_operator(PenaltySpec(Q, lam), X_t).P
        model = _manual_model(X_t, solve_weights(prob["B"], ds.Y, P, 50), eps=eps,
                              lam=lam, q=Q, n_train=50)
        B_t = kernel_matrix(ds.X, X_t, eps)
        L = np.tril(network._PenalizedSystem(B_t, P, 50).factor[0])
        assert 1e4 < np.linalg.cond(L) < 1e6
        X_m = np.random.default_rng(0).uniform(-1.1, 1.1, size=(200, 2))
        L_ext = L.astype(np.longdouble)
        rhs = kernel_matrix(X_m, X_t, eps).T.astype(np.longdouble)
        W = np.zeros_like(rhs)
        for i in range(len(L)):
            W[i] = (rhs[i] - L_ext[i, :i] @ W[:i]) / L_ext[i, i]
        sigma = np.sqrt(np.longdouble(sigma2_hat(model, ds)))
        expect = sigma * np.sqrt(np.sum(W * W, axis=0))
        got = predict_std(model, ds, X_m)
        assert float(np.max(np.abs(got - expect) / expect)) <= 1e-11

    @pytest.mark.parametrize("d", [1, 2])
    def test_empty_and_single_query_batches(self, d):
        ds, model = _served(d)
        none = np.zeros((0, d))
        assert predict_std(model, ds, none).shape == (0,)
        ps = predict_intervals(model, ds, none)
        for name in ("mean", "std", "lower", "upper"):
            assert getattr(ps, name).shape == (0,)
        one = [[0.25] * d]
        std = predict_std(model, ds, one)
        ps = predict_intervals(model, ds, one)
        assert std.shape == ps.std.shape == (1,)
        assert np.isfinite(std[0]) and std[0] > 0.0
        assert ps.std[0] == std[0]


class TestConfidenceIntervals:
    def test_zero_std_degenerate_interval(self):
        mean = np.array([1.0, -2.0])
        lower, upper = confidence_intervals(mean, np.zeros(2), 10.0, 0.05)
        assert np.array_equal(lower, mean) and np.array_equal(upper, mean)

    def test_half_width_at_df_ten(self):
        lower, upper = confidence_intervals(np.zeros(1), np.ones(1), 10.0, 0.05)
        assert upper[0] == pytest.approx(2.228139, abs=1e-6)
        assert lower[0] == pytest.approx(-2.228139, abs=1e-6)

    def test_width_decreases_with_alpha(self):
        widths = []
        for alpha in (0.01, 0.05, 0.2, 0.5):
            lo, hi = confidence_intervals(np.zeros(1), np.ones(1), 7.0, alpha)
            widths.append(float(hi[0] - lo[0]))
        assert all(a > b for a, b in zip(widths, widths[1:]))

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            confidence_intervals(np.zeros(1), np.ones(1), 5.0, 1.5)

    @pytest.mark.parametrize("alpha", [1.5, float("nan"), 0.0, 1.0])
    def test_alpha_checked_before_the_noise_fit(self, monkeypatch, alpha):
        ds, model = _served(1)
        predict._NOISE_FIT_MEMO.clear()
        calls = _count_factorizations(monkeypatch)
        with pytest.raises(ValueError, match="alpha"):
            predict_intervals(model, ds, np.zeros((3, 1)), alpha)
        assert calls == [] and predict._NOISE_FIT_MEMO == {}

    def test_prediction_set_orders_bounds(self):
        rng = np.random.default_rng(10)
        X = rng.uniform(0, 1, size=(50, 1))
        Y = np.sin(4 * X[:, 0]) + 0.2 * rng.standard_normal(50)
        ds = Dataset(X=X, Y=Y)
        model = fit(ds, seed=10)
        ps = predict_intervals(model, ds, np.linspace(0.1, 0.9, 9)[:, None], 0.05)
        assert np.all(ps.lower <= ps.mean) and np.all(ps.mean <= ps.upper)
        assert np.all(ps.std >= 0.0)
        assert ps.df_res > 0 and ps.sigma2_hat >= 0
        assert ps.alpha == 0.05


class TestCoverageSmoke:
    def test_interval_coverage_on_replications(self):
        # loose sanity bound: nominal 95% intervals should cover the truth at
        # most interior grid points across seeded replications
        true_f = lambda x: np.sin(2.0 * np.pi * x)
        grid = np.linspace(0.1, 0.9, 17)[:, None]
        truth = true_f(grid[:, 0])
        hits = 0
        total = 0
        for rep in range(200):
            rng = np.random.default_rng(1000 + rep)
            X = rng.uniform(0.0, 1.0, size=(40, 1))
            Y = true_f(X[:, 0]) + 0.25 * rng.standard_normal(40)
            ds = Dataset(X=X, Y=Y)
            model = fit(ds, seed=rep)
            ps = predict_intervals(model, ds, grid, 0.05)
            hits += int(np.sum((ps.lower <= truth) & (truth <= ps.upper)))
            total += len(truth)
        assert hits / total >= 0.80


class TestIntervalStatistics:
    def test_coverage_and_noise_estimate_over_32_seeds(self):
        # schwefel1d at n=200 with the problem table's noise rule, seeds 1000-1031,
        # on 2000 grid points: pooled coverage 0.9404 and mean sigma2_hat / sigma^2
        # 1.0193 when written.  Coverage may not pass the nominal 0.95; the ratio's
        # margin is about one standard error of a 32-seed mean
        family = "schwefel1d"
        bounds = PROBLEMS[family][2]
        sigma = noise_sigma(family, bounds)
        grid = np.linspace(-500.0, 500.0, 2000)[:, None]
        truth = eval_true(family, grid)
        covered, ratios = [], []
        for seed in range(1000, 1032):
            ds = sample(SynthSpec(family, 200, sigma, bounds, seed))
            ps = predict_intervals(fit(ds, seed=seed), ds, grid)
            covered.append(np.mean((ps.lower <= truth) & (truth <= ps.upper)))
            ratios.append(ps.sigma2_hat / sigma**2)
        assert 0.935 <= np.mean(covered) <= 0.95
        assert 0.995 <= np.mean(ratios) <= 1.045


@lru_cache(maxsize=None)
def _served(d):
    """A fitted (dataset, model) pair in d dimensions; callers copy before editing."""
    rng = np.random.default_rng(20 + d)
    n = 60 if d == 1 else 80
    X = rng.uniform(-1.0, 1.0, size=(n, d))
    Y = np.sin(3.0 * X[:, 0]) + X[:, -1] ** 2 + 0.2 * rng.standard_normal(n)
    ds = Dataset(X=X, Y=Y)
    return ds, fit(ds, seed=d)


def _queries(d, m, seed=0):
    return np.random.default_rng(seed).uniform(-1.2, 1.2, size=(m, d))


def _fresh(model, ds, X_m):
    """predict_intervals computed without the memo's previous entry."""
    predict._NOISE_FIT_MEMO.clear()
    return predict_intervals(model, ds, X_m)


def _assert_same(got, expect):
    for f in dataclasses.fields(expect):
        a, b = getattr(got, f.name), getattr(expect, f.name)
        assert np.array_equal(a, b), f.name


def _count_factorizations(monkeypatch):
    calls = []
    real = network._factor

    def counting(S):
        calls.append(S)
        return real(S)

    monkeypatch.setattr(network, "_factor", counting)
    return calls


class TestNoiseFitMemo:
    """The noise fit is computed once per content of (model, dataset)."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_repeat_and_equal_copies_match_a_cleared_memo(self, monkeypatch, d):
        ds, model = _served(d)
        X_m = _queries(d, 37)
        first = _fresh(model, ds, X_m)
        calls = _count_factorizations(monkeypatch)
        again = predict_intervals(model, ds, X_m)
        copies = predict_intervals(
            copy.deepcopy(model), Dataset(X=ds.X.copy(), Y=ds.Y.copy()), X_m.copy()
        )
        assert calls == []
        expect = _fresh(model, ds, X_m)
        for got in (first, again, copies):
            _assert_same(got, expect)

    @pytest.mark.parametrize("d", [1, 2])
    def test_in_place_edits_are_recomputed(self, d):
        ds0, model0 = _served(d)
        ds = Dataset(X=ds0.X.copy(), Y=ds0.Y.copy())
        model = copy.deepcopy(model0)
        X_m = _queries(d, 25)
        before = predict_intervals(model, ds, X_m)
        ds.Y[::3] += 0.5
        after_y = predict_intervals(model, ds, X_m)
        _assert_same(after_y, _fresh(model, ds, X_m))
        assert after_y.sigma2_hat != before.sigma2_hat
        model.C_t *= 1.01
        after_c = predict_intervals(model, ds, X_m)
        _assert_same(after_c, _fresh(model, ds, X_m))
        assert not np.array_equal(after_c.mean, after_y.mean)
        assert after_c.sigma2_hat != after_y.sigma2_hat

    def test_degenerate_dof_raises_on_every_call(self):
        model = _manual_model([[0.7]], [2.0], eps=1.0, lam=(1.0,), q=(1,), n_train=1)
        ds = Dataset(X=np.array([[0.7]]), Y=np.array([2.0]))
        for call in [sigma2_hat, residual_dof] * 2:
            with pytest.raises(DegenerateDofError):
                call(model, ds)
        for _ in range(2):
            with pytest.raises(DegenerateDofError):
                predict_intervals(model, ds, [[0.5]])

    @pytest.mark.parametrize("rows", [np.s_[1:], np.r_[0, 0:60]], ids=["dropped", "repeated"])
    def test_data_other_than_the_training_set_is_refused(self, monkeypatch, rows):
        ds, model = _served(1)
        other = Dataset(X=ds.X[rows], Y=ds.Y[rows])
        predict._NOISE_FIT_MEMO.clear()
        calls = _count_factorizations(monkeypatch)
        for call in (lambda: sigma2_hat(model, other),
                     lambda: predict_intervals(model, other, _queries(1, 3))):
            with pytest.raises(ValueError, match=f"{other.n} rows.* on {model.n_train}$"):
                call()
        assert calls == [] and predict._NOISE_FIT_MEMO == {}

    def test_one_pair_factors_once(self, monkeypatch):
        ds, model = _served(2)
        predict._NOISE_FIT_MEMO.clear()
        calls = _count_factorizations(monkeypatch)
        inversions = []
        real_trtri = network.dtrtri

        def counting_trtri(*args, **kwargs):
            inversions.append(1)
            return real_trtri(*args, **kwargs)

        monkeypatch.setattr(network, "dtrtri", counting_trtri)
        for m in (0, 1, 10, 100):
            predict_intervals(model, ds, _queries(2, m))
        predict_std(model, ds, _queries(2, 5))
        sigma2_hat(model, ds)
        residual_dof(model, ds)
        assert len(calls) == 1
        assert len(inversions) == 1

    def test_the_memo_holds_one_entry(self, monkeypatch):
        pairs = [_served(1), _served(2), _served(1)]
        predict._NOISE_FIT_MEMO.clear()
        calls = _count_factorizations(monkeypatch)
        for ds, model in pairs:
            sigma2_hat(model, ds)
        assert len(calls) == 3
        assert len(predict._NOISE_FIT_MEMO) == 1

    @settings(max_examples=25, deadline=None)
    @given(m=st.integers(1, 2000), seed=st.integers(0, 2**32 - 1), d=st.sampled_from([1, 2]))
    def test_memoized_intervals_equal_the_uncached_computation(self, m, seed, d):
        ds, model = _served(d)
        X_m = _queries(d, m, seed)
        predict_intervals(model, ds, X_m[:1])  # fills the memo if it is not already
        got = predict_intervals(model, ds, X_m)
        _assert_same(got, _fresh(model, ds, X_m))


def _same_bits(got, expect, name):
    got, expect = np.asarray(got), np.asarray(expect)
    assert got.shape == expect.shape and got.tobytes() == expect.tobytes(), name


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFlatQueries:
    def test_flat_array_is_one_point_per_entry_in_1d(self):
        ds, model = _served(1)
        flat = np.linspace(-1.1, 1.1, 7)
        column = flat[:, None]
        _same_bits(predict_mean(model, flat), predict_mean(model, column), "predict_mean")
        _same_bits(predict_std(model, ds, flat), predict_std(model, ds, column), "predict_std")
        got, expect = predict_intervals(model, ds, flat), predict_intervals(model, ds, column)
        for f in dataclasses.fields(expect):
            _same_bits(getattr(got, f.name), getattr(expect, f.name), f.name)

    def test_flat_array_is_one_point_in_2d(self):
        ds, model = _served(2)
        point = np.array([0.3, -0.4])
        _same_bits(predict_mean(model, point), predict_mean(model, point[None, :]), "mean")
        with pytest.raises(ValueError, match="query dimension 3"):
            predict_mean(model, np.zeros(3))


_ROWS = predict._BLOCK_ROWS


class TestServingBlocks:
    """Queries are served in blocks of ``predict._BLOCK_ROWS`` rows, the last
    block taking the remainder."""

    @staticmethod
    def _check_against_whole_batch(d, m, seed):
        ds, model = _served(d)
        X_m = _queries(d, m, seed)
        expect = whole_batch_oracle(model, ds, X_m, 0.05)
        got = predict_intervals(model, ds, X_m, 0.05)
        for f in dataclasses.fields(expect):  # raw bytes: sign bits included
            _same_bits(getattr(got, f.name), getattr(expect, f.name), f.name)
        _same_bits(predict_mean(model, X_m), expect.mean, "predict_mean")
        _same_bits(predict_std(model, ds, X_m), expect.std, "predict_std")

    def test_block_is_a_multiple_of_256_rows(self):
        # the xTRMM and GEMV tails are whole-batch bits only on such edges
        assert predict._BLOCK_ROWS > 0 and predict._BLOCK_ROWS % 256 == 0

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("blocks, tail", [(2, 0), (2, 1), (2, 7), (3, -1)])
    def test_rows_at_the_block_edges_have_the_bits_of_one_whole_batch(self, d, blocks, tail):
        self._check_against_whole_batch(d, blocks * predict._BLOCK_ROWS + tail, seed=d)

    @settings(max_examples=30, deadline=None)
    @given(blocks=st.integers(1, 3), data=st.data(), seed=st.integers(0, 2**32 - 1),
           d=st.sampled_from([1, 2]))
    def test_every_field_has_the_bits_of_one_whole_batch(self, blocks, data, seed, d):
        rows = predict._BLOCK_ROWS
        tail = data.draw(st.integers(-8, 8) | st.integers(-8, rows - 1), label="tail")
        self._check_against_whole_batch(d, blocks * rows + tail, seed)

    @pytest.mark.parametrize("d", [1, 2])
    def test_peak_memory_is_a_few_blocks_of_basis(self, d):
        # one block's basis and the kernel's tile peak at 1.6 blocks for d = 2 (1.1 for
        # d = 1); a loop that still holds the previous block while it builds the next
        # exceeds 2.  predict_intervals holds the mean and std columns in the loop and
        # five columns in the intervals after it
        ds, model = _served(d)
        X_m = _queries(d, 10 * predict._BLOCK_ROWS + 5)
        predict_intervals(model, ds, X_m[:1])  # the noise fit is per dataset, not per batch
        block, column = predict._BLOCK_ROWS * len(model.X_t) * 8, len(X_m) * 8
        assert _peak_bytes(lambda: predict_mean(model, X_m)) <= 2 * block + column
        assert (_peak_bytes(lambda: predict_intervals(model, ds, X_m))
                <= max(2 * block + 2 * column, 6 * column))

    @pytest.mark.parametrize("m, blocks", [(0, [0]), (5, [5]), (2 * _ROWS + 5, [_ROWS, _ROWS + 5]),
                                           (3 * _ROWS - 1, [_ROWS, 2 * _ROWS - 1])])
    @pytest.mark.parametrize("serve", ["mean", "std", "intervals"])
    def test_one_kernel_matrix_call_per_block(self, monkeypatch, m, blocks, serve):
        ds, model = _served(2)
        X_m = _queries(2, m)
        predict_intervals(model, ds, X_m[:1])  # the noise fit calls kernel_matrix too
        rows = []

        def counted(A, B, epsilon):
            rows.append(len(A))
            return kernel_matrix(A, B, epsilon)

        monkeypatch.setattr(predict, "kernel_matrix", counted)
        {"mean": lambda: predict_mean(model, X_m), "std": lambda: predict_std(model, ds, X_m),
         "intervals": lambda: predict_intervals(model, ds, X_m)}[serve]()
        assert rows == blocks


class TestNoDensePenalty:
    @pytest.mark.parametrize("d", [1, 2])
    def test_fit_and_intervals_form_no_dense_penalty(self, monkeypatch, d):
        def dense(*args, **kwargs):
            raise AssertionError("a dense penalty was formed")

        for name, module in list(sys.modules.items()):
            if name == "hiersparse" or name.startswith("hiersparse."):
                for attr in ("penalty_components", "penalty_operator"):
                    if hasattr(module, attr):
                        monkeypatch.setattr(module, attr, dense)
        rng = np.random.default_rng(50 + d)
        X = rng.uniform(-1.0, 1.0, size=(40, d))
        ds = Dataset(X=X, Y=np.cos(2.0 * X[:, 0]) + 0.1 * rng.standard_normal(40))
        model = fit(ds, seed=d)
        predict._NOISE_FIT_MEMO.clear()
        assert np.all(np.isfinite(predict_intervals(model, ds, _queries(d, 5)).std))
        predict._NOISE_FIT_MEMO.clear()
        assert sigma2_hat(model, ds) > 0.0
