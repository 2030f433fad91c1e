import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiersparse import (
    Dataset,
    DegenerateGeometryError,
    diameter_T,
    gram,
    kernel_matrix,
    length_scale,
    numerical_rank,
)
from hiersparse.kernel import _TILE, point_table
from helpers import brute_force_max_distance


def _kernel_loop(A, B, eps):
    """exp(-(sum_k (a_k - b_k)^2) / eps) entry by entry, k in coordinate order."""
    out = np.empty((A.shape[0], B.shape[0]))
    for i in range(A.shape[0]):
        for j in range(B.shape[0]):
            sq = 0.0
            for k in range(A.shape[1]):
                diff = A[i, k] - B[j, k]
                sq += diff * diff
            out[i, j] = np.exp(-sq / eps)
    return out


def _kernel_pairs(A, B, eps):
    """``_kernel_loop``'s operations on the flat list of (i, j) pairs, in 1-D
    arrays: no broadcast and no tiles, for sizes the scalar loop is too slow for."""
    a, b = np.repeat(A, len(B), axis=0), np.tile(B, (len(A), 1))
    sq = np.zeros(len(a))
    for k in range(A.shape[1]):
        diff = a[:, k] - b[:, k]
        sq += diff * diff
    return np.exp(-sq / eps).reshape(len(A), len(B))


def _dyadic(rng, rows, d):
    """Points on the 2**-6 grid of [-1, 1]^d: any shift by a multiple of 2**-6
    up to 2**26 in size is exact, and so is every coordinate difference."""
    return rng.integers(-64, 65, size=(rows, d)) / 64.0


_SHIFTS = st.lists(st.integers(-(2**32), 2**32), min_size=3, max_size=3)


class TestPointTable:
    """``point_table``: the one reading of a caller's array as m points of d coordinates."""

    @pytest.mark.parametrize("X, d, shape", [
        (2.5, 1, (1, 1)), (2.5, 2, (1, 1)), ([1.0, 2.0, 3.0], 1, (3, 1)),
        ([1.0, 2.0, 3.0], 2, (1, 3)), ([1.0, 2.0], 2, (1, 2)), (np.zeros((4, 2)), 1, (4, 2)),
        (np.zeros(0), 1, (0, 1)),
    ])
    def test_scalars_flat_arrays_and_tables(self, X, d, shape):
        table = point_table(X, d)
        assert table.shape == shape and table.dtype == float
        assert np.array_equal(table.ravel(), np.ravel(X))

    @pytest.mark.parametrize("shape", [(3, 2, 1), (1, 1, 1, 1)])
    def test_more_than_two_axes_are_refused_by_shape(self, shape):
        for call in (lambda X: point_table(X, 2), lambda X: Dataset(X=X, Y=np.zeros(3))):
            with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
                call(np.zeros(shape))


class TestDataset:
    def test_flat_x_becomes_column(self):
        ds = Dataset(X=np.array([0.0, 1.0, 2.0]), Y=np.array([1.0, 2.0, 3.0]))
        assert ds.X.shape == (3, 1)
        assert ds.n == 3 and ds.d == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(X=np.zeros((3, 1)), Y=np.zeros(2))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Dataset(X=np.array([[0.0], [np.nan]]), Y=np.zeros(2))
        with pytest.raises(ValueError):
            Dataset(X=np.zeros((2, 1)), Y=np.array([0.0, np.inf]))


class TestDiameter:
    def test_two_points_1d(self):
        assert diameter_T(np.array([[0.0], [4.0]])) == pytest.approx(8.0, rel=1e-14)

    def test_three_four_five_triangle(self):
        X = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert diameter_T(X) == pytest.approx(12.5, rel=1e-14)

    def test_matches_all_pairs_scan(self):
        rng = np.random.default_rng(42)
        X = rng.uniform(0.0, 1.0, size=(50, 2))
        diam = brute_force_max_distance(X)
        assert diameter_T(X) == pytest.approx(diam**2 / 2.0, rel=1e-12)

    @given(seed=st.integers(0, 2**16), d=st.integers(1, 3), shift=_SHIFTS)
    @settings(max_examples=40, deadline=None)
    def test_exact_translation_leaves_it_unchanged(self, seed, d, shift):
        X = _dyadic(np.random.default_rng(seed), 12, d)
        c = np.asarray(shift[:d]) / 64.0
        assert diameter_T(X + c) == diameter_T(X)

    def test_identical_points_degenerate(self):
        with pytest.raises(DegenerateGeometryError):
            diameter_T(np.ones((5, 2)))

    @pytest.mark.parametrize("spread, word", [(1e-300, "underflow"), (1e300, "overflow")])
    def test_squared_spread_outside_float_range_is_named(self, spread, word):
        X = np.linspace(0.0, spread, 6)[:, None]
        with pytest.raises(DegenerateGeometryError, match=word):
            diameter_T(X)

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            diameter_T(np.array([[1.0, 2.0]]))

    @pytest.mark.parametrize("shape", [(3, 2, 1), (2, 1, 2), ()])
    def test_arrays_that_are_no_point_table_are_refused_by_shape(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            diameter_T(np.zeros(shape))


class TestLengthScale:
    def test_known_values(self):
        assert length_scale(8.0, 2.0, 0) == 8.0
        assert length_scale(8.0, 2.0, 3) == 1.0
        assert length_scale(12.5, 2.0, 5) == 0.390625

    @given(
        T=st.floats(1e-6, 1e6),
        s=st.integers(min_value=0, max_value=40),
    )
    def test_halving_per_step(self, T, s):
        assert length_scale(T, 2.0, s + 1) / length_scale(T, 2.0, s) == 0.5

    def test_strictly_decreasing_in_s(self):
        vals = [length_scale(3.7, 1.5, s) for s in range(10)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            length_scale(0.0, 2.0, 1)
        with pytest.raises(ValueError):
            length_scale(1.0, 1.0, 1)

    @pytest.mark.parametrize("T, M", [(np.inf, 2.0), (np.nan, 2.0), (1.0, np.inf), (1.0, np.nan)])
    def test_non_finite_settings_refused(self, T, M):
        with pytest.raises(ValueError):
            length_scale(T, M, 0)


class TestGram:
    def test_unit_diagonal_and_known_entry(self):
        X = np.array([[0.0], [1.0]])
        G = gram(X, 1.0)  # squared distance equals epsilon
        assert G[0, 0] == 1.0 and G[1, 1] == 1.0
        assert G[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-14)

    def test_three_point_line(self):
        G = gram(np.array([[0.0], [1.0], [2.0]]), 1.0)
        assert G[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-14)
        assert G[0, 2] == pytest.approx(np.exp(-4.0), rel=1e-14)
        assert G[1, 2] == pytest.approx(np.exp(-1.0), rel=1e-14)

    @pytest.mark.parametrize("n, d", [(30, 3), (200, 2), (1000, 3)])  # 1, 2 and 32 tiles
    def test_exactly_symmetric(self, n, d):
        G = gram(np.random.default_rng(n).standard_normal((n, d)), 2.0)
        assert np.array_equal(G, G.T) and np.all(np.diag(G) == 1.0)

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(1)
        G = gram(rng.standard_normal((20, 2)), 0.5)
        assert np.all(G > 0.0) and np.all(G <= 1.0)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(7)
        n = 40
        G = gram(rng.uniform(0, 1, size=(n, 2)), 0.3)
        assert np.linalg.eigvalsh(G).min() >= -1e-8 * n

    def test_nonfinite_coordinates_rejected(self):
        with pytest.raises(ValueError):
            gram(np.array([[0.0], [np.inf]]), 1.0)
        with pytest.raises(ValueError):
            kernel_matrix(np.array([[np.nan]]), np.array([[0.0]]), 1.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_kernel_matrix_matches_entrywise_loop(self, d):
        rng = np.random.default_rng(d)
        A = rng.uniform(-3.0, 5.0, size=(17, d))
        B = 1e3 + rng.standard_normal((9, d))
        for P, Q in ((A, A), (A, B - 1e3), (B, A + 1e3)):
            for eps in (0.37, 2.0, 1e4):
                assert np.array_equal(kernel_matrix(P, Q, eps), _kernel_loop(P, Q, eps))
                assert np.array_equal(_kernel_pairs(P, Q, eps), _kernel_loop(P, Q, eps))
        # query counts m on both sides of 16, and of 64 and 8192 // 3 where the one-row
        # buffer starts and stops at numpy's default; centre counts l of one row, one
        # tile, one tile + 1 and several tiles with a tail
        for m in (1, 15, 16, 17, 63, 64, 1000, 2559, 2560, 2730, 2731, 3072, 3073):
            tile = _TILE // m
            Q = rng.uniform(-3.0, 5.0, size=(m, d))
            for l in (1, tile, tile + 1, 3 * tile + 2):
                C = rng.uniform(-3.0, 5.0, size=(l, d))
                assert np.array_equal(kernel_matrix(Q, C, 0.37), _kernel_pairs(Q, C, 0.37))

    def test_temporaries_stay_within_one_tile(self):
        rng = np.random.default_rng(3)
        Q, C = rng.uniform(-1, 1, size=(3072, 2)), rng.uniform(-1, 1, size=(205, 2))
        tracemalloc.start()
        try:
            K = kernel_matrix(Q, C, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output, one tile of squared differences and the transposed inputs
        assert peak <= K.nbytes + 8 * _TILE + 2**17

    @given(seed=st.integers(0, 2**16), d=st.integers(1, 3), shift=_SHIFTS,
           eps=st.floats(1e-3, 1e3))
    @settings(max_examples=40, deadline=None)
    def test_kernel_matrix_exact_under_exact_translation(self, seed, d, shift, eps):
        rng = np.random.default_rng(seed)
        A, B = _dyadic(rng, 11, d), _dyadic(rng, 7, d)
        c = np.asarray(shift[:d]) / 64.0
        assert np.array_equal(kernel_matrix(A + c, B + c, eps), kernel_matrix(A, B, eps))
        assert np.array_equal(gram(A + c, eps), gram(A, eps))

    def test_kernel_matrix_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel_matrix(np.zeros((2, 1)), np.zeros((2, 2)), 1.0)

    @pytest.mark.parametrize("A, B", [((3, 2, 1), (4, 2)), ((2, 1, 2), (4, 2)),
                                      ((4, 2), (3, 2, 1))])
    def test_kernel_matrix_refuses_arrays_of_more_than_two_axes_by_shape(self, A, B):
        with pytest.raises(ValueError, match=re.escape(f"got shapes {A} and {B}")):
            kernel_matrix(np.zeros(A), np.zeros(B), 1.0)

    @pytest.mark.parametrize("d, m", [(1, 2), (1, 100), (2, 100)])
    def test_a_tiny_epsilon_gives_the_zero_kernel_without_a_warning(self, d, m):
        # d^2 / epsilon overflows to inf, and exp(-inf) = 0 is the right entry;
        # m = 100 runs the narrow-buffer path, d = 2 several tiles
        X = np.arange(m * d, dtype=float).reshape(m, d)
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            K = kernel_matrix(X, X[:70], 1e-320)
        assert np.array_equal(K, np.eye(m, min(m, 70)))
        assert np.geterr() == before


class TestBufferSize:
    """The kernel narrows numpy's ufunc buffer for narrow batches and must hand
    the caller's setting back, also when the call raises."""

    @pytest.mark.parametrize("size", [8192, 16, 2**16])  # numpy's default first
    def test_callers_buffer_size_restored(self, size):
        saved = np.setbufsize(size)
        try:
            X = np.random.default_rng(4).uniform(-1, 1, size=(1000, 2))
            kernel_matrix(X, X[:300], 0.5)
            assert np.getbufsize() == size
            gram(X[:700], 0.5)
            assert np.getbufsize() == size
            diameter_T(X)
            assert np.getbufsize() == size
            for bad in (np.ones((500, 2)), 1e300 * X):
                with pytest.raises(DegenerateGeometryError):
                    diameter_T(bad)
                assert np.getbufsize() == size
            with np.errstate(over="raise"):
                with pytest.raises(FloatingPointError):
                    kernel_matrix(1e300 * X, X[:300], 0.5)
                assert np.getbufsize() == size
        finally:
            np.setbufsize(saved)


class TestNumericalRank:
    def test_identity_is_full_rank(self):
        assert numerical_rank(np.eye(17), 1e-10) == 17
        assert numerical_rank(np.eye(17), 0.5) == 17

    def test_tiny_trailing_value_dropped(self):
        assert numerical_rank(np.diag([1.0, 1e-12]), 1e-10) == 1

    def test_zero_matrix_signals_rank_zero(self):
        assert numerical_rank(np.zeros((4, 4)), 1e-10) == 0

    def test_two_clusters_match_svd_oracle(self):
        rng = np.random.default_rng(5)
        X = np.vstack(
            [rng.normal(0.0, 1e-3, size=(10, 1)), rng.normal(5.0, 1e-3, size=(10, 1))]
        )
        G = gram(X, 100.0)
        sv = np.linalg.svd(G, compute_uv=False)
        expect = int(np.sum(sv / sv[0] >= 1e-6))
        got = numerical_rank(G, 1e-6)
        assert got == expect
        assert got <= 4  # two tight clusters at a coarse scale collapse

    @given(seed=st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_monotone_nonincreasing_in_phi(self, seed):
        rng = np.random.default_rng(seed)
        G = gram(rng.uniform(0, 1, size=(12, 1)), 0.5)
        phis = [1e-14, 1e-10, 1e-6, 1e-3, 1e-1, 0.9]
        ranks = [numerical_rank(G, p) for p in phis]
        assert all(a >= b for a, b in zip(ranks, ranks[1:]))

    def test_rank_nondecreasing_across_scales(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(0, 1, size=(60, 1))
        T = diameter_T(X)
        ranks = [numerical_rank(gram(X, T / 2.0**s), 1e-10) for s in range(12)]
        assert all(a <= b for a, b in zip(ranks, ranks[1:]))

    def test_phi_out_of_range(self):
        with pytest.raises(ValueError):
            numerical_rank(np.eye(2), 0.0)
