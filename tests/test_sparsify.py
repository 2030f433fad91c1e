import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiersparse import (
    diameter_T,
    gram,
    numerical_rank,
    pivoted_qr,
    pivoted_qr_permutation,
    select_basis,
    sketch,
)
from helpers import greedy_pivot_oracle


def _random_gram(n, seed, eps=0.5):
    rng = np.random.default_rng(seed)
    return gram(rng.uniform(0, 1, size=(n, 2)), eps)


class TestSketch:
    def test_oversampled_shape(self):
        W = sketch(_random_gram(100, 0), l_s=20, k_extra=8, seed=1)
        assert W.shape == (28, 100)

    def test_row_count_clamped_to_n(self):
        W = sketch(_random_gram(5, 0), l_s=5, k_extra=8, seed=1)
        assert W.shape == (5, 5)

    def test_deterministic_given_seed(self):
        G = _random_gram(30, 3)
        a = sketch(G, 10, 8, seed=42)
        b = sketch(G, 10, 8, seed=42)
        c = sketch(G, 10, 8, seed=43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_requires_positive_rank(self):
        with pytest.raises(ValueError):
            sketch(_random_gram(5, 0), 0, 8, seed=0)

    def test_rejects_negative_oversampling(self):
        with pytest.raises(ValueError, match="k_extra"):
            sketch(_random_gram(20, 0), 10, -3, seed=0)


class TestPivotedQR:
    def test_orthogonal_columns_ordered_by_norm(self):
        W = np.diag([3.0, 2.0, 1.0])
        perm, rdiag = pivoted_qr(W)
        assert perm.tolist() == [0, 1, 2]
        assert np.abs(rdiag).tolist() == pytest.approx([3.0, 2.0, 1.0])

    def test_duplicate_direction_rank_one(self):
        c = np.array([1.0, 2.0, 2.0])
        W = np.column_stack([c, 2.0 * c])
        perm, rdiag = pivoted_qr(W)
        assert perm[0] == 1  # the doubled column wins the first pivot
        assert abs(rdiag[1]) <= 1e-12 * abs(rdiag[0])

    def test_matches_greedy_oracle(self):
        rng = np.random.default_rng(9)
        W = rng.standard_normal((6, 8))
        perm, rdiag = pivoted_qr(W)
        order, norms = greedy_pivot_oracle(W)
        assert perm[: len(order)].tolist() == order
        assert np.abs(rdiag) == pytest.approx(norms, rel=1e-10)

    def test_rdiag_magnitudes_nonincreasing(self):
        rng = np.random.default_rng(10)
        _, rdiag = pivoted_qr(rng.standard_normal((12, 20)))
        mags = np.abs(rdiag)
        assert np.all(mags[:-1] >= mags[1:] - 1e-12 * mags[0])

    def test_tie_break_prefers_lower_index(self):
        # two exactly identical columns: the earlier one is picked first
        c = np.array([1.0, 1.0])
        W = np.column_stack([c, c, 0.5 * c])
        perm, _ = pivoted_qr(W)
        assert perm[0] == 0

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            pivoted_qr_permutation(np.zeros((3, 4)))

    @given(seed=st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_result_is_a_permutation(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 7))
        n = int(rng.integers(1, 9))
        W = rng.standard_normal((k, n))
        perm = pivoted_qr_permutation(W)
        assert sorted(perm.tolist()) == list(range(n))


class TestSelectBasis:
    def test_full_selection_with_identity_pivot(self):
        G = _random_gram(6, 1)
        basis = select_basis(G, np.arange(6), 6)
        assert np.array_equal(basis.B, G)
        assert basis.selected.tolist() == list(range(6))

    def test_single_column(self):
        G = _random_gram(6, 2)
        basis = select_basis(G, np.array([4, 0, 1, 2, 3, 5]), 1)
        assert basis.B.shape == (6, 1)
        assert np.array_equal(basis.B[:, 0], G[:, 4])
        assert basis.selected.tolist() == [4]

    def test_columns_follow_pivot_order(self):
        G = _random_gram(8, 3)
        pivot = np.array([3, 6, 0, 1, 2, 4, 5, 7])
        basis = select_basis(G, pivot, 4)
        for j, idx in enumerate([3, 6, 0, 1]):
            assert np.array_equal(basis.B[:, j], G[:, idx])

    def test_duplicate_pivot_rejected(self):
        with pytest.raises(ValueError):
            select_basis(_random_gram(5, 4), np.array([0, 0, 1, 2, 3]), 3)

    def test_selection_is_distinct_subset(self):
        G = _random_gram(40, 5)
        l = numerical_rank(G, 1e-10)
        perm = pivoted_qr_permutation(sketch(G, l, 8, seed=0))
        basis = select_basis(G, perm, l)
        sel = basis.selected
        assert len(set(sel.tolist())) == l
        assert np.all((0 <= sel) & (sel < 40))

    def test_coarse_scale_spreads_over_clusters(self):
        rng = np.random.default_rng(8)
        left = rng.normal(0.0, 0.05, size=(10, 1))
        right = rng.normal(10.0, 0.05, size=(10, 1))
        X = np.vstack([left, right])
        T = diameter_T(X)
        G = gram(X, T)
        l = numerical_rank(G, 1e-10)
        perm = pivoted_qr_permutation(sketch(G, l, 8, seed=0))
        first_two = perm[:2]
        sides = {int(idx >= 10) for idx in first_two}
        assert sides == {0, 1}  # one representative per cluster

    def test_selected_basis_numerically_full_rank(self):
        rng = np.random.default_rng(12)
        X = rng.uniform(0, 1, size=(50, 1))
        T = diameter_T(X)
        G = gram(X, T / 8.0)
        l = numerical_rank(G, 1e-10)
        basis = select_basis(G, pivoted_qr_permutation(sketch(G, l, 8, 1)), l)
        sv = np.linalg.svd(basis.B, compute_uv=False)
        assert int(np.sum(sv / sv[0] >= 1e-10)) == l
