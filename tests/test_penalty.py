import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiersparse import (
    PenaltySpec,
    difference_matrix,
    penalty_components,
    penalty_operator,
    permutation_operator,
)
from hiersparse.penalty import component_action
from helpers import penalty_oracle, sort_permutation_oracle


class TestDifferenceMatrix:
    def test_first_order_five(self):
        expect = np.array(
            [
                [-1, 1, 0, 0, 0],
                [0, -1, 1, 0, 0],
                [0, 0, -1, 1, 0],
                [0, 0, 0, -1, 1],
            ],
            dtype=float,
        )
        assert np.array_equal(difference_matrix(1, 5), expect)

    def test_second_order_five(self):
        expect = np.array(
            [
                [1, -2, 1, 0, 0],
                [0, 1, -2, 1, 0],
                [0, 0, 1, -2, 1],
            ],
            dtype=float,
        )
        assert np.array_equal(difference_matrix(2, 5), expect)

    def test_smallest_case(self):
        assert np.array_equal(difference_matrix(1, 2), np.array([[-1.0, 1.0]]))

    def test_degenerate_sizes_give_empty(self):
        assert difference_matrix(2, 2).shape == (0, 2)
        assert difference_matrix(1, 1).shape == (0, 1)

    @given(q=st.sampled_from([1, 2]), m=st.integers(3, 25))
    def test_rows_annihilate_constants(self, q, m):
        D = difference_matrix(q, m)
        assert np.allclose(D @ np.ones(m), 0.0, atol=1e-12)

    def test_order_composition(self):
        # q-th difference = first difference applied q times
        D2 = difference_matrix(2, 7)
        composed = difference_matrix(1, 6) @ difference_matrix(1, 7)
        assert np.array_equal(D2, composed)


class TestPermutationOperator:
    def test_sorted_centers_identity(self):
        pts = np.array([[0.0], [1.0], [2.5]])
        assert np.array_equal(permutation_operator(pts, 0), np.eye(3))

    def test_four_center_plane_geometry(self):
        # x-order is 1,3,2,4 while y-order is already 1,2,3,4
        pts = np.array([[0.0, 0.0], [2.0, 1.0], [1.0, 2.0], [3.0, 3.0]])
        pe_x = permutation_operator(pts, 0)
        pe_y = permutation_operator(pts, 1)
        expect_x = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float
        )
        assert np.array_equal(pe_x, expect_x)
        assert np.array_equal(pe_y, np.eye(4))
        theta = np.array([10.0, 20.0, 30.0, 40.0])
        assert np.array_equal(pe_x @ theta, np.array([10.0, 30.0, 20.0, 40.0]))

    @given(seed=st.integers(0, 300))
    @settings(max_examples=30)
    def test_matches_comparison_sort_oracle(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((8, 2))
        for dim in (0, 1):
            pe = permutation_operator(pts, dim)
            reordered = pe @ pts[:, dim]
            oracle = [pts[i, dim] for i in sort_permutation_oracle(pts[:, dim])]
            assert reordered.tolist() == oracle

    def test_orthogonal_with_integer_entries(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((9, 3))
        pe = permutation_operator(pts, 2)
        assert np.array_equal(pe.T @ pe, np.eye(9))
        assert set(np.unique(pe)) == {0.0, 1.0}

    def test_stable_on_ties(self):
        pts = np.array([[1.0], [0.0], [1.0], [0.0]])
        pe = permutation_operator(pts, 0)
        theta = np.array([1.0, 2.0, 3.0, 4.0])
        # equal coordinates keep their basis order: 2,4 then 1,3
        assert np.array_equal(pe @ theta, np.array([2.0, 4.0, 1.0, 3.0]))

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            permutation_operator(np.zeros((3, 2)), 2)


class TestPenaltyOperator:
    def test_sorted_1d_first_order_is_tridiagonal_laplacian(self):
        pts = np.array([[0.0], [1.0], [2.0], [3.0]])
        spec = PenaltySpec(Q=(1,), Lambda=np.array([1.0]))
        P = penalty_operator(spec, pts).P
        D = difference_matrix(1, 4)
        assert np.array_equal(P, D.T @ D)
        assert np.allclose(np.diag(P), [1.0, 2.0, 2.0, 1.0])

    def test_constant_vector_annihilated(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((7, 2))
        spec = PenaltySpec(Q=(1, 2), Lambda=np.array([0.4, 2.0]))
        P = penalty_operator(spec, pts).P
        assert np.allclose(P @ np.ones(7), 0.0, atol=1e-12)

    def test_matches_dense_composition_oracle(self):
        rng = np.random.default_rng(6)
        pts = rng.standard_normal((9, 2))
        lam = np.array([0.3, 0.7])
        spec = PenaltySpec(Q=(1, 2), Lambda=lam)
        P = penalty_operator(spec, pts).P
        expect = penalty_oracle((1, 2), lam, pts)
        assert np.allclose(P, expect, rtol=1e-12, atol=1e-12)

    @given(seed=st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_components_equal_dense_permutation_product(self, seed):
        # integer coordinates on a few values, so most dimensions have ties
        rng = np.random.default_rng(seed)
        m, d = int(rng.integers(3, 25)), int(rng.integers(1, 4))
        pts = rng.integers(0, 4, size=(m, d)).astype(float)
        Q = tuple(int(q) for q in rng.integers(1, 3, size=d))
        for i, (q, psi) in enumerate(zip(Q, penalty_components(Q, pts))):
            F = difference_matrix(q, m) @ permutation_operator(pts, i)
            dense = F.T @ F
            dense = (dense + dense.T) / 2.0
            # array_equal counts -0.0 and +0.0 as equal; the factorizations do not
            assert np.array_equal(psi, dense)
            assert np.array_equal(np.signbit(psi), np.signbit(dense))

    @given(seed=st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_component_action_is_the_dense_product(self, seed):
        # m from 1, so the degenerate m <= q components are drawn too
        rng = np.random.default_rng(seed)
        m, d = int(rng.integers(1, 25)), int(rng.integers(1, 4))
        pts = rng.integers(0, 4, size=(m, d)).astype(float)
        Q = tuple(int(q) for q in rng.integers(1, 3, size=d))
        Z = rng.standard_normal((m, 3))
        for i, q in enumerate(Q):
            F = difference_matrix(q, m) @ permutation_operator(pts, i)
            psi = F.T @ F
            act = component_action(q, pts, i)
            assert np.allclose(act(Z), psi @ Z, rtol=1e-12, atol=1e-12)
            assert np.allclose(act(Z[:, 0]), psi @ Z[:, 0], rtol=1e-12, atol=1e-12)

    @given(seed=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_quadratic_form_identity(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((8, 2))
        lam = rng.uniform(0.1, 3.0, size=2)
        Q = tuple(rng.integers(1, 3, size=2))
        P = penalty_operator(PenaltySpec(Q=Q, Lambda=lam), pts).P
        for _ in range(10):
            theta = rng.standard_normal(8)
            direct = theta @ P @ theta
            parts = 0.0
            for i, q in enumerate(Q):
                F = difference_matrix(q, 8) @ permutation_operator(pts, i)
                parts += lam[i] * float(np.sum((F @ theta) ** 2))
            assert direct == pytest.approx(parts, rel=1e-10, abs=1e-12)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((10, 3))
        spec = PenaltySpec(Q=(2, 1, 2), Lambda=np.array([1.0, 0.5, 2.0]))
        P = penalty_operator(spec, pts).P
        assert np.linalg.eigvalsh(P).min() >= -1e-10 * np.trace(P)

    def test_second_order_annihilates_sorted_linear_ramp(self):
        rng = np.random.default_rng(9)
        pts = rng.standard_normal((12, 1))
        P = penalty_operator(PenaltySpec(Q=(2,), Lambda=np.array([1.0])), pts).P
        order = np.argsort(pts[:, 0], kind="stable")
        ramp = np.empty(12)
        ramp[order] = np.arange(12, dtype=float)  # linear in sorted rank
        assert np.allclose(P @ (3.0 * ramp + 5.0), 0.0, atol=1e-10)

    def test_too_few_coefficients_contribute_zero(self):
        pts = np.array([[0.0], [1.0]])
        comps = penalty_components((2,), pts)
        assert np.array_equal(comps[0], np.zeros((2, 2)))
        # a single coefficient degenerates to an all-zero operator
        P = penalty_operator(PenaltySpec(Q=(1,), Lambda=np.array([1.0])), [[0.5]]).P
        assert np.array_equal(P, np.zeros((1, 1)))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PenaltySpec(Q=(3,), Lambda=np.array([1.0]))
        with pytest.raises(ValueError):
            PenaltySpec(Q=(1,), Lambda=np.array([0.0]))
        with pytest.raises(ValueError):
            PenaltySpec(Q=(1, 2), Lambda=np.array([1.0]))
