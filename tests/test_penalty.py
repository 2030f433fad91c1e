import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiersparse import PenaltySpec, penalty_components, penalty_operator
from hiersparse.penalty import component_action, penalty_band
from helpers import difference_matrix_oracle, penalty_oracle, permutation_matrix_oracle


def _dense_factor(q, pts, i):
    """F = D^q Pe_i from the independent oracles."""
    return difference_matrix_oracle(q, len(pts)) @ permutation_matrix_oracle(pts[:, i])


class TestPermutationOperator:
    """The permutation Pe_i by which ``component_action`` gathers coefficients."""

    def test_sorted_centers_identity(self):
        pts = np.array([[0.0], [1.0], [2.5]])
        D = difference_matrix_oracle(1, 3)
        assert np.array_equal(component_action(1, pts, 0)(np.eye(3)), D.T @ D)

    def test_four_center_plane_geometry(self):
        # x-order is 1,3,2,4 while y-order is already 1,2,3,4
        pts = np.array([[0.0, 0.0], [2.0, 1.0], [1.0, 2.0], [3.0, 3.0]])
        pe_x = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float)
        F = difference_matrix_oracle(1, 4)
        psi_x, psi_y = penalty_components((1, 1), pts)
        assert np.array_equal(psi_x, (F @ pe_x).T @ (F @ pe_x))
        assert np.array_equal(psi_y, F.T @ F)

    def test_stable_on_ties(self):
        pts = np.array([[1.0], [0.0], [1.0], [0.0]])
        theta = np.array([1.0, 2.0, 3.0, 4.0])
        # equal coordinates keep their basis order: 2,4 then 1,3, so F theta =
        # (2, -3, 2) and F^T scatters (-2, 5, -5, 2) back to positions 2, 4, 1, 3
        assert np.array_equal(component_action(1, pts, 0)(theta), [-5.0, -2.0, 2.0, 5.0])
        assert np.array_equal(penalty_components((1,), pts)[0] @ theta, [-5.0, -2.0, 2.0, 5.0])

    def test_bad_dimension(self):
        with pytest.raises(ValueError, match="dimension 2 out of range"):
            component_action(1, np.zeros((3, 2)), 2)
        with pytest.raises(ValueError, match="dimension 2 out of range"):
            penalty_components((1, 2, 1), np.zeros((3, 2)))

    @pytest.mark.parametrize("build", [
        lambda pts: penalty_band((1,), pts),
        lambda pts: penalty_components((2,), pts),
        lambda pts: penalty_operator(PenaltySpec((1,), [1.0]), pts),
    ])
    def test_fewer_orders_than_dimensions_are_refused(self, build):
        with pytest.raises(ValueError, match="are fewer than the d=2 dimensions"):
            build(np.zeros((3, 2)))


def _same_bits(a, b):
    """Equal values and equal sign bits, so -0.0 and +0.0 differ."""
    return (a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _action_reference(q, pts, i, Z):
    """Psi_i Z as ``np.diff`` writes it: gather, q differences, q negated
    zero-padded differences, scatter; the action must match its bits."""
    order = np.argsort(pts[:, i], kind="stable")
    if len(order) <= q:
        return np.zeros_like(Z)
    W = np.diff(Z[order], n=q, axis=0)
    for _ in range(q):
        W = -np.diff(W, axis=0, prepend=0.0, append=0.0)
    out = np.empty_like(W)
    out[order] = W
    return out


class TestBand:
    """``penalty_band`` is the one source of the components, dense or banded."""

    @given(m=st.one_of(st.integers(0, 12), st.integers(13, 60)), d=st.integers(1, 3),
           tied=st.booleans(), seed=st.integers(0, 2**16), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_scattered_band_is_the_component(self, m, d, tied, seed, data):
        rng = np.random.default_rng(seed)
        pts = (rng.integers(0, 3, size=(m, d)).astype(float) if tied
               else rng.standard_normal((m, d)))
        Q = tuple(data.draw(st.sampled_from((1, 2))) for _ in range(d))
        index, values = penalty_band(Q, pts)
        assert np.all(np.diff(index) > 0) and len(values) == d
        assert all(v.dtype == float and v.shape == index.shape for v in values)
        for i, (q, v, psi) in enumerate(zip(Q, values, penalty_components(Q, pts))):
            dense = np.zeros((m, m))
            dense.ravel()[index] = v
            # the action on the identity, with its -0.0 entries made +0.0 as in F^T F
            assert _same_bits(dense, component_action(q, pts, i)(np.eye(m)) + 0.0)
            assert _same_bits(psi, dense)
            if m > q:
                F = _dense_factor(q, pts, i)
                assert np.array_equal(psi, F.T @ F)
            assert np.all(np.count_nonzero(psi, axis=1) <= 2 * q + 1)
        if d == 1:  # a flat array of centers is the column it holds
            flat = penalty_components(Q, pts[:, 0])
            assert len(flat) == 1 and _same_bits(flat[0], penalty_components(Q, pts)[0])

    def test_only_the_two_stencils(self):
        with pytest.raises(ValueError, match="order 3"):
            penalty_band((1, 3), np.zeros((4, 2)))

    @given(m=st.integers(1, 30), q=st.sampled_from((1, 2)), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_action_keeps_its_bits_and_the_input_layout(self, m, q, seed):
        rng = np.random.default_rng(seed)
        pts = rng.integers(0, 4, size=(m, 1)).astype(float)
        Z = rng.standard_normal((m, 4))
        Z[rng.random(Z.shape) < 0.3] = 0.0
        Z[rng.random(Z.shape) < 0.2] = -0.0
        act = component_action(q, pts, 0)
        by_rows, by_cols = act(Z), act(np.asfortranarray(Z))
        assert by_rows.flags.c_contiguous and by_cols.flags.f_contiguous
        assert _same_bits(by_rows, _action_reference(q, pts, 0, Z))
        assert _same_bits(by_rows, by_cols)
        assert _same_bits(component_action(q, pts[:, 0], 0)(Z), by_rows)  # flat centers
        for j in range(Z.shape[1]):
            assert _same_bits(act(Z[:, j].copy()), by_rows[:, j])


class TestPenaltyOperator:
    def test_sorted_1d_first_order_is_tridiagonal_laplacian(self):
        pts = np.array([[0.0], [1.0], [2.0], [3.0]])
        spec = PenaltySpec(Q=(1,), Lambda=np.array([1.0]))
        P = penalty_operator(spec, pts).P
        D = difference_matrix_oracle(1, 4)
        assert np.array_equal(P, D.T @ D)
        assert _same_bits(penalty_operator(spec, pts[:, 0]).P, P)  # flat centers
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
            F = _dense_factor(q, pts, i)
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
            F = _dense_factor(q, pts, i)
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
                F = _dense_factor(q, pts, i)
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
