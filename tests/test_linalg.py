import numpy as np
import pytest
from hull_oracle import point_sets
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from optray.linalg import (
    Basis,
    complement,
    nnls,
    orthonormal_basis,
)


class TestOrthonormalBasis:
    def test_collinear_inputs_give_rank_one(self):
        b = orthonormal_basis(np.array([[1.0, 0.0], [2.0, 0.0]]))
        assert b.rank == 1
        np.testing.assert_allclose(b.columns[:, 0], [1.0, 0.0], atol=1e-14)

    def test_independent_inputs_give_full_rank(self):
        b = orthonormal_basis(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert b.rank == 2

    def test_single_vector_is_kept_in_its_own_direction(self):
        v = np.array([[1.0, 1e-14]])
        b = orthonormal_basis(v, rank_tol=1e-10)
        assert b.rank == 1
        unit = v[0] / np.linalg.norm(v[0])
        assert abs(abs(b.columns[:, 0] @ unit) - 1.0) < 1e-15

    def test_empty_input_is_rank_zero(self):
        b = orthonormal_basis(np.zeros((0, 3)))
        assert b.rank == 0 and b.dim == 3

    def test_columns_are_orthonormal(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rng.standard_normal((rng.integers(1, 6), 4))
            b = orthonormal_basis(m)
            np.testing.assert_allclose(
                b.columns.T @ b.columns, np.eye(b.rank), atol=1e-10
            )


class TestProject:
    def test_axis_projection(self):
        b = Basis(np.array([[1.0], [0.0]]))
        np.testing.assert_allclose(b.project(np.array([3.0, 4.0])), [3.0, 0.0])

    def test_rank_zero_projects_to_zero(self):
        b = Basis(np.zeros((2, 0)))
        np.testing.assert_allclose(b.project(np.array([3.0, 4.0])), [0.0, 0.0])

    def test_full_rank_is_identity(self):
        b = orthonormal_basis(np.eye(3))
        w = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(b.project(w), w, atol=1e-10)

    def test_dimension_mismatch_raises(self):
        b = Basis(np.zeros((2, 0)))
        with pytest.raises(ValueError):
            b.project(np.zeros(3))

    def test_idempotent_and_nonexpansive_random(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            d = int(rng.integers(1, 6))
            m = rng.standard_normal((int(rng.integers(1, 4)), d))
            b = orthonormal_basis(m)
            w = rng.standard_normal(d)
            p = b.project(w)
            np.testing.assert_allclose(b.project(p), p, atol=1e-10)
            assert np.linalg.norm(p) <= np.linalg.norm(w) + 1e-10

    def test_complementary_projections_sum_to_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            b = orthonormal_basis(rng.standard_normal((int(rng.integers(1, d + 1)), d)))
            bp = complement(b)
            assert b.rank + bp.rank == d
            w = rng.standard_normal(d)
            np.testing.assert_allclose(b.project(w) + bp.project(w), w, atol=1e-10)
            if b.rank and bp.rank:
                np.testing.assert_allclose(b.columns.T @ bp.columns, 0.0, atol=1e-12)


class TestNnls:
    def test_target_inside_the_cone(self):
        E = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, -1.0]])
        x, r = nnls(E, np.array([2.0, 3.0]))
        np.testing.assert_allclose(E @ x, [2.0, 3.0], atol=1e-15)
        np.testing.assert_allclose(r, [0.0, 0.0], atol=1e-15)

    def test_target_outside_the_cone(self):
        # the cone is the first quadrant; (-1, 2) projects onto (0, 2)
        x, r = nnls(np.eye(2), np.array([-1.0, 2.0]))
        np.testing.assert_allclose(x, [0.0, 2.0])
        np.testing.assert_allclose(r, [-1.0, 0.0])

    def test_no_columns_and_zero_columns(self):
        f = np.array([1.0, -2.0])
        x, r = nnls(np.zeros((2, 0)), f)
        assert x.shape == (0,)
        np.testing.assert_array_equal(r, f)
        x, r = nnls(np.zeros((2, 3)), f)
        np.testing.assert_array_equal(x, np.zeros(3))
        np.testing.assert_array_equal(r, f)

    def test_column_near_the_underflow_limit(self):
        # lstsq's rank cutoff dropped the third column, leaving residual 0.707;
        # the answer needs a weight of about 1/1.1e-308 on it
        E = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, -1.1e-308]])
        f = np.array([1.0, 0.0])
        x, r = nnls(E, f)
        assert np.all(np.isfinite(x)) and x.min() >= 0.0
        assert float(np.linalg.norm(r)) <= 1e-15

    def test_decrease_below_the_rounding_of_the_residual(self):
        # the first column alone lowers |r|^2 by 1e-24, which 1 - 1e-24 rounds
        # away; both columns together reach the target
        E = np.array([[1.0, -1.0], [1e-12, 0.0]])
        x, r = nnls(E, np.array([0.0, 1.0]))
        np.testing.assert_allclose(x, [1e12, 1e12], rtol=1e-12)
        assert float(np.linalg.norm(r)) <= 1e-15

    @settings(max_examples=300, deadline=None)
    @given(point_sets(), st.data())
    def test_matches_scipy(self, P, data):
        scipy_opt = pytest.importorskip("scipy.optimize")
        # columns of any length from 1 down to 1e-300 (subnormal entries are
        # zeroed, and the target has none: scipy's solver can crash on them).
        # Entries below 1e-6 of their column's largest are zeroed: two columns at
        # an angle below about sqrt(eps) hide the last step from the residual
        # (columns (1, 1e-9), (1, 0) and target (1, 0) end at 1e-9)
        P = np.where(np.abs(P) < 1e-6 * np.abs(P).max(axis=1, keepdims=True), 0.0, P)
        exps = data.draw(st.lists(st.integers(-300, 0), min_size=P.shape[0], max_size=P.shape[0]))
        E = P.T * 10.0 ** np.array(exps)
        E = np.where(np.abs(E) < np.finfo(float).tiny, 0.0, E)
        f = data.draw(
            arrays(np.float64, E.shape[0], elements=st.floats(-2.0, 2.0, allow_subnormal=False))
        )
        x_ref = scipy_opt.nnls(E, f)[0]
        # the comparison needs an answer resolved to 1e-12: drop the few inputs
        # whose weights are large enough for rounding to exceed that
        assume(np.finfo(float).eps * float(np.hypot.reduce(E, axis=0) @ x_ref) <= 1e-13)
        x, r = nnls(E, f)
        assert x.min() >= 0.0
        np.testing.assert_array_equal(r, f - E @ x)
        # against the residual scipy's weights reach: the one it reports can be
        # lower than any weights reach when column lengths differ by many orders
        assert float(np.linalg.norm(r)) <= float(np.linalg.norm(f - E @ x_ref)) + 1e-12
