import numpy as np
import pytest
from hull_oracle import block_rows

from optray import lp
from optray.decompose import separable_certificate
from optray.errors import LPError


def test_simple_box():
    # max x1 + x2 s.t. x1 <= 2, x2 <= 3
    res = lp.solve_max(np.ones(2), np.eye(2), np.array([2.0, 3.0]))
    np.testing.assert_allclose(res.x, [2.0, 3.0])
    assert res.objective == pytest.approx(5.0)


def test_coupled_constraints():
    # max 3x + 2y s.t. x + y <= 4, x + 3y <= 6
    c = np.array([3.0, 2.0])
    G = np.array([[1.0, 1.0], [1.0, 3.0]])
    h = np.array([4.0, 6.0])
    res = lp.solve_max(c, G, h)
    np.testing.assert_allclose(res.x, [4.0, 0.0], atol=1e-12)
    assert res.objective == pytest.approx(12.0)


def test_degenerate_zero_rhs():
    # max s s.t. s - u <= 0, u <= 5, s <= 1: optimum s = 1
    c = np.array([0.0, 1.0])
    G = np.array([[-1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    h = np.array([0.0, 5.0, 1.0])
    res = lp.solve_max(c, G, h)
    assert res.objective == pytest.approx(1.0)


def test_zero_objective_at_origin():
    # conflicting rows force the optimum to stay at zero
    c = np.array([1.0, 1.0])
    G = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    h = np.array([0.0, 0.0, 1.0, 1.0])
    # x + y <= 0 with x,y >= 0 pins both at 0
    res = lp.solve_max(c, G, h)
    assert res.objective == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(res.x, [0.0, 0.0], atol=1e-12)


def test_negative_rhs_rejected():
    with pytest.raises(ValueError):
        lp.solve_max(np.ones(1), np.eye(1), np.array([-1.0]))


def test_matches_scipy_on_random_instances():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(5)
    for _ in range(50):
        nvar = int(rng.integers(1, 5))
        m = int(rng.integers(1, 6))
        c = rng.standard_normal(nvar)
        G = rng.standard_normal((m, nvar))
        h = rng.uniform(0.1, 2.0, size=m)
        # box the variables so both solvers agree the LP is bounded
        G = np.vstack([G, np.eye(nvar)])
        h = np.concatenate([h, np.full(nvar, 10.0)])
        ours = lp.solve_max(c, G, h)
        ref = scipy_opt.linprog(-c, A_ub=G, b_ub=h, bounds=(0, None), method="highs")
        assert ref.success
        assert ours.objective == pytest.approx(-ref.fun, abs=1e-8)


def test_infeasible_pivot_result_is_not_returned():
    # on this d = 6 instance the pivot sequence ends at a point that violates
    # A u <= -s by about 4; it must raise instead of passing as optimal
    A = block_rows(6, 3, 50, 30, 8)
    try:
        cert = separable_certificate(A, np.arange(50))
    except LPError:
        return
    assert cert.residual(A) <= 1e-9
