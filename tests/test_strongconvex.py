import lambda_oracle
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hull_oracle import block_rows

from optray import strongconvex
from optray._kernels import LOSSES
from optray.dataset import synth, to_margin_matrix
from optray.decompose import partition
from optray.errors import ConvergenceError, LPError, NumericalError
from optray.linalg import orthonormal_basis
from optray.strongconvex import (
    _boundary_steps,
    _level,
    _restricted,
    estimate_lambda,
    solve_vbar,
)

EPS = np.finfo(float).eps
LN2 = np.log(2.0)
BASIS_1D = orthonormal_basis(np.array([[1.0]]))


class TestSolveVbar:
    def test_symmetric_logistic(self):
        a_s = np.array([[-1.0], [1.0]])
        opt = solve_vbar(a_s, BASIS_1D, "logistic", n_total=2)
        assert opt.offset[0] == pytest.approx(0.0, abs=1e-9)
        assert opt.risk_inf == pytest.approx(LN2, abs=1e-12)
        assert opt.grad_norm <= 1e-10

    def test_asymmetric_exponential_closed_form(self):
        # minimize (2 e^{-w} + e^{w})/3: stationarity e^{2w} = 2 gives
        # w = ln(2)/2 and value 2 sqrt(2)/3
        a_s = np.array([[-1.0], [-1.0], [1.0]])
        opt = solve_vbar(a_s, BASIS_1D, "exponential", n_total=3)
        assert opt.offset[0] == pytest.approx(LN2 / 2, abs=1e-8)
        assert opt.risk_inf == pytest.approx(2 * np.sqrt(2) / 3, abs=1e-8)

    def test_empty_block(self):
        opt = solve_vbar(np.zeros((0, 2)), orthonormal_basis(np.zeros((0, 2))), "logistic", 5)
        np.testing.assert_allclose(opt.offset, [0.0, 0.0])
        assert opt.risk_inf == 0.0
        assert opt.curvature == np.inf

    def test_rank_zero_block(self):
        # an all-zero row contributes loss(0)/n and admits only the origin
        basis0 = orthonormal_basis(np.zeros((0, 2)))
        opt = solve_vbar(np.zeros((1, 2)), basis0, "logistic", n_total=3)
        assert opt.risk_inf == pytest.approx(LN2 / 3)
        np.testing.assert_allclose(opt.offset, [0.0, 0.0])

    def test_optimum_beats_random_points(self):
        rng = np.random.default_rng(3)
        rows = np.array([[-0.7, 0.2], [0.5, 0.5], [0.1, -0.8]])
        basis = orthonormal_basis(rows)
        opt = solve_vbar(rows, basis, "logistic", n_total=3)
        from optray.gd import risk

        base = risk(rows, "logistic", opt.offset)
        assert base == pytest.approx(opt.risk_inf, abs=1e-12)
        for _ in range(100):
            v = basis @ rng.standard_normal(basis.shape[1])
            assert base <= risk(rows, "logistic", v) + 1e-12


class TestInfimumRisk:
    def test_canonical_mixed_logistic(self):
        A = np.array([[-1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
        dec = partition(A)
        opt = solve_vbar(A[dec.sc_rows], dec.basis_s, "logistic", n_total=len(A))
        assert opt.risk_inf == pytest.approx(2 * LN2 / 3, abs=1e-10)
        np.testing.assert_allclose(opt.offset, [0.0, 0.0], atol=1e-9)

    def test_fully_separable_is_zero(self):
        A = np.array([[-1.0, 0.0], [0.0, -1.0]])
        dec = partition(A)
        opt = solve_vbar(A[dec.sc_rows], dec.basis_s, "logistic", n_total=len(A))
        assert opt.risk_inf == 0.0


class TestRayConsistency:
    def test_risk_along_ray_decreases_to_infimum(self):
        # moving out along the margin direction from the bounded optimum
        # drives the full risk down to its infimum
        from optray.gd import risk
        from optray.margin import solve_dual

        A = np.array([[-1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
        dec = partition(A)
        opt = solve_vbar(A[dec.sc_rows], dec.basis_s, "logistic", n_total=len(A))
        sol = solve_dual(dec.a_perp)
        gaps = [
            risk(A, "logistic", opt.offset + r * sol.direction) - opt.risk_inf
            for r in (1.0, 2.0, 4.0, 8.0)
        ]
        assert all(g > 0 for g in gaps)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3


class TestEstimateLambda:
    def grid_min_eig_1d(self, a_s, loss, n_total):
        # brute-force oracle: reduced Hessian over a dense grid of the
        # level-1 sublevel set
        from optray._kernels import loss_curvs, loss_values

        ws = np.linspace(-6, 6, 24001)
        vals = np.array([np.sum(loss_values(a_s[:, 0] * w, loss)) / n_total for w in ws])
        hess = np.array([np.sum(loss_curvs(a_s[:, 0] * w, loss) * a_s[:, 0] ** 2) / n_total for w in ws])
        return hess[vals <= 1.0].min()

    def test_symmetric_logistic_curvature(self):
        a_s = np.array([[-1.0], [1.0]])
        opt = solve_vbar(a_s, BASIS_1D, "logistic", n_total=2)
        lam = estimate_lambda(a_s, BASIS_1D, "logistic", opt, n_total=2)
        # Hessian at the optimum is 1/4; the sublevel boundary is smaller
        assert lam <= 0.25 + 1e-12
        oracle = self.grid_min_eig_1d(a_s, "logistic", 2)
        assert lam == pytest.approx(oracle, abs=2e-3)

    def test_symmetric_exponential_center_value(self):
        from optray._kernels import loss_curvs

        a_s = np.array([[-1.0], [1.0]])
        opt = solve_vbar(a_s, BASIS_1D, "exponential", n_total=2)
        # at the center the reduced Hessian equals e^0 = 1
        center = np.sum(loss_curvs(np.zeros(2), "exponential")) / 2
        assert center == pytest.approx(1.0)
        lam = estimate_lambda(a_s, BASIS_1D, "exponential", opt, n_total=2)
        oracle = self.grid_min_eig_1d(a_s, "exponential", 2)
        assert lam == pytest.approx(oracle, abs=2e-3)
        assert lam <= 1.0

    def test_rank_zero_sentinel(self):
        basis0 = orthonormal_basis(np.zeros((0, 2)))
        opt = solve_vbar(np.zeros((1, 2)), basis0, "logistic", 3)
        assert estimate_lambda(np.zeros((1, 2)), basis0, "logistic", opt, 3) == np.inf

    def test_positive_on_random_remainders(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            rows = rng.standard_normal((4, 2)) * 0.5
            rows = np.vstack([rows, -rows])  # guarantees a non-separable block
            rows /= max(1.0, np.linalg.norm(rows, axis=1).max())
            basis = orthonormal_basis(rows)
            opt = solve_vbar(rows, basis, "logistic", rows.shape[0])
            lam = estimate_lambda(rows, basis, "logistic", opt, rows.shape[0])
            assert 0 < lam < np.inf


@st.composite
def remainder_problems(draw):
    """A non-separable remainder block: 1-8 rows of rank 1-4 and their mirror
    images times a factor, some scaled down and some with a factor within
    1e-3 of 1, which puts the exponential risk's optimum f* near 1; optionally
    next to strictly separable rows in one more coordinate, split off by
    partition.  Returns the remainder rows, the basis of their span, a loss,
    the restricted optimum and the total row count."""
    r = draw(st.integers(1, 4))
    m = draw(st.integers(1, 8))
    base = draw(arrays(np.float64, (m, r), elements=st.floats(-1.0, 1.0)))
    assume(np.abs(base).max() >= 1e-3)
    mirror = draw(st.one_of(st.floats(0.5, 2.0), st.floats(-1e-3, 1e-3).map(lambda e: 1.0 + e)))
    rows = np.vstack([base, -mirror * base])
    rows *= draw(st.sampled_from((1.0, 1.0, 0.1, 1e-3))) / np.linalg.norm(rows, axis=1).max()
    n_sep = draw(st.integers(0, 4))
    if n_sep:
        sep = draw(arrays(np.float64, (n_sep, r + 1), elements=st.floats(-1.0, 1.0)))
        sep[:, -1] = -draw(arrays(np.float64, n_sep, elements=st.floats(0.1, 1.0)))
        sep /= max(1.0, np.linalg.norm(sep, axis=1).max())
        rows = np.vstack([np.hstack([rows, np.zeros((2 * m, 1))]), sep])
    try:
        dec = partition(rows)
    except LPError:
        assume(False)
    loss = draw(st.sampled_from(("logistic", "exponential")))
    a_s = rows[dec.sc_rows]
    try:
        opt = solve_vbar(a_s, dec.basis_s, loss, n_total=len(rows))
    except ConvergenceError:
        assume(False)
    return a_s, dec.basis_s, loss, opt, len(rows)


def _estimate_or_none(sampler, problem):
    try:
        return sampler(*problem)
    except NumericalError:
        return None


class TestBatchedSampler:
    @settings(max_examples=200, deadline=None)
    @given(remainder_problems())
    def test_matches_per_direction_sampler(self, problem):
        a_s, basis, loss, opt, n = problem
        old = _estimate_or_none(lambda_oracle.estimate_lambda, problem)
        new = _estimate_or_none(estimate_lambda, problem)
        # eigvalsh resolves lambda_min only to about eps |H|; on the level-1
        # set |H| <= |M|_2^2 c / n, with c = 1/4 for the logistic loss and
        # c = n for the exponential (there every e^{z_i} <= n R <= n)
        c = 0.25 if loss == "logistic" else n
        floor = EPS * np.linalg.norm(a_s @ basis, 2) ** 2 * c / n
        if (old is None) != (new is None):
            # the sign of an estimate within the rounding floor of 0 is noise
            assert (new if old is None else old) <= 4 * floor
        elif old is not None:
            assert abs(new - old) <= 1e-12 * abs(old) + 4 * floor

    @settings(max_examples=200, deadline=None)
    @given(remainder_problems(), st.integers(0, 2**32 - 1))
    def test_collapsed_brackets_straddle_level_one(self, problem, seed):
        a_s, basis, loss, opt, n = problem
        assume(basis.shape[1] > 0)
        M = _restricted(a_s, basis)
        c_star = basis.T @ opt.offset
        assume(_level(M, loss, n, c_star[None, :])[0] < 1.0 - 1e-12)
        D = np.random.default_rng(seed).standard_normal((8, basis.shape[1]))
        D /= np.linalg.norm(D, axis=1)[:, None]
        lo, hi, _ = _boundary_steps(M, loss, n, c_star, D)
        collapsed = hi == np.nextafter(lo, np.inf)
        # below f* <= 1 - 1e-12 every bracket collapses to adjacent floats,
        # or its direction never reached 1 and carries the 2**60 sentinel
        assert np.all(collapsed | ((lo == 2.0**60) & (hi == 2.0**60)))
        assert np.all(_level(M, loss, n, c_star + lo[:, None] * D)[collapsed] <= 1.0)
        assert np.all(_level(M, loss, n, c_star + hi[:, None] * D)[collapsed] > 1.0)


def _ray_problem(problem, seed):
    """(M, loss, n, c*, D) of a remainder problem whose optimum lies below
    level 1, with 8 seeded unit directions."""
    a_s, basis, loss, opt, n = problem
    assume(basis.shape[1] > 0)
    M = _restricted(a_s, basis)
    c_star = basis.T @ opt.offset
    assume(_level(M, loss, n, c_star[None, :])[0] < 1.0 - 1e-12)
    D = np.random.default_rng(seed).standard_normal((8, basis.shape[1]))
    D /= np.linalg.norm(D, axis=1)[:, None]
    return M, loss, n, c_star, D


class TestNewtonBrackets:
    @settings(max_examples=200, deadline=None)
    @given(remainder_problems(), st.integers(0, 2**32 - 1))
    def test_matches_frozen_bisection(self, problem, seed):
        M, loss, n, c_star, D = _ray_problem(problem, seed)
        lo, hi, _ = _boundary_steps(M, loss, n, c_star, D)
        old_lo, old_hi = lambda_oracle._boundary_steps(M, loss, n, c_star, D)
        moved = (lo != old_lo) | (hi != old_hi)
        if not moved.any():
            return
        # a bracket may move only where the computed level is not monotone:
        # then both straddle level 1, and of their four ends, sorted, one
        # above 1 comes before one at or below 1
        ends = np.stack([lo, hi, old_lo, old_hi], axis=1)[moved]
        rows = np.repeat(D[moved], 4, axis=0)
        over = _level(M, loss, n, c_star + ends.reshape(-1, 1) * rows).reshape(-1, 4) > 1.0
        assert not over[:, [0, 2]].any() and over[:, [1, 3]].all()
        order = np.argsort(ends, axis=1, kind="stable")
        ranked = np.take_along_axis(over, order, axis=1)
        assert np.all(np.any(ranked[:, :-1] & ~ranked[:, 1:], axis=1))

    def test_few_evaluations_on_benchmark_shapes(self, monkeypatch):
        # the disc and block instances of the structure benchmark, both
        # losses; the bisection took 56-60 evaluations on each
        counts = []

        def counted(*args):
            lo, hi, evals = _boundary_steps(*args)
            counts.append(evals)
            return lo, hi, evals

        monkeypatch.setattr(strongconvex, "_boundary_steps", counted)
        instances = [to_margin_matrix(synth(kind, 20, 1)) for kind in ("overlap", "mixed")]
        for d, r, n_sep, n_sc, seed in (
            (3, 1, 25, 15, 1), (3, 2, 50, 30, 6), (4, 3, 40, 30, 2), (4, 2, 50, 30, 5),
            (5, 2, 35, 25, 1), (5, 4, 30, 30, 3), (5, 1, 50, 30, 4), (6, 3, 50, 30, 8),
        ):
            instances.append(block_rows(d, r, n_sep, n_sc, seed))
        for A in instances:
            dec = partition(A)
            a_s = A[dec.sc_rows]
            for loss in ("logistic", "exponential"):
                opt = solve_vbar(a_s, dec.basis_s, loss, len(A))
                estimate_lambda(a_s, dec.basis_s, loss, opt, len(A))
        assert len(counts) == 2 * len(instances)
        assert max(counts) <= 12

    def test_direction_off_the_rows_carries_sentinel(self):
        # M d = 0 along the second coordinate: R stays at ln 2 on that ray
        M = np.array([[1.0, 0.0], [-1.0, 0.0]])
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        c_star = np.zeros(2)
        lo, hi, _ = _boundary_steps(M, "logistic", 2, c_star, D)
        assert lo[0] == hi[0] == 2.0**60
        assert hi[1] == np.nextafter(lo[1], np.inf)
        assert (
            _level(M, "logistic", 2, c_star + lo[1] * D[1:])[0]
            <= 1.0
            < _level(M, "logistic", 2, c_star + hi[1] * D[1:])[0]
        )

    def test_level_of_a_point_does_not_depend_on_its_company(self):
        # alone, in the one part of 16 points, and in the three parts of 129
        rng = np.random.default_rng(4)
        M = rng.standard_normal((30, 3))
        points = rng.standard_normal((129, 3))
        for loss in LOSSES:
            alone = [_level(M, loss, 30, points[i : i + 1])[0] for i in range(129)]
            np.testing.assert_array_equal(_level(M, loss, 30, points[:16]), alone[:16])
            np.testing.assert_array_equal(_level(M, loss, 30, points), alone)
