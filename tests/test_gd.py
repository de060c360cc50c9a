import json
import zipfile
from types import SimpleNamespace
from unittest import mock

import ball_oracle
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import minimize

from optray import linalg
from optray.cli import main
from optray.dataset import MarginMatrix, synth, to_margin_matrix
from optray.decompose import partition
from optray.errors import ConvergenceError, ValidationError
from optray.gd import (
    LOSS_CODES,
    GDTrace,
    ball_series,
    checkpoint_times,
    constrained_opt,
    grad,
    risk,
    run,
)
from optray.linalg import RESIDUAL_TOL, minimize_risk
from optray.verify import check_smoothness

LN2 = np.log(2.0)


class TestRisk:
    def test_logistic_at_zero(self):
        assert risk(np.array([[-1.0, 0.0]]), "logistic", np.zeros(2)) == pytest.approx(LN2)

    def test_exponential_at_zero(self):
        assert risk(np.array([[-1.0, 0.0]]), "exponential", np.zeros(2)) == pytest.approx(1.0)

    def test_logistic_tail(self):
        import math

        val = risk(np.array([[-1.0]]), "logistic", np.array([10.0]))
        assert val == pytest.approx(math.log1p(math.exp(-10.0)), rel=1e-12)

    def test_unknown_loss(self):
        with pytest.raises(ValidationError):
            risk(np.array([[-1.0]]), "hinge", np.zeros(1))


class TestGrad:
    def test_logistic_at_zero(self):
        A = np.array([[-1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(grad(A, "logistic", np.zeros(2)), 0.5 * A.mean(axis=0))

    def test_exponential_at_zero(self):
        A = np.array([[-1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(grad(A, "exponential", np.zeros(2)), A.mean(axis=0))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            d = int(rng.integers(1, 5))
            A = rng.standard_normal((n, d))
            A /= max(1.0, np.linalg.norm(A, axis=1).max())
            w = rng.standard_normal(d)
            loss = "logistic" if rng.random() < 0.5 else "exponential"
            g = grad(A, loss, w)
            h = 1e-6
            fd = np.array(
                [
                    (risk(A, loss, w + h * e) - risk(A, loss, w - h * e)) / (2 * h)
                    for e in np.eye(d)
                ]
            )
            scale = max(np.linalg.norm(g), 1e-12)
            assert np.linalg.norm(g - fd) / scale <= 1e-6


class TestCheckpointTimes:
    def test_includes_endpoints(self):
        ts = checkpoint_times(1000)
        assert ts[0] == 1 and ts[-1] == 1000

    def test_t_one(self):
        np.testing.assert_array_equal(checkpoint_times(1), [1])

    def test_strictly_increasing_ints(self):
        ts = checkpoint_times(12345, per_decade=10)
        assert np.all(np.diff(ts) > 0)
        assert ts.dtype == np.int64

    def test_per_decade_below_one_rejected(self):
        for per_decade in (0, -1, -20):
            with pytest.raises(ValidationError):
                checkpoint_times(1000, per_decade)


class TestRun:
    def test_single_step_exponential(self):
        tr = run(np.array([[-1.0]]), "exponential", "constant_one", 1)
        np.testing.assert_allclose(tr.w[-1], [1.0])
        assert tr.risk[-1] == pytest.approx(np.exp(-1.0))

    def test_single_step_logistic(self):
        tr = run(np.array([[-1.0]]), "logistic", "constant_one", 1)
        np.testing.assert_allclose(tr.w[-1], [0.5])

    def test_symmetric_rows_stay_at_zero(self):
        for loss in ("logistic", "exponential"):
            for sched in ("constant_one", "inv_sqrt"):
                tr = run(np.array([[-1.0], [1.0]]), loss, sched, 100)
                np.testing.assert_allclose(tr.w, 0.0)
                np.testing.assert_allclose(tr.dir, 0.0)

    def test_risk_non_increasing(self):
        A = to_margin_matrix(synth("mixed", 10, 1))
        tr = run(A, "logistic", "inv_sqrt", 2000)
        assert np.all(np.diff(tr.risk_steps) <= 1e-15)

    def test_norm_bounded_by_eff_grad_sum(self):
        A = to_margin_matrix(synth("touching", 8, 2))
        tr = run(A, "exponential", "constant_one", 1000)
        assert np.all(tr.norm_w <= tr.sum_eff_grad + 1e-9)

    def test_perp_norm_bounded_by_perceptron_sum(self):
        A = to_margin_matrix(synth("mixed", 8, 3))
        dec = partition(A)
        tr = run(A, "logistic", "constant_one", 1000, sep_rows=dec.sep_rows, basis_s=dec.basis_s)
        assert np.all(tr.proj_perp_norm <= tr.perceptron_sum + 1e-9)

    def test_smoothness_slack_nonnegative(self):
        A = to_margin_matrix(synth("overlap", 10, 4))
        for loss in ("logistic", "exponential"):
            tr = run(A, loss, "constant_one", 2000)
            assert check_smoothness(tr).worst_slack >= -1e-12

    def test_projection_fields(self):
        A = to_margin_matrix(synth("mixed", 6, 5))
        dec = partition(A)
        tr = run(A, "logistic", "inv_sqrt", 500, sep_rows=dec.sep_rows, basis_s=dec.basis_s)
        # proj_s + perp part reassemble w
        perp = tr.w - tr.proj_s
        np.testing.assert_allclose(np.linalg.norm(perp, axis=1), tr.proj_perp_norm)
        np.testing.assert_allclose(
            tr.proj_s, (tr.w @ dec.basis_s) @ dec.basis_s.T, atol=1e-12
        )

    def test_denormalized_rows_rejected_by_step_assert(self):
        # rows above unit norm break the effective-step contract
        from optray.errors import NumericalError

        with pytest.raises(NumericalError):
            run(np.array([[-1.0], [30.0]]), "exponential", "constant_one", 50)

    @pytest.mark.parametrize("T", [0, -3])
    def test_fewer_than_one_step_rejected(self, T):
        with pytest.raises(ValidationError, match="T must be >= 1"):
            run(np.array([[-1.0]]), "logistic", "constant_one", T)

    def test_overflow_before_first_checkpoint_raises(self):
        from optray.errors import NumericalError

        with pytest.raises(NumericalError):
            run(np.array([[-40.0]]), "exponential", "constant_one", 50)


class TestTraceIO:
    def test_csv_deterministic(self, tmp_path):
        A = to_margin_matrix(synth("mixed", 5, 9))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(A, "logistic", "inv_sqrt", 300).to_csv(p1)
        run(A, "logistic", "inv_sqrt", 300).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_npz_round_trip(self, tmp_path):
        A = to_margin_matrix(synth("touching", 5, 9))
        dec = partition(A)
        tr = run(A, "exponential", "constant_one", 200, sep_rows=dec.sep_rows, basis_s=dec.basis_s)
        tr.to_json(tmp_path / "trace.json")
        tr.save_steps(tmp_path / "steps.npz")
        back = GDTrace.from_files(tmp_path / "trace.json", tmp_path / "steps.npz")
        np.testing.assert_array_equal(back.ts, tr.ts)
        np.testing.assert_allclose(back.w, tr.w)
        np.testing.assert_allclose(back.risk_steps, tr.risk_steps)
        np.testing.assert_allclose(back.sum_cross, tr.sum_cross)
        assert back.loss == tr.loss and back.T == tr.T

    def test_compressed_steps_still_read(self, tmp_path):
        # traces in the earlier format: steps.npz compressed, and the worst
        # smoothness slack and its step in the trace.json meta
        run_dir, old_dir = tmp_path / "run", tmp_path / "old"
        argv = ["--synth-kind", "mixed", "--seed", "2", "--loss", "logistic", "--schedule", "inv_sqrt"]
        assert main(["run", *argv, "--steps", "400", "--out", str(run_dir)]) == 0
        with zipfile.ZipFile(run_dir / "steps.npz") as archive:
            assert {m.compress_type for m in archive.infolist()} == {zipfile.ZIP_STORED}
        old_dir.mkdir()
        trace = json.loads((run_dir / "trace.json").read_text())
        assert not {"smooth_worst_slack", "smooth_worst_step"} & trace["meta"].keys()
        smooth = check_smoothness(GDTrace.from_files(run_dir / "trace.json", run_dir / "steps.npz"))
        trace["meta"]["smooth_worst_slack"] = smooth.worst_slack
        trace["meta"]["smooth_worst_step"] = smooth.location
        (old_dir / "trace.json").write_text(json.dumps(trace, indent=1))
        with np.load(run_dir / "steps.npz") as steps:
            np.savez_compressed(old_dir / "steps.npz", **steps)
        new = GDTrace.from_files(run_dir / "trace.json", run_dir / "steps.npz")
        old = GDTrace.from_files(old_dir / "trace.json", old_dir / "steps.npz")
        for name in ("risk_steps", "rel_steps", "eff_steps"):
            np.testing.assert_array_equal(getattr(old, name), getattr(new, name), strict=True)
        reports = []
        for trace_dir in (run_dir, old_dir):
            out = tmp_path / f"verify-{trace_dir.name}"
            assert main(["verify", *argv, "--trace-dir", str(trace_dir), "--out", str(out)]) == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]


@st.composite
def ball_series_problems(draw):
    """Rows of rank 1 or 2 in R^rank..R^4 (some zero), rescaled to at most
    unit norm, a loss, the ascending radii of a checkpoint sequence, and a
    point on each radius's sphere, as the iterates of a trace lie."""
    rank = draw(st.integers(1, 2))
    d = draw(st.integers(rank, 4))
    n = draw(st.integers(rank, 8))
    span = draw(arrays(np.float64, (rank, d), elements=st.floats(-1.0, 1.0)))
    coef = draw(arrays(np.float64, (n, rank), elements=st.floats(-1.0, 1.0)))
    for i in range(n):
        if draw(st.integers(0, 4)) == 0:
            coef[i] = 0.0
    rows = coef @ span
    assume(np.linalg.matrix_rank(rows) == rank)
    rows /= max(1.0, float(np.linalg.norm(rows, axis=1).max()))
    radii = np.sort(draw(arrays(np.float64, st.integers(1, 12), elements=st.floats(0.0, 50.0))))
    dirs = draw(arrays(np.float64, (radii.size, d), elements=st.floats(-1.0, 1.0)))
    dirs[np.linalg.norm(dirs, axis=1) < 1e-100] = np.eye(d)[0]
    starts = radii[:, None] * dirs / np.linalg.norm(dirs, axis=1)[:, None]
    return rows, draw(st.sampled_from(("logistic", "exponential"))), radii, starts


def _same_error(raised, alone):
    """Whether two ConvergenceErrors carry the same text, residual and count."""
    return (str(raised), raised.iterations) == (str(alone), alone.iterations) and (
        np.array_equal(raised.best, alone.best, equal_nan=True)
    )


def _kkt_residual(rows, loss, w, radius):
    """The unit-step natural residual |w - P(w - grad R(w))| that
    minimize_risk stops on, recomputed from gd.grad, with grad R(w) and the
    projected point p = P(w - grad R(w))."""
    g = grad(rows, loss, w)
    p = w - g
    if np.linalg.norm(p) > radius:
        p *= radius / np.linalg.norm(p)
        return np.linalg.norm(w - p), g, p
    return np.linalg.norm(g), g, p


class TestConstrainedOpt:
    def test_zero_radius(self):
        np.testing.assert_array_equal(constrained_opt(np.array([[-1.0]]), "logistic", 0.0), [0.0])

    def test_monotone_one_dim_hits_boundary(self):
        for loss in ("logistic", "exponential"):
            w = constrained_opt(np.array([[-1.0]]), loss, 1.0)
            assert w[0] == pytest.approx(1.0, abs=1e-9)

    def test_symmetric_interior(self):
        w = constrained_opt(np.array([[-1.0], [1.0]]), "logistic", 1.0)
        assert abs(w[0]) <= 1e-9

    def test_beats_trajectory_risk(self):
        A = to_margin_matrix(synth("mixed", 8, 11))
        tr = run(A, "logistic", "inv_sqrt", 500)
        wbar = ball_series(A, "logistic", tr)
        for k in range(tr.k):
            assert np.linalg.norm(wbar[k]) <= tr.norm_w[k] + 1e-9
            assert risk(A, "logistic", wbar[k]) <= tr.risk[k] + 1e-9

    def test_negative_radius_rejected(self):
        with pytest.raises(ValidationError):
            constrained_opt(np.array([[-1.0]]), "logistic", -1.0)

    def test_nan_radius_rejected(self):
        # nan < 0 is false, so a test of radius < 0 alone lets a nan radius
        # through to the unconstrained minimizer, [0.839] on these rows
        rows = np.array([[-1.0], [0.5]])
        for radius in (np.nan, np.array([1.0, np.nan])):
            with pytest.raises(ValidationError):
                constrained_opt(rows, "logistic", radius)

    @settings(max_examples=150, deadline=None)
    @given(ball_series_problems())
    def test_ball_series_matches_one_solve_per_radius(self, problem):
        # ball_series solves every radius in one batch, slot k from the
        # iterate w_t on its sphere; each slot has the bits of constrained_opt
        # at that radius alone from the same start
        rows, loss, radii, starts = problem
        trace = SimpleNamespace(k=radii.size, norm_w=radii, w=starts)
        expected = []
        try:
            for radius, start in zip(radii, starts):
                expected.append(constrained_opt(rows, loss, float(radius), w0=start))
        except ConvergenceError as err:
            with pytest.raises(ConvergenceError) as info:
                ball_series(rows, loss, trace)
            assert str(info.value) == str(err)
            return
        np.testing.assert_array_equal(ball_series(rows, loss, trace), expected, strict=True)


@st.composite
def ball_problems(draw):
    """Rows of a risk in R^1..R^4 (some zero or duplicated), a loss and a
    radius.  An infinite radius gets a mirrored copy of every row, scaled by
    a positive factor, so the risk has a bounded minimizer on their span."""
    radius = draw(st.one_of(st.floats(0.01, 20.0), st.just(np.inf)))
    finite = np.isfinite(radius)
    n = draw(st.integers(1, 10 if finite else 5))
    d = draw(st.integers(1, 4))
    rows = draw(arrays(np.float64, (n, d), elements=st.floats(-1.0, 1.0)))
    for i in range(n):
        kind = draw(st.sampled_from(("keep", "copy", "zero")))
        if kind == "copy":
            rows[i] = rows[draw(st.integers(0, n - 1))]
        elif kind == "zero":
            rows[i] = 0.0
    if not finite:
        # A row space whose singular values span more than 1e3 puts the
        # minimizer at |w| ~ 1/sigma_min, where rounding M w alone moves the
        # gradient by about eps |M|^2 |w|: rows (0, 1e-8), (1, 1) and their
        # mirrors give |w| ~ 1e8 and a gradient resolved to ~5e-10 only, so
        # no float64 point has the residual <= 1e-10 asked below.
        svals = np.linalg.svd(rows, compute_uv=False)
        kept = svals[svals > max(rows.shape) * np.finfo(float).eps * svals[0]]
        assume(kept.size == 0 or kept[-1] >= 1e-3 * kept[0])
        rows = np.vstack([rows, -draw(st.floats(0.5, 2.0)) * rows])
    return rows, draw(st.sampled_from(("logistic", "exponential"))), radius


class TestMinimizeRisk:
    def test_tol_below_rounding_floor_raises_early(self):
        # singular values 2.4, 1.3 and 4.6e-9 put the minimizer at |w| ~ 1e8,
        # where rounding M w alone moves the gradient by more than tol
        rows = np.array([[1.0, 1e-8, 0.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        M = np.vstack([rows, -0.5 * rows])
        with pytest.raises(ConvergenceError, match="rounding floor") as info:
            minimize_risk(M, 0, M.shape[0], [np.inf], np.zeros((1, 3)), 1e-10)
        assert 0 <= info.value.iterations <= 10

    @pytest.mark.filterwarnings("error")
    def test_step_onto_the_origin_is_not_rescaled(self):
        # the first Newton step from 1e-9 lands exactly on w = 0 with mu > 0;
        # rescaling it onto the sphere divided by |w| = 0
        M = np.array([[0.0], [0.421590866599183], [0.26163499088971803], [0.0], [0.0]])
        w, _ = minimize_risk(M, 0, 5, np.array([1e-9]), np.array([[1e-9]]))
        np.testing.assert_array_equal(w, [[-1e-9]])

    @settings(max_examples=200, deadline=None)
    @given(ball_problems())
    def test_kkt_against_slsqp(self, problem):
        rows, loss, radius = problem
        tol = 1e-10
        code = 0 if loss == "logistic" else 1
        start = np.zeros((1, rows.shape[1]))
        (w,), _ = minimize_risk(rows, code, rows.shape[0], [radius], start, tol)
        assert np.linalg.norm(w) <= radius * (1 + 1e-12)
        res, g, p = _kkt_residual(rows, loss, w, radius)
        assert res <= tol
        cons = [] if np.isinf(radius) else [
            {"type": "ineq", "fun": lambda v: radius**2 - v @ v, "jac": lambda v: -2.0 * v}
        ]
        ref = minimize(
            lambda v: risk(rows, loss, v),
            np.zeros(rows.shape[1]),
            jac=lambda v: grad(rows, loss, v),
            method="SLSQP",
            constraints=cons,
            options={"ftol": 1e-15, "maxiter": 1000},
        )
        # SLSQP may stop just outside the ball; compare at a feasible point.
        # Convexity and the projection give R(w) - R(x) <= res (|g| + |p - x|)
        # for every x in the ball: what the stopping rule certifies, which
        # matters where the risk itself is near tol
        x = ref.x * min(1.0, radius / max(np.linalg.norm(ref.x), 1e-300))
        certified = res * (np.linalg.norm(g) + np.linalg.norm(p - x))
        assert risk(rows, loss, w) <= risk(rows, loss, x) + certified + 1e-12


class TestBatchedAgainstFrozenSolver:
    """The batched minimize_risk against tests/ball_oracle.py, the solver as
    it stood with one radius per Newton solve."""

    @settings(max_examples=200, deadline=None)
    @given(ball_problems(), st.sampled_from((1e-10, 1e-14, 1e-16)), st.data())
    def test_batch_of_one_is_the_frozen_solver(self, problem, tol, data):
        # bit for bit, and the same error where the frozen solver fails
        rows, loss, radius = problem
        code, (n, d) = LOSS_CODES[loss], rows.shape
        start = data.draw(
            arrays(np.float64, d, elements=st.floats(-2.0, 2.0)) | st.just(np.zeros(d))
        )
        try:
            expected = ball_oracle.minimize_risk(rows, code, n, radius, start, tol)
        except ConvergenceError as err:
            with pytest.raises(ConvergenceError) as info:
                minimize_risk(rows, code, n, [radius], start[None], tol)
            assert _same_error(info.value, err)
            return
        (w,), (it,) = minimize_risk(rows, code, n, [radius], start[None], tol)
        np.testing.assert_array_equal(w, expected[0], strict=True)
        assert it == expected[1]

    @settings(max_examples=150, deadline=None)
    @given(
        ball_series_problems(),
        st.sampled_from((1e-10, 1e-14, 1e-15)),
        st.sampled_from((0.0, 0.5, 1.0)),
        st.sampled_from((linalg.LINE_SEARCH_STEPS, 1)),
    )
    def test_each_slot_is_its_batch_of_one(self, problem, tol, shrink, trials):
        # tol 1e-14 and 1e-15 lie below the rounding floor at the larger radii
        # of some draws, and a line search of one trial finds no descent
        # wherever the full Newton step overshoots, so that some slots fail
        # and others do not
        rows, loss, radii, starts = problem
        code, n = LOSS_CODES[loss], rows.shape[0]
        starts = shrink * starts
        alone, first_error = [], None
        with mock.patch.object(linalg, "LINE_SEARCH_STEPS", trials):
            for radius, start in zip(radii, starts):
                try:
                    alone.append(minimize_risk(rows, code, n, [radius], start[None], tol))
                except ConvergenceError as err:
                    first_error = first_error or err
            if first_error is not None:
                with pytest.raises(ConvergenceError) as info:
                    minimize_risk(rows, code, n, radii, starts, tol)
                assert _same_error(info.value, first_error)
                return
            w, its = minimize_risk(rows, code, n, radii, starts, tol)
        np.testing.assert_array_equal(w, np.concatenate([a[0] for a in alone]), strict=True)
        np.testing.assert_array_equal(its, np.concatenate([a[1] for a in alone]), strict=True)

    @settings(max_examples=150, deadline=None)
    @given(
        ball_series_problems(), st.sampled_from(("constant_one", "inv_sqrt")), st.integers(1, 400)
    )
    def test_series_agrees_with_warm_started_series(self, problem, schedule, T):
        # on a descent trace, the batched series starts slot k from w_t and
        # the frozen one from the answer at the radius before: both meet the
        # stopping rule, and the risks agree within what it certifies
        rows, loss = problem[:2]
        trace = run(rows, loss, schedule, T)
        batched = ball_series(rows, loss, trace)
        warm = ball_oracle.ball_series(rows, LOSS_CODES[loss], trace.norm_w, RESIDUAL_TOL)
        for radius, wb, wo in zip(trace.norm_w, batched, warm):
            res_b, g_b, p_b = _kkt_residual(rows, loss, wb, radius)
            res_o, g_o, p_o = _kkt_residual(rows, loss, wo, radius)
            for w, res in ((wb, res_b), (wo, res_o)):
                assert np.linalg.norm(w) <= radius * (1 + 1e-12)
                assert res <= RESIDUAL_TOL
            r_b, r_o = risk(rows, loss, wb), risk(rows, loss, wo)
            assert r_b <= r_o + res_b * (np.linalg.norm(g_b) + np.linalg.norm(p_b - wo)) + 1e-12
            assert r_o <= r_b + res_o * (np.linalg.norm(g_o) + np.linalg.norm(p_o - wb)) + 1e-12
