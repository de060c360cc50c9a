import math
from unittest import mock

import gd_oracle
import numpy as np
import pytest
from hull_oracle import block_rows
from hypothesis import given, settings
from hypothesis import strategies as st

from optray import _kernels, verify
from optray._kernels import LOSSES, SCHEDULES
from optray.dataset import SYNTH_KINDS, synth, to_margin_matrix
from optray.gd import ball_series, run
from optray.linalg import RESIDUAL_TOL
from optray.margin import GAP_TOL
from optray.pipeline import analyze
from optray.verify import (
    LOG_APPROX_EPS_GRID,
    NUMERIC_ATOL,
    NUMERIC_RTOL,
    VerificationReport,
    check_direction,
    check_fenchel_young,
    check_gen_iter,
    check_log_approx,
    check_param_s,
    check_perp_descent,
    check_risk_bound,
    check_smoothness,
    report_meta,
    run_checks,
    thm_risk_bound,
)


def pipeline_for(rows, loss, schedule, T):
    structure = analyze(rows, loss)
    dec = structure.dec
    trace = run(structure.matrix, loss, schedule, T, sep_rows=dec.sep_rows, basis_s=dec.basis_s)
    return structure, trace


class TestRiskBound:
    def test_single_row_first_step_by_hand(self):
        structure, trace = pipeline_for([[-1.0]], "exponential", "constant_one", 1)
        # risk after one step is e^{-1}; at t=1 the bound evaluates to
        # e^0/1 + (0 + 0)/2 = 1
        bound = thm_risk_bound(structure, [1], [1.0])
        assert bound[0] == pytest.approx(1.0)
        assert trace.risk[-1] == pytest.approx(math.exp(-1.0))
        res = check_risk_bound(trace, structure)
        assert res.holds and res.worst_slack > 0

    def test_symmetric_rows_sit_at_optimum(self):
        structure, trace = pipeline_for([[-1.0], [1.0]], "logistic", "inv_sqrt", 100)
        res = check_risk_bound(trace, structure)
        assert res.holds
        # slack equals the bound itself since the excess is exactly zero
        assert res.worst_slack > 0

    def test_holds_on_mixed_synthetic(self):
        structure, trace = pipeline_for(
            to_margin_matrix(synth("mixed", 10, 1)), "logistic", "inv_sqrt", 10_000
        )
        assert check_risk_bound(trace, structure).holds


class TestSmoothness:
    def test_first_step_by_hand(self):
        _, trace = pipeline_for([[-1.0]], "exponential", "constant_one", 1)
        # risk 1 -> e^{-1}, bound 1*(1 - 1*(1-1/2)*1) = 1/2
        res = check_smoothness(trace)
        assert res.holds
        assert res.worst_slack == pytest.approx(0.5 - math.exp(-1.0), abs=1e-12)

    def test_streamed_worst_matches_recompute(self):
        # against the worst slack and step the frozen reference loop streams
        structure, trace = pipeline_for(
            to_margin_matrix(synth("touching", 8, 2)), "logistic", "constant_one", 2000
        )
        A, sep = structure.matrix, structure.dec.sep_rows
        B = structure.dec.basis_s
        ref = gd_oracle.gd_loop(
            A,
            np.ascontiguousarray(A.T),
            np.ascontiguousarray(A[sep].T),
            sep,
            B,
            np.ascontiguousarray(B.T),
            gd_oracle.LOGISTIC,
            gd_oracle.CONSTANT_ONE,
            2000,
            trace.ts,
        )
        res = check_smoothness(trace)
        assert res.holds
        assert res.worst_slack == pytest.approx(ref[13], rel=1e-12)
        assert res.location == ref[14]

    def test_corrupted_trace_detected(self):
        _, trace = pipeline_for(
            to_margin_matrix(synth("overlap", 8, 3)), "logistic", "inv_sqrt", 500
        )
        trace.risk_steps[100] *= 1.01  # inject a risk increase
        res = check_smoothness(trace)
        assert not res.holds
        assert res.worst_slack < 0
        assert res.location == 100


class TestNormBounds:
    def test_single_row_both_bounds_over_decades(self):
        from optray.verify import check_norm_bounds

        structure, trace = pipeline_for([[-1.0]], "exponential", "constant_one", 100_000)
        res = check_norm_bounds(trace, structure)
        assert res.applicable and res.holds
        # the iterate norm tracks ln t in this instance
        sel = trace.ts >= 10
        ratio = trace.norm_w[sel] / np.log(trace.ts[sel])
        assert 0.5 <= ratio.min() and ratio.max() <= 4.0

    def test_not_applicable_without_separable_block(self):
        from optray.verify import check_norm_bounds

        structure, trace = pipeline_for([[-1.0], [1.0]], "logistic", "inv_sqrt", 100)
        assert not check_norm_bounds(trace, structure).applicable


class TestLogApprox:
    def test_scalar_facts(self):
        # loss(0) ratios: e^0/ln 2 = 1.4427 stays below 2
        assert 1.0 / math.log(2.0) == pytest.approx(1.4426950408889634)
        # z=-5: logistic loss 6.7e-3 <= 0.01 and derivative/loss ratio >= 0.99
        lv = math.log1p(math.exp(-5.0))
        lp = 1.0 / (1.0 + math.exp(5.0))
        assert lv <= 0.01
        assert lp / lv >= 0.99
        assert lp / lv == pytest.approx(0.99665, abs=1e-5)

    def test_check_passes(self):
        res = check_log_approx()
        assert res.holds and res.applicable

    def test_deterministic(self):
        a, b = check_log_approx(), check_log_approx()
        assert a.worst_slack == b.worst_slack

    def test_worst_is_the_logistic_boundary(self):
        # (1 - e^-eps)/eps - (1 - eps) at the smallest eps of the grid
        eps = min(LOG_APPROX_EPS_GRID)
        res = check_log_approx()
        assert res.worst_slack == pytest.approx(-math.expm1(-eps) / eps - (1.0 - eps), rel=1e-12)
        assert f"eps={eps}" in res.note

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-700.0, 700.0), st.floats(-700.0, 700.0))
    def test_logistic_ratios_are_monotone(self, a, b):
        # loss'/loss falls in z and e^z/loss rises, up to the rounding of the
        # two ratios, so the worst point of {loss <= eps} is its boundary
        z = np.array(sorted((a, b)))
        lv = _kernels.loss_values(z, "logistic")
        lp = _kernels.loss_derivs(z, "logistic")
        falls, rises = lp / lv, np.exp(z) / lv
        tol = 8 * np.finfo(float).eps
        assert falls[0] >= falls[1] * (1.0 - tol)
        assert rises[0] <= rises[1] * (1.0 + tol)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(LOG_APPROX_EPS_GRID), st.floats(0.0, 30.0))
    def test_no_point_inside_is_worse_than_the_boundary(self, eps, depth):
        # the sampled form of the check: a point of {loss <= eps} at depth
        # below the boundary never has a smaller slack than the one reported
        with mock.patch.object(verify, "LOG_APPROX_EPS_GRID", (eps,)):
            res = check_log_approx()
        for loss, z_max in (
            ("logistic", math.log(math.expm1(eps))),
            ("exponential", math.log(eps)),
        ):
            z = np.array([z_max - depth])
            lv = _kernels.loss_values(z, loss)
            if lv[0] > eps:
                continue
            lp = _kernels.loss_derivs(z, loss)
            slack = min(lp[0] / lv[0] - (1.0 - eps), 2.0 - math.exp(z[0]) / lv[0])
            assert slack >= res.worst_slack - 8 * np.finfo(float).eps

    def test_samples_outside_region_fail(self, monkeypatch):
        # doubling loss and derivative keeps the ratio facts but puts samples
        # above eps; the check must fail by itself, not through an assert that
        # python -O strips
        values, derivs = _kernels.loss_values, _kernels.loss_derivs
        monkeypatch.setattr(_kernels, "loss_values", lambda z, loss: 2.0 * values(z, loss))
        monkeypatch.setattr(_kernels, "loss_derivs", lambda z, loss: 2.0 * derivs(z, loss))
        res = check_log_approx()
        assert not res.holds
        assert res.worst_slack < -0.9


class TestParamS:
    def test_symmetric_instance_trivial(self):
        structure, trace = pipeline_for([[-1.0], [1.0]], "logistic", "inv_sqrt", 200)
        wbar = ball_series(structure.matrix, "logistic", trace)
        res = check_param_s(trace, structure, wbar)
        assert res.applicable and res.holds

    def test_asymmetric_closed_form_convergence(self):
        structure, trace = pipeline_for(
            [[-1.0], [-1.0], [1.0]], "exponential", "inv_sqrt", 20_000
        )
        wbar = ball_series(structure.matrix, "exponential", trace)
        res = check_param_s(trace, structure, wbar)
        assert res.applicable and res.holds
        # the projected iterate approaches ln(2)/2
        assert abs(trace.proj_s[-1][0] - math.log(2.0) / 2.0) < 1e-3

    def test_not_applicable_when_span_trivial(self):
        structure, trace = pipeline_for([[-1.0, 0.0]], "logistic", "constant_one", 50)
        res = check_param_s(trace, structure, trace.w.copy())
        assert not res.applicable


class TestDirection:
    def test_two_axis_rows_converge_in_direction(self):
        structure, trace = pipeline_for(
            [[-1.0, 0.0], [0.0, -1.0]], "exponential", "constant_one", 100_000
        )
        wbar = ball_series(structure.matrix, "exponential", trace)
        res, trend = check_direction(trace, structure, wbar)
        assert res.applicable, res.note
        assert res.holds, (res.worst_slack, res.location)
        err = np.linalg.norm(trace.dir - structure.direction, axis=1) ** 2
        k_t = trace.k - 1
        k_tenth = int(np.searchsorted(trace.ts, trace.T // 10))
        assert err[k_t] < err[k_tenth]
        assert trend is not None and trend.coefficient > 0

    def test_single_row_exact_after_one_step(self):
        for T in (1000, 5):
            structure, trace = pipeline_for([[-1.0]], "logistic", "constant_one", T)
            wbar = ball_series(structure.matrix, "logistic", trace)
            res, _ = check_direction(trace, structure, wbar)
            assert res.applicable and res.holds
            np.testing.assert_allclose(trace.dir[-1], structure.direction, atol=1e-12)
        # at T = 5 only t = 5 is past the warm start: no decrease to compare
        assert (res.worst_slack, res.location) == (0.0, 5)

    def test_schedule_without_theory_is_not_applicable(self):
        structure, trace = pipeline_for(
            to_margin_matrix(synth("mixed", 6, 1)), "logistic", "constant_one", 100
        )
        wbar = trace.w.copy()
        res, _ = check_direction(trace, structure, wbar)
        assert not res.applicable


class TestFenchelYoung:
    def test_uniform_dual_entropy_identity(self):
        q = np.full(4, 0.25)
        g_star = math.log(4) + float(np.sum(q * np.log(q)))
        assert g_star == pytest.approx(0.0, abs=1e-15)

    def test_single_row_qualifies_and_holds(self):
        structure, trace = pipeline_for([[-1.0]], "exponential", "constant_one", 1000)
        wbar = ball_series(structure.matrix, "exponential", trace)
        res = check_fenchel_young(trace, structure, wbar)
        assert res.applicable and res.holds and res.worst_slack > 0

    def test_canonical_mixed_general_case(self):
        structure, trace = pipeline_for(
            [[-1.0, 0.0], [0.0, -1.0], [0.0, 1.0]], "logistic", "inv_sqrt", 10_000
        )
        wbar = ball_series(structure.matrix, "logistic", trace)
        res = check_fenchel_young(trace, structure, wbar)
        assert res.applicable and res.holds

    def test_unqualified_reports_estimate(self):
        structure, trace = pipeline_for(
            to_margin_matrix(synth("touching", 10, 1)), "logistic", "inv_sqrt", 100
        )
        res = check_fenchel_young(trace, structure, trace.w.copy())
        assert not res.applicable
        assert "qualifying" in res.note


def perp_descent_slacks(trace, structure):
    """check_perp_descent's bound minus its quantity, one checkpoint at a time."""
    direction = structure.direction
    margins = structure.sep_block() @ direction
    radii = np.log(trace.ts.astype(float)) / structure.gamma
    lhs = np.empty(trace.k)
    rc_u = np.empty(trace.k)
    perp = trace.w - trace.proj_s
    for k in range(trace.k):
        u = direction * radii[k]
        # squared as the check squares: a numpy scalar's ** 2 calls libm pow,
        # which rounds differently from x * x for about 1 x in 1200
        lhs[k] = np.square(np.linalg.norm(perp[k] - u))
        rc_u[k] = float(np.sum(_kernels.loss_values(margins * radii[k], trace.loss))) / structure.n
    rhs = (
        radii**2
        + 2.0
        + 2.0 * rc_u * trace.sum_eta
        - 2.0 * trace.sum_eta_sep
        + 2.0 * trace.sum_cross
    )
    return rhs - lhs


@st.composite
def descent_inputs(draw):
    """A synthetic dataset (an overlap set may have no separable block) or
    block rows with a separable block, a loss, a schedule and T <= 2000."""
    if draw(st.booleans()):
        kind = draw(st.sampled_from(SYNTH_KINDS))
        m = to_margin_matrix(synth(kind, draw(st.integers(2, 10)), draw(st.integers(0, 2**16))))
    else:
        d = draw(st.integers(1, 5))
        rank = draw(st.integers(0, d - 1))
        n_sep, n_sc = draw(st.integers(1, 10)), draw(st.integers(2, 10))
        m = block_rows(d, rank, n_sep, n_sc, draw(st.integers(0, 2**16)))
    loss = draw(st.sampled_from(LOSSES))
    return m, loss, draw(st.sampled_from(SCHEDULES)), draw(st.integers(1, 2000))


class TestPerpDescent:
    def test_single_row_reduces_to_plain_bound(self):
        structure, trace = pipeline_for([[-1.0]], "exponential", "constant_one", 1000)
        res = check_perp_descent(trace, structure)
        assert res.applicable and res.holds

    def test_first_checkpoint_hand_bound(self):
        structure, trace = pipeline_for([[-1.0]], "exponential", "constant_one", 1)
        # at t=1 the comparison point is 0, so the bound reads
        # |w_1|^2 <= 2 + 2*R_c(0)*eta_0 - 2*eta_0*R_c(w_0) = 2
        res = check_perp_descent(trace, structure)
        assert res.holds
        assert res.worst_slack == pytest.approx(2.0 - 1.0, abs=1e-12)

    def test_canonical_mixed(self):
        structure, trace = pipeline_for(
            [[-1.0, 0.0], [0.0, -1.0], [0.0, 1.0]], "logistic", "inv_sqrt", 10_000
        )
        res = check_perp_descent(trace, structure)
        assert res.applicable and res.holds

    @settings(max_examples=60, deadline=None)
    @given(descent_inputs())
    def test_matches_per_checkpoint_formula(self, problem):
        structure, trace = pipeline_for(*problem)
        res = check_perp_descent(trace, structure)
        if structure.n_sep == 0:
            assert not res.applicable
            return
        slack = perp_descent_slacks(trace, structure)
        k = int(np.argmin(slack))
        assert np.array_equal(res.worst_slack, slack[k], equal_nan=True)
        assert res.location == trace.ts[k]


class TestGenIter:
    @pytest.mark.slow
    def test_canonical_mixed_qualifies(self):
        # the decaying schedule reaches the qualification threshold late,
        # so this instance needs a long horizon
        structure, trace = pipeline_for(
            [[-1.0, 0.0], [0.0, -1.0], [0.0, 1.0]], "logistic", "inv_sqrt", 1_000_000
        )
        res = check_gen_iter(trace, structure)
        assert res.applicable
        assert res.holds, (res.worst_slack, res.location)
        assert "qualified from step" in res.note

    def test_separable_not_applicable(self):
        structure, trace = pipeline_for([[-1.0]], "logistic", "constant_one", 100)
        assert not check_gen_iter(trace, structure).applicable

    def test_never_qualifying_reports_diagnosis(self):
        structure, trace = pipeline_for(
            [[-1.0, 0.0], [0.0, -1.0], [0.0, 1.0]], "logistic", "inv_sqrt", 20
        )
        res = check_gen_iter(trace, structure)
        assert not res.applicable
        assert "never qualified" in res.note


class TestReport:
    def canonical_report(self):
        structure, trace = pipeline_for([[-1.0, 0.0], [0.0, -1.0], [0.0, 1.0]], "logistic", "inv_sqrt", 5000)
        results, trends = run_checks(trace, structure)
        return VerificationReport(report_meta(trace, structure, digest="x"), results, trends)

    def test_all_applicable_hold_on_canonical(self):
        rep = self.canonical_report()
        assert rep.ok, rep.failed_names()
        assert [c.name for c in rep.checks] == [
            "risk_bound",
            "smoothness",
            "log_risk_telescope",
            "norm_bounds",
            "perceptron_norm",
            "param_s",
            "direction",
            "fenchel_young",
            "log_approx",
            "perp_descent",
            "gen_iter",
        ]

    def test_deterministic_reports(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self.canonical_report().to_json(a)
        self.canonical_report().to_json(b)
        assert a.read_bytes() == b.read_bytes()

    def test_json_round_trip(self, tmp_path):
        import json

        rep = self.canonical_report()
        rep.to_json(tmp_path / "report.json")
        data = json.loads((tmp_path / "report.json").read_text())
        assert [c["name"] for c in data["checks"]] == [c.name for c in rep.checks]
        assert data["meta"]["loss"] == "logistic"
        # the solvers' stop rules and the checks' slack, in the report's order
        assert list(data["meta"]["tolerances"].items()) == [
            ("margin", GAP_TOL),
            ("scvx", RESIDUAL_TOL),
            ("ball", RESIDUAL_TOL),
            ("numeric_atol", NUMERIC_ATOL),
            ("numeric_rtol", NUMERIC_RTOL),
        ]
