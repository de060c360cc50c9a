"""Acceptance suite: every exit criterion, one test per criterion, with the
stated tolerances pinned.  Run with `pytest tests/test_acceptance.py -v -s`
to see one PASS line per criterion.
"""

import math
import time

import numpy as np
import pytest
from hull_oracle import margin_direction

from optray.dataset import MarginMatrix, synth, to_margin_matrix
from optray.decompose import Decomposition, partition, row_feasible, validate
from optray.gd import ball_series, grad, risk, run
from optray.margin import solve_dual
from optray.pipeline import analyze
from optray.strongconvex import solve_vbar
from optray.verify import (
    NUMERIC_ATOL,
    check_direction,
    check_fenchel_young,
    check_gen_iter,
    check_log_approx,
    check_smoothness,
    run_checks,
)

T_MATRIX = 100_000
T_LONG = 1_000_000
MATRIX_KINDS = ("separable", "touching", "mixed", "overlap")
MATRIX_SEEDS = (1, 2, 3)
LOSSES = ("logistic", "exponential")
SCHEDULES = ("constant_one", "inv_sqrt")

pytestmark = pytest.mark.slow

CANONICAL_TWO_AXIS = np.array([[-1.0, 0.0], [0.0, -1.0]])
CANONICAL_MIXED = np.array([[-1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])


def _pass(cid, msg):
    print(f"\nACCEPTANCE {cid} PASS: {msg}")


@pytest.fixture(scope="module")
def matrix_runs():
    """The full loss x schedule x kind x seed grid at T = 1e5, with every
    registered check evaluated per run."""
    records = []
    for kind in MATRIX_KINDS:
        for seed in MATRIX_SEEDS:
            m = to_margin_matrix(synth(kind, 20, seed))
            for loss in LOSSES:
                structure = analyze(m, loss)
                for sched in SCHEDULES:
                    trace = run(
                        m,
                        loss,
                        sched,
                        T_MATRIX,
                        sep_rows=structure.dec.sep_rows,
                        basis_s=structure.dec.basis_s,
                    )
                    results, trends = run_checks(trace, structure)
                    records.append(
                        {
                            "kind": kind,
                            "seed": seed,
                            "loss": loss,
                            "sched": sched,
                            "structure": structure,
                            "trace": trace,
                            "checks": {r.name: r for r in results},
                            "trends": {t.name: t for t in trends},
                        }
                    )
    return records


@pytest.fixture(scope="module")
def long_runs():
    """Direction-convergence instances at T = 1e6 (unit steps on separable
    data, decaying steps on mixed data), with ball-constrained optima."""
    cases = [
        ("synth_separable", to_margin_matrix(synth("separable", 20, 1)), "exponential", "constant_one"),
        ("two_axis", MarginMatrix(CANONICAL_TWO_AXIS), "exponential", "constant_one"),
        ("synth_mixed", to_margin_matrix(synth("mixed", 20, 1)), "logistic", "inv_sqrt"),
        ("canonical_mixed", MarginMatrix(CANONICAL_MIXED), "logistic", "inv_sqrt"),
    ]
    records = []
    for name, m, loss, sched in cases:
        structure = analyze(m, loss)
        trace = run(
            m, loss, sched, T_LONG, sep_rows=structure.dec.sep_rows, basis_s=structure.dec.basis_s
        )
        wbar = ball_series(m, loss, trace)
        records.append(
            {"name": name, "structure": structure, "trace": trace, "wbar": wbar}
        )
    return records


def test_criterion_1_decomposition_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.time()
    for trial in range(200):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 5))
        rows = rng.standard_normal((n, d))
        rows /= max(1.0, np.linalg.norm(rows, axis=1).max())
        A = MarginMatrix(rows)
        dec = partition(A)
        oracle = {i for i in range(n) if row_feasible(A, i)}
        assert set(dec.sep_rows.tolist()) == oracle, f"trial {trial}"
        perm = rng.permutation(n)
        dec_p = partition(MarginMatrix(rows[perm]))
        assert {int(perm[i]) for i in dec_p.sep_rows} == set(dec.sep_rows.tolist()), f"trial {trial}"
    elapsed = time.time() - t0
    assert elapsed <= 60.0, f"took {elapsed:.1f}s"
    _pass(1, f"200 instances match the per-row oracle, permutation-invariant ({elapsed:.1f}s)")


def test_criterion_2_margin_duality():
    sol = solve_dual(np.array([[-1.0, 0.0]]))
    assert abs(sol.margin - 1.0) <= 1e-6
    sol2 = solve_dual(CANONICAL_TWO_AXIS)
    assert abs(sol2.margin - 1.0 / math.sqrt(2.0)) <= 1e-6
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 8))
        u_star = rng.standard_normal(d)
        u_star /= np.linalg.norm(u_star)
        rows = rng.standard_normal((n, d)) * 0.2
        rows -= np.maximum(rows @ u_star + rng.uniform(0.1, 0.5, n), 0)[:, None] * u_star
        rows /= max(1.0, np.linalg.norm(rows, axis=1).max())
        s = solve_dual(rows, tol=1e-8)
        assert s.gap <= 1e-8
        assert np.all(rows @ s.direction <= -s.margin + 1e-8)
    _pass(2, "canonical margins exact to 1e-6; random instances reach gap <= 1e-8")


def test_criterion_3_strongly_convex_optimum(matrix_runs):
    from optray.linalg import orthonormal_basis

    a_s = np.array([[-1.0], [-1.0], [1.0]])
    opt = solve_vbar(a_s, orthonormal_basis(a_s), "exponential", n_total=3)
    assert abs(opt.offset[0] - math.log(2.0) / 2.0) <= 1e-8
    assert abs(opt.risk_inf - 2.0 * math.sqrt(2.0) / 3.0) <= 1e-8
    assert opt.grad_norm <= 1e-10
    seen = 0
    for rec in matrix_runs:
        sc = rec["structure"].sc_opt
        assert sc.grad_norm <= 1e-10, (rec["kind"], rec["seed"], rec["loss"])
        seen += 1
    _pass(3, f"closed-form optimum matched to 1e-8; gradient <= 1e-10 on {seen} instances")


def test_criterion_4_gradient_matches_finite_differences():
    rng = np.random.default_rng(99)
    for trial in range(100):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(1, 5))
        A = rng.standard_normal((n, d))
        A /= max(1.0, np.linalg.norm(A, axis=1).max())
        w = rng.standard_normal(d)
        loss = "logistic" if trial % 2 == 0 else "exponential"
        g = grad(A, loss, w)
        h = 1e-6
        fd = np.array(
            [(risk(A, loss, w + h * e) - risk(A, loss, w - h * e)) / (2 * h) for e in np.eye(d)]
        )
        rel = np.linalg.norm(g - fd) / max(np.linalg.norm(g), 1e-12)
        assert rel <= 1e-6, f"trial {trial}: rel err {rel:.2e}"
    _pass(4, "100 random gradients match central differences to 1e-6")


def test_criterion_5_smoothness_everywhere(matrix_runs):
    for rec in matrix_runs:
        res = rec["checks"]["smoothness"]
        assert res.applicable and res.holds, (
            rec["kind"], rec["seed"], rec["loss"], rec["sched"], res.worst_slack, res.location,
        )
    _pass(5, f"per-step descent inequality holds across all {len(matrix_runs)} runs at T={T_MATRIX}")


def test_criterion_6_risk_bound_and_rate(matrix_runs):
    for rec in matrix_runs:
        res = rec["checks"]["risk_bound"]
        assert res.applicable and res.holds, (rec["kind"], rec["seed"], rec["loss"], rec["sched"])
    fitted = 0
    for rec in matrix_runs:
        if rec["kind"] == "mixed" and rec["sched"] == "inv_sqrt":
            trend = rec["trends"]["risk_rate"]
            assert trend.residual <= 0.20, (rec["seed"], rec["loss"], trend.residual)
            trace, structure = rec["trace"], rec["structure"]
            excess_T = float(trace.risk[-1] - structure.inf_risk)
            shape_T = math.log(trace.T) ** 2 / math.sqrt(trace.T)
            assert excess_T <= 1.2 * trend.coefficient * shape_T, (rec["seed"], rec["loss"])
            fitted += 1
    assert fitted == 6
    _pass(6, "risk bound holds on all runs; ln(t)^2/sqrt(t) fit within 20% on mixed data")


def test_criterion_7_norm_bounds_and_log_band(matrix_runs):
    checked = 0
    for rec in matrix_runs:
        res = rec["checks"]["norm_bounds"]
        if rec["structure"].n_sep == 0:
            assert not res.applicable
            continue
        assert res.holds, (rec["kind"], rec["seed"], rec["loss"], rec["sched"], res.worst_slack)
        trace = rec["trace"]
        sel = trace.ts >= trace.T / 100
        ratio = trace.proj_perp_norm[sel] / np.log(trace.ts[sel])
        band = float(ratio.max() / ratio.min())
        assert band <= 4.0, (rec["kind"], rec["seed"], rec["loss"], rec["sched"], band)
        checked += 1
    assert checked == 36
    _pass(7, f"norm bounds hold for t >= 10 on {checked} runs; |perp w|/ln t band within factor 4")


def test_criterion_8_parameter_convergence(matrix_runs):
    for rec in matrix_runs:
        res = rec["checks"]["param_s"]
        if rec["structure"].dec.rank_s == 0:
            assert not res.applicable
            continue
        assert res.holds, (rec["kind"], rec["seed"], rec["loss"], rec["sched"], res.worst_slack)
    structure, trace = None, None
    m = MarginMatrix(np.array([[-1.0], [-1.0], [1.0]]))
    structure = analyze(m, "exponential")
    trace = run(m, "exponential", "inv_sqrt", T_MATRIX, sep_rows=structure.dec.sep_rows, basis_s=structure.dec.basis_s)
    err = abs(float(trace.proj_s[-1][0]) - math.log(2.0) / 2.0)
    assert err <= 1e-3, err
    _pass(8, f"parameter bound holds on all applicable runs; closed-form offset hit to {err:.1e}")


def test_criterion_9_direction_convergence(long_runs):
    for rec in long_runs:
        structure, trace, wbar = rec["structure"], rec["trace"], rec["wbar"]
        res, _ = check_direction(trace, structure, wbar)
        if res.applicable:
            assert res.holds, (rec["name"], res.worst_slack, res.location)
        T = trace.T
        bound = (
            10.0
            * (math.log(structure.n) + math.log(math.log(T)))
            / (structure.gamma**2 * math.log(T))
        )
        err_w = float(np.linalg.norm(trace.dir[-1] - structure.direction) ** 2)
        nb = float(np.linalg.norm(wbar[-1]))
        err_b = float(np.linalg.norm(wbar[-1] / nb - structure.direction) ** 2)
        assert err_w <= bound, (rec["name"], err_w, bound)
        assert err_b <= bound, (rec["name"], err_b, bound)
    # the canonical separable instance reaches its warm start, so the
    # monotonicity clause is exercised non-vacuously
    two_axis = next(r for r in long_runs if r["name"] == "two_axis")
    res, _ = check_direction(two_axis["trace"], two_axis["structure"], two_axis["wbar"])
    assert res.applicable and res.holds
    _pass(9, "direction error non-increasing past warm start and below the rate bound at T=1e6")


def test_criterion_10_fenchel_young_and_log_approx(matrix_runs, long_runs):
    for rec in matrix_runs:
        sol = rec["structure"].margin_sol
        if sol is None:
            continue
        q = sol.dual_weights
        g_star = math.log(rec["structure"].n) + float(np.sum(q[q > 0] * np.log(q[q > 0])))
        assert g_star <= math.log(rec["structure"].n) + NUMERIC_ATOL
    res = check_log_approx()
    assert res.holds
    for rec in matrix_runs:
        fy = rec["checks"]["fenchel_young"]
        if fy.applicable:
            assert fy.holds, (rec["kind"], rec["seed"], rec["loss"], rec["sched"])
        gi = rec["checks"]["gen_iter"]
        if gi.applicable:
            assert gi.holds, (rec["kind"], rec["seed"], rec["loss"], rec["sched"])
    nonvacuous = 0
    for rec in long_runs:
        fy = check_fenchel_young(rec["trace"], rec["structure"], rec["wbar"])
        if fy.applicable:
            assert fy.holds, (rec["name"], fy.note)
            nonvacuous += 1
        else:
            # a run may legitimately never reach the low-risk regime within
            # T; the check must then name the extrapolated qualifying time
            assert "qualifying" in fy.note, (rec["name"], fy.note)
    assert nonvacuous >= 3
    canon = next(r for r in long_runs if r["name"] == "canonical_mixed")
    gi = check_gen_iter(canon["trace"], canon["structure"])
    assert gi.applicable and gi.holds, gi.note
    _pass(10, f"dual entropy bounded by ln n; loss-ratio facts at the boundary of each level; "
              f"angle bounds hold ({nonvacuous} non-vacuous runs)")


def test_criterion_11_negative_controls():
    m = MarginMatrix(CANONICAL_MIXED)
    structure = analyze(m, "logistic")
    trace = run(m, "logistic", "inv_sqrt", 2000, sep_rows=structure.dec.sep_rows, basis_s=structure.dec.basis_s)
    trace.risk_steps[500] *= 1.01
    res = check_smoothness(trace)
    assert not res.holds and res.location == 500

    dec = partition(m)
    swapped = Decomposition(
        sep_rows=np.array([1], dtype=np.int64),
        sc_rows=np.array([0, 2], dtype=np.int64),
        basis_s=dec.basis_s,
        basis_perp=dec.basis_perp,
        a_perp=dec.a_perp,
        sc_weights=np.ones(2),
    )
    assert not validate(swapped, m, margin_direction(swapped)).ok
    _pass(11, "injected risk increase and decomposition swap are both detected")
