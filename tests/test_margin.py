import json

import numpy as np
import pytest
from hull_oracle import nearest_point_oracle, point_sets
from hypothesis import example, given, settings

import optray.margin
from optray.dataset import synth, to_margin_matrix
from optray.errors import ConvergenceError, NotSeparableError, ValidationError
from optray.gd import GDTrace, constrained_opt, grad, risk, run
from optray.margin import GAP_TOL, primal_margin, solve_dual
from optray.pipeline import analyze
from optray.strongconvex import estimate_lambda, solve_vbar

SQRT2 = np.sqrt(2.0)


class TestSolveDual:
    def test_single_row(self):
        sol = solve_dual(np.array([[-1.0, 0.0]]))
        assert sol.margin == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(sol.direction, [1.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(sol.dual_weights, [1.0])

    def test_two_axis_rows(self):
        # grid oracle over the 1-simplex: |A^T (p, 1-p)|^2 = p^2 + (1-p)^2,
        # minimized at p = 1/2 with value 1/2
        ps = np.linspace(0, 1, 20001)
        vals = np.sqrt(ps**2 + (1 - ps) ** 2)
        assert vals.min() == pytest.approx(1 / SQRT2, abs=1e-8)
        sol = solve_dual(np.array([[-1.0, 0.0], [0.0, -1.0]]))
        assert sol.margin == pytest.approx(1 / SQRT2, abs=1e-6)
        np.testing.assert_allclose(sol.direction, [1 / SQRT2, 1 / SQRT2], atol=1e-6)
        np.testing.assert_allclose(sol.dual_weights, [0.5, 0.5], atol=1e-6)

    def test_duplicated_row(self):
        sol = solve_dual(np.array([[-1.0, 0.0], [-1.0, 0.0]]))
        assert sol.margin == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(sol.direction, [1.0, 0.0], atol=1e-9)
        # dual weights are any simplex point here; only feasibility is contractual
        assert sol.dual_weights.min() >= -1e-15
        assert sol.dual_weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_gap_at_tolerance(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            n = int(rng.integers(1, 7))
            u_star = rng.standard_normal(d)
            u_star /= np.linalg.norm(u_star)
            rows = rng.standard_normal((n, d)) * 0.2
            rows -= np.maximum(rows @ u_star + rng.uniform(0.1, 0.5, n), 0)[:, None] * u_star
            rows /= max(1.0, np.linalg.norm(rows, axis=1).max())
            sol = solve_dual(rows)
            assert sol.gap <= 1e-8
            assert np.all(rows @ sol.direction <= -sol.margin + 1e-8)

    def test_direction_invariant_to_duplication_and_permutation(self):
        rows = np.array([[-0.8, 0.1], [-0.2, -0.6], [-0.5, -0.5]])
        base = solve_dual(rows).direction
        dup = solve_dual(np.vstack([rows, rows[[1]]]))
        perm = solve_dual(rows[[2, 0, 1]])
        np.testing.assert_allclose(dup.direction, base, atol=1e-6)
        np.testing.assert_allclose(perm.direction, base, atol=1e-6)

    def test_not_separable_rejected(self):
        with pytest.raises(NotSeparableError):
            solve_dual(np.array([[-1.0], [1.0]]))

    def test_direction_is_unit_and_orthogonal_to_span(self):
        from optray.decompose import partition

        A = to_margin_matrix(synth("mixed", 10, 5))
        dec = partition(A)
        sol = solve_dual(dec.a_perp)
        assert abs(np.linalg.norm(sol.direction) - 1.0) <= 1e-9
        assert np.abs(dec.basis_s.T @ sol.direction).max() <= 1e-9

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            solve_dual(np.zeros((0, 2)))

    def test_non_matrix_rejected(self):
        with pytest.raises(ValidationError):
            solve_dual(np.zeros(2))
        with pytest.raises(ValidationError):
            solve_dual(np.zeros((1, 2, 2)))

    def test_segment_through_origin_not_separable(self):
        with pytest.raises(NotSeparableError):
            solve_dual(np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 1.0]]))

    def test_nearest_point_on_an_edge(self):
        sol = solve_dual(np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]))
        assert abs(sol.margin - 1 / SQRT2) <= 1e-15
        np.testing.assert_allclose(sol.dual_weights, [0.5, 0.5, 0.0], atol=1e-15)

    def test_rows_at_an_angle_near_the_rounding(self):
        # (-1, 0) and (-1, 1e-9) are columns at angle 1e-9 of the NNLS solve,
        # below sqrt(eps); the nearest point lies on the edge from c to b
        b, c = np.array([-1.0, 1e-9]), np.array([-0.5, -0.5])
        sol = solve_dual(np.array([[-1.0, 0.0], b, c]))
        x = c - (c @ (b - c)) / ((b - c) @ (b - c)) * (b - c)
        assert abs(sol.margin - np.linalg.norm(x)) <= 1e-12
        np.testing.assert_allclose(sol.direction, -x / np.linalg.norm(x), rtol=0.0, atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(point_sets())
    # the nearest point (0, -1) improves |x|^2 on the first row only by 1e-20,
    # below its rounding
    @example(P=np.array([[1e-10, -1.0], [-1.0, -1.0]]))
    def test_optimal_against_enumeration(self, P):
        best = nearest_point_oracle(P)
        try:
            sol = solve_dual(P)
        except NotSeparableError:
            assert best <= GAP_TOL + 1e-12
            return
        q = sol.dual_weights
        assert q.min() >= 0.0
        assert abs(q.sum() - 1.0) <= 1e-12
        assert abs(sol.margin - best) <= 1e-12

    # ROADMAP item 3: the NNLS loses a weight of about 7e-17 next to weights
    # near 1 and stops at duality gap 1.247e-8 > GAP_TOL
    @pytest.mark.xfail(strict=True, raises=ConvergenceError, reason="ROADMAP item 3")
    def test_weight_lost_next_to_weights_near_one(self):
        row = [0.0, -1.4292875667640343, 0.1796875]
        P = np.array([row, row, [1.5, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1e-7, 0.0]])
        sol = solve_dual(P)
        assert abs(sol.margin - nearest_point_oracle(P)) <= 1e-12


def test_analyze_solves_the_margin_once(monkeypatch):
    calls = []
    inner = optray.margin.nnls

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(optray.margin, "nnls", counted)
    structure = analyze(to_margin_matrix(synth("mixed", 10, 5)), "logistic")
    assert structure.margin_sol is not None and structure.validation.ok
    assert len(calls) == 1


def test_unknown_loss_or_schedule_is_rejected(tmp_path):
    # every public function that takes a loss or schedule name, on the paths
    # that return before any loss is evaluated too: no radii, a rank-0 span
    A = to_margin_matrix(synth("mixed", 10, 5))
    n, w, rank_0 = len(A), np.zeros(2), np.zeros((2, 0))
    opt = solve_vbar(A, rank_0, "logistic", n)
    trace = run(A, "logistic", "inv_sqrt", 10)
    trace.save_steps(tmp_path / "steps.npz")
    for key, name in (("schedule", "linear"), ("loss", "hinge")):
        trace.to_json(tmp_path / f"{key}.json")
        data = json.loads((tmp_path / f"{key}.json").read_text())
        data["meta"][key] = name
        (tmp_path / f"{key}.json").write_text(json.dumps(data))
    calls = [
        ("loss", lambda: risk(A, "hinge", w)),
        ("loss", lambda: grad(A, "hinge", w)),
        ("loss", lambda: run(A, "hinge", "inv_sqrt", 10)),
        ("schedule", lambda: run(A, "logistic", "linear", 10)),
        ("loss", lambda: constrained_opt(A, "hinge", 1.0)),
        ("loss", lambda: constrained_opt(A, "hinge", np.array([]))),
        ("loss", lambda: solve_vbar(A, np.eye(2), "hinge", n)),
        ("loss", lambda: solve_vbar(A, rank_0, "hinge", n)),
        ("loss", lambda: estimate_lambda(A, np.eye(2), "hinge", opt, n)),
        ("loss", lambda: estimate_lambda(A, rank_0, "hinge", opt, n)),
        ("loss", lambda: analyze(A, "hinge")),
        ("schedule", lambda: GDTrace.from_files(tmp_path / "schedule.json", tmp_path / "steps.npz")),
        ("loss", lambda: GDTrace.from_files(tmp_path / "loss.json", tmp_path / "steps.npz")),
    ]
    for kind, call in calls:
        with pytest.raises(ValidationError, match=f"^unknown {kind} '(hinge|linear)'; choose from"):
            call()


class TestPrimalMargin:
    def test_aligned(self):
        assert primal_margin(np.array([[-1.0, 0.0]]), np.array([1.0, 0.0])) == 1.0

    def test_orthogonal(self):
        assert primal_margin(np.array([[-1.0, 0.0]]), np.array([0.0, 1.0])) == 0.0

    def test_diagonal(self):
        val = primal_margin(
            np.array([[-1.0, 0.0], [0.0, -1.0]]), np.array([1.0, 1.0]) / SQRT2
        )
        assert val == pytest.approx(1 / SQRT2)

    def test_non_unit_rejected(self):
        with pytest.raises(ValidationError):
            primal_margin(np.array([[-1.0, 0.0]]), np.array([2.0, 0.0]))

    def test_weak_duality_random(self):
        rng = np.random.default_rng(8)
        rows = np.array([[-0.9, 0.0], [-0.3, -0.4], [-0.1, 0.3]])
        sol = solve_dual(rows)
        for _ in range(100):
            u = rng.standard_normal(2)
            u /= np.linalg.norm(u)
            q = rng.dirichlet(np.ones(3))
            assert primal_margin(rows, u) <= np.linalg.norm(rows.T @ q) + 1e-12
            # the solved margin separates the two sides
            assert primal_margin(rows, u) <= sol.margin + 1e-8
            assert sol.margin <= np.linalg.norm(rows.T @ q) + 1e-8
