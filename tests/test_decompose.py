import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hull_oracle import block_rows, margin_direction, nearest_point_oracle

from optray import decompose
from optray.dataset import synth, to_margin_matrix
from optray.decompose import (
    Decomposition,
    partition,
    row_feasible,
    separable_certificate,
    validate,
)

CANONICAL_MIXED = np.array([[-1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])


def mat(rows):
    return np.asarray(rows, dtype=float)


def check(dec, A):
    """validate against the direction `pipeline.analyze` passes in."""
    return validate(dec, A, margin_direction(dec))


@st.composite
def block_inputs(draw):
    """Block rows in d <= 6 with a remainder of every rank below d, then up to
    four copies or mirror images of drawn rows, each row scaled by a factor in
    [1e-3, 1]."""
    d = draw(st.integers(1, 6))
    rank = draw(st.integers(0, d - 1))
    n_sep = draw(st.integers(1 if rank == 0 else 0, 10))
    n_sc = draw(st.integers(2, 10))
    rows = block_rows(d, rank, n_sep, n_sc, draw(st.integers(0, 2**16)))
    pick = st.tuples(st.integers(0, n_sep + n_sc - 1), st.sampled_from((1.0, -1.0)))
    picks = draw(st.lists(pick, max_size=4))
    rows = np.vstack([rows] + [sign * rows[i] for i, sign in picks])
    scales = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=len(rows), max_size=len(rows))))
    return rows * scales[:, None]


def count_calls(monkeypatch, name):
    """Replace decompose.<name> by a wrapper that counts its calls."""
    calls = []
    inner = getattr(decompose, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(decompose, name, counted)
    return calls


class TestSeparableCertificate:
    def test_single_separable_row(self):
        cert = separable_certificate(mat([[-1.0, 0.0]]), [0])
        assert cert.slacks[0] == pytest.approx(1.0)
        assert cert.u[0] >= 1.0

    def test_opposing_rows_get_zero(self):
        cert = separable_certificate(mat([[-1.0], [1.0]]), [0, 1])
        np.testing.assert_allclose(cert.slacks, [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(cert.u, [0.0], atol=1e-12)

    def test_mixed_rows(self):
        # any u with A u <= 0 forces u_2 = 0, so only row 0 can win slack
        cert = separable_certificate(mat(CANONICAL_MIXED), [0, 1, 2])
        np.testing.assert_allclose(cert.slacks, [1.0, 0.0, 0.0], atol=1e-12)

    def test_certificate_invariant(self):
        cert = separable_certificate(mat(CANONICAL_MIXED), [0, 1, 2])
        assert np.all(CANONICAL_MIXED @ cert.u <= -cert.slacks + 1e-9)


class TestRowFeasible:
    def test_separable_row(self):
        assert row_feasible(mat(CANONICAL_MIXED), 0) is True

    def test_pinned_row(self):
        assert row_feasible(mat(CANONICAL_MIXED), 1) is False

    def test_single_row(self):
        assert row_feasible(mat([[-1.0]]), 0) is True


class TestPartition:
    def test_canonical_mixed(self):
        dec = partition(mat(CANONICAL_MIXED))
        np.testing.assert_array_equal(dec.sep_rows, [0])
        np.testing.assert_array_equal(dec.sc_rows, [1, 2])
        assert dec.rank_s == 1
        np.testing.assert_allclose(np.abs(dec.basis_s[:, 0]), [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(dec.a_perp, [[-1.0, 0.0]], atol=1e-12)

    def test_fully_separable_circles(self):
        dec = partition(to_margin_matrix(synth("separable", 15, 3)))
        assert dec.sc_rows.size == 0
        assert dec.rank_s == 0
        assert dec.basis_perp.shape[1] == 2

    def test_opposing_rows_all_remain(self):
        dec = partition(mat([[-1.0], [1.0]]))
        assert dec.sep_rows.size == 0
        assert dec.rank_s == 1

    def test_matches_per_row_oracle_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, 5))
            rows = rng.standard_normal((n, d))
            rows /= max(1.0, np.linalg.norm(rows, axis=1).max())
            A = mat(rows)
            dec = partition(A)
            oracle = {i for i in range(n) if row_feasible(A, i)}
            assert set(dec.sep_rows.tolist()) == oracle

    def test_invariant_under_row_permutation(self):
        rng = np.random.default_rng(9)
        rows = rng.standard_normal((6, 3))
        rows /= np.linalg.norm(rows, axis=1).max()
        A = mat(rows)
        base = set(partition(A).sep_rows.tolist())
        for _ in range(5):
            perm = rng.permutation(6)
            dec = partition(mat(rows[perm]))
            assert {perm[i] for i in dec.sep_rows} == base

    def test_invariant_under_global_scaling(self):
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((5, 2))
        rows /= np.linalg.norm(rows, axis=1).max()
        base = set(partition(mat(rows)).sep_rows.tolist())
        for scale in (0.25, 0.5):
            assert set(partition(mat(rows * scale)).sep_rows.tolist()) == base

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), d=st.integers(2, 5), seed=st.integers(0, 2**16))
    def test_invariant_under_permutation_and_row_scaling(self, data, d, seed):
        rank = data.draw(st.integers(1, d - 1))
        n_sep, n_sc = data.draw(st.integers(1, 10)), data.draw(st.integers(2, 10))
        rows = block_rows(d, rank, n_sep, n_sc, seed)
        n = n_sep + n_sc
        perm = np.array(data.draw(st.permutations(range(n))))
        scales = np.array(data.draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
        base = set(partition(mat(rows)).sep_rows.tolist())
        dec = partition(mat(rows[perm] * scales[:, None]))
        assert {int(perm[i]) for i in dec.sep_rows} == base

    @settings(max_examples=200, deadline=None)
    @given(rows=block_inputs())
    def test_global_split_matches_per_row_split(self, rows):
        A = mat(rows)
        dec = partition(A)
        assert dec.sep_rows.tolist() == [i for i in range(len(A)) if row_feasible(A, i)]
        assert check(dec, A).ok

    def test_near_tolerance_rows_all_remain_with_one_solve(self, monkeypatch):
        # k copies of (0.5, 0) and of (-0.5, 2.5e-8): every per-row residual is
        # 2.5e-8, and the global one is k 2.5e-8 = 7.5e-8 <= SLACK_TOL at k = 3.
        # The per-row tests' weights miss the Stiemke bound on this input
        A = mat([[0.5, 0.0]] * 3 + [[-0.5, 2.5e-8]] * 3)
        solves = count_calls(monkeypatch, "nnls")
        dec = partition(A)
        assert dec.sep_rows.size == 0 and dec.rank_s == 2
        assert validate(dec, A, None).ok
        assert len(solves) == 1

    def test_near_tolerance_rows_fall_back_to_per_row_tests(self, monkeypatch):
        # at k = 6 the global residual is 1.5e-7 > SLACK_TOL, and its direction
        # gives no row a margin above SLACK_TOL: the per-row tests decide
        A = mat([[0.5, 0.0]] * 6 + [[-0.5, 2.5e-8]] * 6)
        fallbacks = count_calls(monkeypatch, "_cone_weights")
        dec = partition(A)
        assert len(fallbacks) == 1
        assert not any(row_feasible(A, i) for i in range(len(A)))
        assert dec.sep_rows.size == 0 and dec.sc_rows.tolist() == list(range(12))

    def test_agrees_with_scipy_feasibility(self):
        # cross-check the per-row LP against an unrelated solver
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(1, 4))
            rows = rng.standard_normal((n, d))
            rows /= max(1.0, np.linalg.norm(rows, axis=1).max())
            A = mat(rows)
            box = 10.0 * n
            for i in range(n):
                # max s  s.t.  A u <= 0, (A u)_i <= -s, s <= 1, |u|_inf <= box
                c = np.zeros(d + 1)
                c[-1] = -1.0  # linprog minimizes
                G = np.zeros((n + 1, d + 1))
                G[:n, :d] = rows
                G[i, d] = 1.0
                G[n, d] = 1.0
                h = np.zeros(n + 1)
                h[n] = 1.0
                ref = scipy_opt.linprog(
                    c, A_ub=G, b_ub=h, bounds=[(-box, box)] * d + [(0, 1)], method="highs"
                )
                assert ref.success
                assert row_feasible(A, i) == (-ref.fun > 1e-7)


class TestValidate:
    def test_canonical_passes(self):
        A = mat(CANONICAL_MIXED)
        rep = check(partition(A), A)
        assert rep.ok, rep.checks

    def test_corrupted_swap_fails(self):
        A = mat(CANONICAL_MIXED)
        dec = partition(A)
        swapped = Decomposition(
            sep_rows=np.array([1], dtype=np.int64),
            sc_rows=np.array([0, 2], dtype=np.int64),
            basis_s=dec.basis_s,
            basis_perp=dec.basis_perp,
            a_perp=dec.a_perp,
            sc_weights=np.ones(2),
        )
        rep = check(swapped, A)
        assert not rep.ok

    def test_remainder_off_origin_fails_stiemke(self):
        # both rows lie in S = span(e2) and no row is separable, but their hull
        # [0.5, 1] e2 misses the origin: the remainder has a positive margin,
        # and no positive weights make the rows vanish
        A = mat([[0.0, 1.0], [0.0, 0.5]])
        dec = Decomposition(
            sep_rows=np.zeros(0, dtype=np.int64),
            sc_rows=np.array([0, 1], dtype=np.int64),
            basis_s=np.array([[0.0], [1.0]]),
            basis_perp=np.array([[1.0], [0.0]]),
            a_perp=np.zeros((0, 2)),
            sc_weights=np.ones(2),
        )
        rep = check(dec, A)
        assert not rep.ok
        assert rep.checks["certificate"][0] and rep.checks["remainder_in_span"][0]
        assert not rep.checks["stiemke"][0]

    def test_empty_separable_block(self):
        A = mat([[-1.0], [1.0]])
        rep = check(partition(A), A)
        assert rep.ok
        assert rep.checks["certificate"] == (True, 0.0)

    def test_synth_kinds_pass(self):
        for kind in ("separable", "overlap", "touching", "mixed"):
            A = to_margin_matrix(synth(kind, 10, 2))
            rep = check(partition(A), A)
            assert rep.ok, (kind, rep.checks)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), d=st.integers(2, 5), seed=st.integers(0, 2**16))
    def test_stiemke_puts_the_remainder_hull_at_the_origin(self, data, d, seed):
        # the Stiemke weights q bound the hull point A_sc^T q / sum(q) by
        # SLACK_TOL min(q) / sum(q): the remainder admits no positive margin
        rank = data.draw(st.integers(1, min(3, d - 1)))
        n_sep, n_sc = data.draw(st.integers(0, 6)), data.draw(st.integers(2, 8))
        rows = block_rows(d, rank, n_sep, n_sc, seed)
        scales = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=len(rows), max_size=len(rows)))
        A = mat(rows * np.array(scales)[:, None])
        dec = partition(A)
        ok, _ = check(dec, A).checks["stiemke"]
        if ok and dec.rank_s > 0:
            coords = A[dec.sc_rows] @ dec.basis_s
            assert nearest_point_oracle(coords) <= 1e-6


class TestSynthGeometry:
    def test_separable_rows_all_feasible(self):
        A = to_margin_matrix(synth("separable", 12, 7))
        assert all(row_feasible(A, i) for i in range(len(A)))

    def test_mixed_partition_shape(self):
        ds = synth("mixed", 10, 5)
        A = to_margin_matrix(ds)
        dec = partition(A)
        # the three axis points stay, every disc point separates
        assert dec.sc_rows.size == 3
        assert dec.rank_s == 1

    def test_touching_origin_row_stays(self):
        ds = synth("touching", 8, 4)
        A = to_margin_matrix(ds)
        dec = partition(A)
        assert dec.sc_rows.size == 1
        assert dec.rank_s == 0
        assert np.all(A[dec.sc_rows[0]] == 0.0)
