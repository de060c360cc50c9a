"""Kernel-level checks: the loss terms and the descent loop against the frozen
reference loop in gd_oracle.py, the loop's overflow and step-assert exits, and
the independence of its outputs from the length of the chunks it folds over."""

import math
from types import SimpleNamespace

import gd_oracle
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from optray import _kernels as K
from optray.dataset import MarginMatrix, synth, to_margin_matrix
from optray.decompose import partition
from optray.gd import checkpoint_times
from optray.verify import check_smoothness

EPS = np.finfo(float).eps
# the reference loop's running sums, in the order of its return tuple
SUM_NAMES = (
    "perceptron",
    "sum_eta",
    "sum_eff_grad",
    "sum_tele",
    "sum_eta_sep",
    "sum_cross",
    "sup_proj_s",
)
STREAMED = ("perceptron", "sum_eta_sep", "sum_cross", "sup_proj_s")


def _loop(rows, loss, T, cps, schedule="constant_one"):
    A = np.array(rows, dtype=float)
    return K.gd_loop(
        A,
        np.arange(A.shape[0], dtype=np.int64),
        np.zeros((A.shape[1], 0)),
        loss,
        schedule,
        T,
        np.array(cps, dtype=np.int64),
    )


# the frozen reference loop's own codes for the names gd_loop takes and returns
CODES = {
    "logistic": gd_oracle.LOGISTIC,
    "exponential": gd_oracle.EXPONENTIAL,
    "constant_one": gd_oracle.CONSTANT_ONE,
    "inv_sqrt": gd_oracle.INV_SQRT,
}
STATUSES = {
    gd_oracle.STATUS_OK: "ok",
    gd_oracle.STATUS_OVERFLOW: "overflow",
    gd_oracle.STATUS_STEP_ASSERT: "step_assert",
}


def _oracle(A, sep_rows, bs_cols, loss, schedule, T, cps):
    status, *out = gd_oracle.gd_loop(
        A,
        np.ascontiguousarray(A.T),
        np.ascontiguousarray(A[sep_rows].T),
        sep_rows,
        np.ascontiguousarray(bs_cols),
        np.ascontiguousarray(bs_cols.T),
        CODES[loss],
        CODES[schedule],
        T,
        cps,
    )
    return (STATUSES[status], *out)


def _fill_loss_terms(z, loss, val, der):
    # the descent loop's loss values into val and derivatives into der, from
    # the margins z alone, in the loop's split form
    if loss == "exponential":
        # its own derivative, of the margins uncapped
        np.copyto(val, np.exp(z, out=der))
        return
    n = z.shape[0]
    neg = np.negative(z)
    # per step: one exp of the minima [-|z|, min(z,0)] of [z, z] and [-z, 0]
    # gives t = e^-|z| and e^min(z,0), and the derivative e^min(z,0) / (1 + t)
    ex = np.minimum(np.concatenate([z, z]), np.concatenate([neg, np.zeros(n)]))
    np.exp(ex, out=ex)
    t = ex[:n]
    np.divide(ex[n:], np.add(t, np.ones(n)), out=der)
    # at the fold: the value log1p(t) - (-max(z,0)), -max(z,0) = min(-z, 0)
    np.subtract(np.log1p(t), np.minimum(neg, 0.0), out=val)


class TestLossFunctions:
    @settings(max_examples=300, deadline=None)
    @given(
        arrays(
            np.float64,
            st.integers(0, 30),
            elements=st.floats(allow_nan=False) | st.floats(-800.0, 800.0),
        ),
        st.sampled_from(K.LOSSES),
    )
    def test_bits_match_reference_formulas(self, z, loss):
        with np.errstate(over="ignore"):
            ref_val = gd_oracle.loss_values(z, CODES[loss])
            ref_der = gd_oracle.loss_derivs(z, CODES[loss])
        np.testing.assert_array_equal(K.loss_values(z, loss), ref_val, strict=True)
        np.testing.assert_array_equal(K.loss_derivs(z, loss), ref_der, strict=True)
        # the curvature minimize_risk and estimate_lambda read: p (1 - p) of the
        # logistic derivative p, and e^z itself
        ref_curv = ref_der * (1.0 - ref_der) if loss == "logistic" else ref_der
        np.testing.assert_array_equal(K.loss_curvs(z, loss), ref_curv, strict=True)
        # the split form the descent loop uses: the derivative per step, the
        # value at the fold; the loop keeps no step with an exponential margin
        # past the cap
        val, der = np.empty((2,) + z.shape)
        with np.errstate(over="ignore"):
            _fill_loss_terms(z, loss, val, der)
        kept = z <= K._EXP_CAP if loss == "exponential" else slice(None)
        np.testing.assert_array_equal(val[kept], ref_val[kept])
        np.testing.assert_array_equal(der[kept], ref_der[kept])


@pytest.mark.parametrize("rows", (1, 2))
def test_stacked_matmul_has_the_bits_of_one_product_per_slot(rows):
    # the loop's fold takes the P product of a chunk's loss terms, (c, rows,
    # n) @ (n, p), as one stacked np.matmul, where a step-by-step loop takes
    # one product per step: [values; derivatives] @ PT for the logistic loss,
    # values @ PT for the exponential.  A BLAS or numpy that makes the
    # stacked product some other way would move the reported bits
    rng = np.random.default_rng(rows)
    c = 9
    for n in range(1, 91):
        for p in (2, 3, 4, 5, 6):  # 2, and 2 + d for d = 1..4
            PT = rng.standard_normal((p, n)).T
            X = rng.standard_normal((c, rows, n)) * np.exp(rng.uniform(-30.0, 30.0, (c, rows, n)))
            want = np.stack([x.dot(PT) if rows == 2 else x[0].dot(PT)[None] for x in X])
            out = np.empty((c, rows, p))
            np.testing.assert_array_equal(np.matmul(X, PT, out=out), want, strict=True)
            np.testing.assert_array_equal(np.matmul(X, PT), want, strict=True)


def test_overflow_status_from_oversized_rows():
    # one huge row makes the very first step jump out of the float64 range
    out = _loop([[-40.0]], "exponential", 100, [1, 100])
    assert out[0] == "overflow"


def test_step_assert_on_denormalized_rows():
    # rows above unit norm break the effective-step contract eta*risk <= 1
    out = _loop([[-1.0], [2.0]], "exponential", 100, [1, 100])
    assert out[0] == "step_assert"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_margin_past_exp_cap_mid_run_is_overflow():
    # the first step is admissible (eta * risk = 1); the second lands on a
    # margin of 800, past the exponential's cap of 700
    out = _loop([[40.0], [-80.0]], "exponential", 100, [1, 100])
    assert out[0] == "overflow"
    assert out[1] == 0
    assert out[2][0] == 1.0


def _one_step_rows(k, m, z1):
    """k rows 1 and m rows -b in R^1, with b chosen so that the first unit
    step w_1 = (m b - k) / (k + m) puts the margins of the rows 1 at about
    z1 and those of the others far below zero."""
    b = ((k + m) * z1 + k) / m
    return np.array([[1.0]] * k + [[-b]] * m)


@st.composite
def exponential_exit_problems(draw):
    """Exponential-loss problems that end at or near the cap of the capped
    exp: rows in R^1..R^3 scaled past unit norm, so that margins can pass 700
    after admissible steps; one margin within a few ulps of 700, on either
    side, among rows far below it; or many margins just under 700, whose
    capped sum passes e^700 with no margin past the cap."""
    kind = draw(st.sampled_from(("scaled", "one_at_cap", "many_under_cap")))
    if kind == "scaled":
        d = draw(st.integers(1, 3))
        rows = draw(arrays(np.float64, (draw(st.integers(1, 6)), d), elements=st.floats(-1.0, 1.0)))
        top = float(np.linalg.norm(rows, axis=1).max())
        assume(top > 1e-3)
        rows *= draw(st.floats(1.0, 200.0)) / top
    elif kind == "one_at_cap":
        ulps = draw(st.integers(-8, 8))
        rows = _one_step_rows(1, draw(st.integers(1, 40)), 700.0 + ulps * np.spacing(700.0))
    else:
        k, m = draw(st.integers(2, 40)), draw(st.integers(1, 5))
        rows = _one_step_rows(k, m, 700.0 - draw(st.floats(1e-12, 0.5)))
    T = draw(st.integers(2, 200))
    return kind, rows, draw(st.sampled_from(K.SCHEDULES)), T


@settings(max_examples=300, deadline=None)
@given(exponential_exit_problems())
@example(("one_at_cap", _one_step_rows(1, 5, 700.0 + np.spacing(700.0)), "constant_one", 10))
@example(("many_under_cap", _one_step_rows(2, 1, 699.5), "inv_sqrt", 10))
# risk 1, then 0.507, then a margin past the cap at step 2
@example(
    (
        "scaled",
        np.array([[-38.4, -51.5], [22.4, -15.9], [28.8, 19.7], [20.4, 23.0]]),
        "constant_one",
        100,
    )
)
def test_exponential_exit_matches_reference_loop(problem):
    # the loop tests for a margin past the cap only when the capped risk sum
    # reaches e^700; the reference loop tests every step
    kind, rows, schedule, T = problem
    dec = partition(MarginMatrix(rows / float(np.linalg.norm(rows, axis=1).max())))
    args = (rows, dec.sep_rows, dec.basis_s, "exponential", schedule, T)
    cps = checkpoint_times(T, 5)
    with np.errstate(all="ignore"):
        old = _oracle(*args, cps)
    new = K.gd_loop(*args, cps)
    assert_loops_agree(new, old, schedule, cps)
    status, steps_done = new[0], new[1]
    if kind == "one_at_cap":
        # past the cap at step 1, or a finite risk of about e^700 / n
        assert (status, steps_done) in (("overflow", 0), ("step_assert", 1))
    elif kind == "many_under_cap":
        # a capped sum past e^700 at step 1, then the step assert, not overflow
        assert (status, steps_done) == ("step_assert", 1)
        assert new[2][1] * rows.shape[0] >= np.exp(np.array([700.0]))[0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
# the ids of this and the other parametrized cases below are the labels they
# had when the loop took integer codes (losses logistic 0, exponential 1;
# schedules constant_one 0, inv_sqrt 1; statuses overflow 3, step_assert 4),
# kept so that each case keeps its name in test reports
@pytest.mark.parametrize(
    "rows, loss",
    [([[-30.0]], "exponential"), ([[-40.0]], "logistic")],
    ids=["rows0-1", "rows1-0"],
)
def test_risk_underflow_truncates_at_last_finite_step(rows, loss):
    # after one step every margin is below -745, where the loss is exactly 0
    out = _loop(rows, loss, 100, [1, 100])
    status, steps_done, risk_steps = out[0], out[1], out[2]
    assert status == "overflow"
    assert steps_done == 0
    risk_0 = 1.0 if loss == "exponential" else np.log(2.0)
    assert risk_steps[0] == pytest.approx(risk_0, rel=1e-15)


def _exit_rows(stop, status, schedule, m, u):
    """Exponential-loss rows in R^2 that end the loop at step `stop` with
    `status`: overflow or the step assert.

    A pair sigma e1, -sigma (1 + eps) e1 has its optimum at x = sigma w_1 of
    about eps/2, where unit steps overshoot: the deviation from it grows by
    |1 - eta_j h| per step, h = 2 sigma^2 / n, from eps (h - 1) / 2 after step
    0.  m rows -sigma e2, whose loss step 0 takes to about 0, hold the risk
    near 2 cosh(x) / n, so eta risk passes 1 once cosh(x) passes n / (2 eta).
    h is set from the growth g at the last step before the stop, and eps from
    the product of the growths:
    - step assert: x of about acosh(n / (2 eta)) sqrt(g) at the stop, with g
      from 2.5 to 1000;
    - overflow: x of about 1 a step before it (risk 3.1 / n), with g from 700
      to 5000, so that the next step jumps past the cap of 700.
    u in [0, 1] places g in its range; a g too large for eps >= 1e-13 (the
    stop comes early once rounding drives the growth) is lowered towards the
    bottom of it."""
    n = m + 2
    etas = [1.0 / math.sqrt(j + 1.0) if schedule == "inv_sqrt" else 1.0 for j in range(stop + 1)]
    overflow = status == "overflow"
    g_lo, g_hi = (700.0, 5000.0) if overflow else (2.5, 1000.0)

    def place(g):
        h = (1.0 + g) / etas[stop - 1]
        if overflow:
            if stop == 1:
                return h, 4.0 * K._EXP_CAP / h  # x_1 = h eps / 2
            dev, steps = 1.0, range(1, stop - 1)
        else:
            dev, steps = math.acosh(n / (2.0 * etas[stop])) * math.sqrt(g), range(1, stop)
        return h, 2.0 * dev / ((h - 1.0) * math.prod(abs(1.0 - etas[j] * h) for j in steps))

    g = g_lo * (g_hi / g_lo) ** u
    h, eps = place(g)
    while eps < 1e-13 and g > 1.01 * g_lo:
        g = math.sqrt(g * g_lo)
        h, eps = place(g)
    sigma = math.sqrt(h * n / 2.0)
    rows = np.zeros((n, 2))
    rows[0, 0], rows[1, 0] = sigma, -sigma * (1.0 + eps)
    rows[2:, 1] = -sigma
    return rows


@st.composite
def descent_problems(draw):
    """Margin rows in R^1..R^4, the split and basis partition finds, a loss,
    a schedule, T <= 400 and its checkpoints.  Rows come free (some zero or
    copied) or in mirrored pairs, so that both blocks of the split occur; a
    few problems scale the rows past unit norm.  One in four is built to stop
    at a drawn step (_exit_rows): by overflow at steps 1-5 or by the step
    assert at steps 1-20, T >= that step."""
    if draw(st.sampled_from(("free", "free", "free", "exit"))) == "exit":
        status = draw(st.sampled_from(("overflow", "step_assert")))
        stop = draw(st.integers(1, 5 if status == "overflow" else 20))
        schedule = draw(st.sampled_from(K.SCHEDULES))
        rows = _exit_rows(stop, status, schedule, draw(st.integers(2, 8)), draw(st.floats(0.0, 1.0)))
        T = draw(st.integers(stop, 400))
        dec = partition(MarginMatrix(rows / float(np.linalg.norm(rows, axis=1).max())))
        cps = checkpoint_times(T, draw(st.integers(1, 20)))
        return rows, dec.sep_rows, dec.basis_s, "exponential", schedule, T, cps
    d = draw(st.integers(1, 4))
    n_pairs = draw(st.integers(0, 3))
    n_free = draw(st.integers(0 if n_pairs else 1, 12 - 2 * n_pairs))
    free = draw(arrays(np.float64, (n_free, d), elements=st.floats(-1.0, 1.0)))
    for i in range(n_free):
        kind = draw(st.sampled_from(("keep", "keep", "copy", "zero")))
        if kind == "copy":
            free[i] = free[draw(st.integers(0, n_free - 1))]
        elif kind == "zero":
            free[i] = 0.0
    pairs = draw(arrays(np.float64, (n_pairs, d), elements=st.floats(-1.0, 1.0)))
    mirrors = -draw(arrays(np.float64, (n_pairs, 1), elements=st.floats(0.1, 1.0))) * pairs
    rows = np.vstack([free, pairs, mirrors])
    rows /= max(1.0, float(np.linalg.norm(rows, axis=1).max()))
    dec = partition(MarginMatrix(rows))
    scale = draw(st.sampled_from((1.0, 1.0, 1.0, 1.0, 3.0, 40.0)))
    T = draw(st.integers(1, 400))
    cps = checkpoint_times(T, draw(st.integers(1, 20)))
    return (
        scale * rows,
        dec.sep_rows,
        dec.basis_s,
        draw(st.sampled_from(K.LOSSES)),
        draw(st.sampled_from(K.SCHEDULES)),
        T,
        cps,
    )


def assert_loops_agree(new, old, schedule, cps):
    """Equal exits; every series, iterate and running sum within 1e-12
    relative and, for exact zeros, 4 eps m absolute (sum_eta, sum_eff_grad
    and sum_tele taken by descent_sums from the new series at the
    checkpoints cps reached, as a trace takes them); the worst smoothness
    slack that check_smoothness recomputes from the new series within 4 eps m
    of the one the reference streams, at a step whose slack ties with the
    reference's worst within that band.  m is the largest risk or predicted
    risk risk_j (1 - eff_j (1 - eff_j/2) rel_j^2) of the run, leaving out
    overflows: risk_0 for rows of at most unit norm, where rel_j <= 1,
    eff_j <= 1 and the risk falls."""
    assert new[0] == old[0] and new[1] == old[1]
    done = old[1] + 1
    r, rel, eff = old[2][:done], old[3][:done], old[4][:done]
    with np.errstate(over="ignore"):
        pred = r * (1.0 - eff * (1.0 - eff / 2.0) * rel**2)
    m = np.abs(np.concatenate([r, pred]))
    band = 4 * EPS * m[np.isfinite(m)].max()
    for name, a, b in zip(("risk", "rel", "eff"), new[2:5], old[2:5]):
        np.testing.assert_allclose(a[:done], b[:done], rtol=1e-12, atol=band, err_msg=name)
    np.testing.assert_allclose(new[5], old[5], rtol=1e-12, atol=band, err_msg="w")
    ref_sums = dict(zip(SUM_NAMES, old[6:13]))
    for name, a in zip(STREAMED, new[6]):
        np.testing.assert_allclose(a, ref_sums[name], rtol=1e-12, atol=band, err_msg=name)
    ts = cps[cps < done]
    if ts.size:
        derived = K.descent_sums(new[4][:done], new[3][:done], schedule, ts)
        for name, a in zip(("sum_eta", "sum_eff_grad", "sum_tele"), derived):
            b = ref_sums[name][: ts.size]
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=band, err_msg=name)
    series = dict(zip(("risk_steps", "rel_steps", "eff_steps"), (a[:done] for a in new[2:5])))
    smooth = check_smoothness(SimpleNamespace(**series))
    worst, worst_at = smooth.worst_slack, smooth.location
    ref_worst, ref_at = old[13], old[14]
    if ref_at < 0 or not np.isfinite(ref_worst):
        assert worst_at == ref_at and worst == ref_worst
        return
    assert abs(worst - ref_worst) <= band
    if worst_at != ref_at:
        assert pred[worst_at - 1] - r[worst_at] - ref_worst <= band


def assert_both_exits(exits):
    """Of the draws' exit statuses, at least one is an overflow and one a
    step assert."""
    assert {"overflow", "step_assert"} <= exits, exits


# each property below decorates its own inner function, so that each has its
# own key in the hypothesis database and replays only its own failures
class TestDescentLoop:
    def test_matches_reference_loop(self):
        exits = set()

        @settings(max_examples=300, deadline=None)
        @given(descent_problems())
        def matches_reference_loop(problem):
            with np.errstate(all="ignore"):
                old = _oracle(*problem)
            new = K.gd_loop(*problem)
            assert_loops_agree(new, old, problem[4], problem[6])
            exits.add(new[0])

        matches_reference_loop()
        assert_both_exits(exits)


@pytest.mark.parametrize(
    "kind, loss, schedule",
    [
        ("separable", "exponential", "constant_one"),
        ("mixed", "logistic", "inv_sqrt"),
        ("mixed", "exponential", "inv_sqrt"),
        ("overlap", "logistic", "constant_one"),
        ("touching", "logistic", "constant_one"),
    ],
    ids=["separable-1-0", "mixed-0-1", "mixed-1-1", "overlap-0-0", "touching-0-0"],
)
def test_matches_reference_loop_at_benchmark_size(kind, loss, schedule):
    # the hypothesis problems have n <= 12; BLAS may take other kernel paths
    # for the products of the 40- and 43-row long-run inputs.  Every (loss,
    # schedule) pair appears; overlap has an interior optimum, where the
    # gradient's terms cancel, and touching's origin row has margin exactly 0
    # at every step, on the edge of the signs that split the logistic rows
    A = to_margin_matrix(synth(kind, 20, 1)).rows
    dec = partition(MarginMatrix(A))
    T = 20_000
    cps = checkpoint_times(T, 20)
    old = _oracle(A, dec.sep_rows, dec.basis_s, loss, schedule, T, cps)
    new = K.gd_loop(A, dec.sep_rows, dec.basis_s, loss, schedule, T, cps)
    assert new[0] == "ok"
    assert_loops_agree(new, old, schedule, cps)


CHUNKS = (1, 2, 3, 7, K._CHUNK)


def assert_chunk_invariant(args, chunks=CHUNKS):
    """gd_loop gives the same exit, series, checkpoint iterates and streamed
    sums, bit for bit, whatever the length of the chunks it folds its
    bookkeeping over; returns them."""
    outs = []
    for chunk in chunks:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(K, "_CHUNK", chunk)
            outs.append(K.gd_loop(*args))
    ref = outs[-1]
    for chunk, out in zip(chunks, outs):
        assert out[:2] == ref[:2], chunk
        for a, b in zip(out[2:], ref[2:]):
            np.testing.assert_array_equal(a, b, strict=True, err_msg=f"chunk {chunk}")
    return ref


def _split(rows, loss, schedule, T):
    rows = np.array(rows, dtype=float)
    dec = partition(MarginMatrix(rows / float(np.linalg.norm(rows, axis=1).max())))
    cps = checkpoint_times(T, 5)
    return (rows, dec.sep_rows, dec.basis_s, loss, schedule, T, cps)


class TestChunks:
    def test_outputs_do_not_depend_on_the_chunk_length(self):
        exits = set()

        @settings(max_examples=200, deadline=None)
        @given(descent_problems())
        def chunk_invariant(problem):
            exits.add(assert_chunk_invariant(problem)[0])

        chunk_invariant()
        assert_both_exits(exits)

    @pytest.mark.parametrize(
        "rows, loss, status, stop",
        [
            # a margin past the cap at step 1, and at step 2 after a risk of
            # 0.507
            ([[40.0], [-80.0]], "exponential", "overflow", 1),
            (
                [[-38.4, -51.5], [22.4, -15.9], [28.8, 19.7], [20.4, 23.0]],
                "exponential",
                "overflow",
                2,
            ),
            # every margin below -745 after one step: the risk underflows to 0
            ([[-40.0]], "logistic", "overflow", 1),
            ([[-1.0], [2.0]], "exponential", "step_assert", 1),
            ([[-0.5], [6.7], [-9.6], [1.1]], "logistic", "step_assert", 2),
            (
                [[1.9, 0.5], [0.7, 1.1], [-3.2, -9.3], [5.1, 5.3]],
                "logistic",
                "step_assert",
                6,
            ),
            ([[4.2], [-2.7], [-2.4]], "logistic", "step_assert", 7),
        ],
        ids=[
            "rows0-1-3-1",
            "rows1-1-3-2",
            "rows2-0-3-1",
            "rows3-1-4-1",
            "rows4-0-4-2",
            "rows5-0-4-6",
            "rows6-0-4-7",
        ],
    )
    def test_stop_on_the_first_and_last_slot_of_a_chunk(self, rows, loss, status, stop):
        # the stop lands on the first slot of a chunk of `stop` steps and on
        # the last slot of one of stop + 1; the chunks of 1, 2, 3 and 7 put
        # it on other slots
        args = _split(rows, loss, "constant_one", 100)
        with np.errstate(all="ignore"):
            out = assert_chunk_invariant(args, CHUNKS + (stop, stop + 1))
        steps_done = stop - 1 if status == "overflow" else stop
        assert (out[0], out[1]) == (status, steps_done)
        for series in out[2:5]:
            assert not series[steps_done + 1 :].any()

    @pytest.mark.parametrize(
        "rows, slot",
        [
            # the first row's margin changes sign at step 14, 17 or 13: in
            # chunks of 7, on the first, a middle or the last slot of a chunk
            ([[1.0, 0.0], [0.0, 1.0], [0.0, -0.4], [-1.25, 0.5]], 0),
            ([[1.0, 0.0], [0.0, 1.0], [0.0, -0.3], [-1.35, 0.5]], 3),
            ([[1.0, 0.0], [0.0, 1.0], [0.0, -0.5], [-1.2, 0.5]], 6),
        ],
    )
    def test_sign_change_inside_a_chunk(self, rows, slot):
        # after the first chunk a logistic step takes -|z| and min(z,0) from
        # rows split by the signs of the margins at the previous chunk's last
        # step; the chunk in which a margin changes sign runs again in the
        # general form, and must give the bits of chunk lengths under which
        # the change falls in the first chunk (the default) or on other slots
        T = 40
        args = _split(rows, "logistic", "constant_one", T)
        every_step = np.arange(1, T + 1, dtype=np.int64)
        w = np.vstack([np.zeros(2), _oracle(*args[:6], every_step)[5]])
        z = w @ args[0].T
        changes = np.flatnonzero((z[1:] * z[:-1] < 0.0).any(axis=1)) + 1
        assert changes.size == 1 and changes[0] > 7 and changes[0] % 7 == slot
        out = assert_chunk_invariant(args)
        assert (out[0], out[1]) == ("ok", T)

    @pytest.mark.parametrize(
        "loss, schedule, T",
        [("logistic", "inv_sqrt", K._CHUNK - 1), ("exponential", "constant_one", 20)],
        ids=["0-1-255", "1-0-20"],
    )
    def test_last_chunk_ends_at_T(self, loss, schedule, T):
        # T + 1 steps fill whole chunks: of the default length, or of 3 and 7
        rows = to_margin_matrix(synth("mixed", 20, 1)).rows
        out = assert_chunk_invariant(_split(rows, loss, schedule, T))
        assert (out[0], out[1]) == ("ok", T)

    def test_no_step_assert_at_T(self):
        # eta risk passes 1 at step 1 = T, after which no step is taken
        out = assert_chunk_invariant(_split([[-1.0], [2.0]], "exponential", "constant_one", 1))
        assert (out[0], out[1]) == ("ok", 1)
        assert out[4][1] > 1.0 + 1e-9
