"""Kernel-level checks: the loss terms and the descent loop against the frozen
reference loop in gd_oracle.py, and the loop's overflow and step-assert exits."""

import gd_oracle
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from optray import _kernels as K
from optray.dataset import MarginMatrix
from optray.decompose import partition
from optray.errors import LPError
from optray.gd import checkpoint_times

EPS = np.finfo(float).eps
SUM_NAMES = (
    "perceptron",
    "sum_eta",
    "sum_eff_grad",
    "sum_tele",
    "sum_eta_sep",
    "sum_cross",
    "sup_proj_s",
)


def _loop(rows, loss_code, T, cps, sched_code=K.CONSTANT_ONE):
    A = np.array(rows, dtype=float)
    return K.gd_loop(
        A,
        np.arange(A.shape[0], dtype=np.int64),
        np.zeros((A.shape[1], 0)),
        loss_code,
        sched_code,
        T,
        np.array(cps, dtype=np.int64),
    )


def _oracle(A, sep_rows, bs_cols, loss_code, sched_code, T, cps):
    return gd_oracle.gd_loop(
        A,
        np.ascontiguousarray(A.T),
        np.ascontiguousarray(A[sep_rows].T),
        sep_rows,
        np.ascontiguousarray(bs_cols),
        np.ascontiguousarray(bs_cols.T),
        loss_code,
        sched_code,
        T,
        cps,
    )


class TestLossFunctions:
    @settings(max_examples=300, deadline=None)
    @given(
        arrays(
            np.float64,
            st.integers(0, 30),
            elements=st.floats(allow_nan=False) | st.floats(-800.0, 800.0),
        ),
        st.sampled_from((K.LOGISTIC, K.EXPONENTIAL)),
    )
    def test_bits_match_reference_formulas(self, z, code):
        with np.errstate(over="ignore"):
            ref_val = gd_oracle.loss_values(z, code)
            ref_der = gd_oracle.loss_derivs(z, code)
        np.testing.assert_array_equal(K.loss_values(z, code), ref_val, strict=True)
        np.testing.assert_array_equal(K.loss_derivs(z, code), ref_der, strict=True)
        # the fused form the descent loop uses, into its buffers
        val, der = np.empty((2,) + z.shape)
        K._fill_loss_terms(z, code, val, der, np.empty(z.shape))
        np.testing.assert_array_equal(val, ref_val)
        np.testing.assert_array_equal(der, ref_der)


def test_overflow_status_from_oversized_rows():
    # one huge row makes the very first step jump out of the float64 range
    out = _loop([[-40.0]], K.EXPONENTIAL, 100, [1, 100])
    assert out[0] == K.STATUS_OVERFLOW


def test_step_assert_on_denormalized_rows():
    # rows above unit norm break the effective-step contract eta*risk <= 1
    out = _loop([[-1.0], [2.0]], K.EXPONENTIAL, 100, [1, 100])
    assert out[0] == K.STATUS_STEP_ASSERT


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_margin_past_exp_cap_mid_run_is_overflow():
    # the first step is admissible (eta * risk = 1); the second lands on a
    # margin of 800, past the exponential's cap of 700
    out = _loop([[40.0], [-80.0]], K.EXPONENTIAL, 100, [1, 100])
    assert out[0] == K.STATUS_OVERFLOW
    assert out[1] == 0
    assert out[2][0] == 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rows, loss_code", [([[-30.0]], K.EXPONENTIAL), ([[-40.0]], K.LOGISTIC)])
def test_risk_underflow_truncates_at_last_finite_step(rows, loss_code):
    # after one step every margin is below -745, where the loss is exactly 0
    out = _loop(rows, loss_code, 100, [1, 100])
    status, steps_done, risk_steps = out[0], out[1], out[2]
    assert status == K.STATUS_OVERFLOW
    assert steps_done == 0
    risk_0 = 1.0 if loss_code == K.EXPONENTIAL else np.log(2.0)
    assert risk_steps[0] == pytest.approx(risk_0, rel=1e-15)


@st.composite
def descent_problems(draw):
    """Margin rows in R^1..R^4, the split and basis partition finds, a loss,
    a schedule, T <= 400 and its checkpoints.  Rows come free (some zero or
    copied) or in mirrored pairs, so that both blocks of the split occur; a
    few problems scale the rows past unit norm to reach the overflow and
    step-assert exits."""
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
    try:
        dec = partition(MarginMatrix(rows))
    except LPError:
        assume(False)
    scale = draw(st.sampled_from((1.0, 1.0, 1.0, 1.0, 3.0, 40.0)))
    T = draw(st.integers(1, 400))
    cps = checkpoint_times(T, draw(st.integers(1, 20)))
    return (
        scale * rows,
        dec.sep_rows,
        dec.basis_s.columns,
        draw(st.sampled_from((K.LOGISTIC, K.EXPONENTIAL))),
        draw(st.sampled_from((K.CONSTANT_ONE, K.INV_SQRT))),
        T,
        cps,
    )


def assert_loops_agree(new, old):
    """Equal exits; every series, iterate and running sum within 1e-12
    relative and, for exact zeros, 4 eps m absolute; the worst smoothness
    slack within 4 eps m, at a step whose slack ties with the reference's
    worst within that band.  m is the largest risk or predicted risk
    risk_j (1 - eff_j (1 - eff_j/2) rel_j^2) of the run, leaving out
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
    for name, a, b in zip(SUM_NAMES, new[6:13], old[6:13]):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=band, err_msg=name)
    worst, worst_at = new[13], new[14]
    ref_worst, ref_at = old[13], old[14]
    if ref_at < 0 or not np.isfinite(ref_worst):
        assert worst_at == ref_at and worst == ref_worst
        return
    assert abs(worst - ref_worst) <= band
    if worst_at != ref_at:
        assert pred[worst_at - 1] - r[worst_at] - ref_worst <= band


class TestDescentLoop:
    @settings(max_examples=300, deadline=None)
    @given(descent_problems())
    def test_matches_reference_loop(self, problem):
        A, sep_rows, bs_cols, loss_code, sched_code, T, cps = problem
        with np.errstate(all="ignore"):
            old = _oracle(A, sep_rows, bs_cols, loss_code, sched_code, T, cps)
        new = K.gd_loop(A, sep_rows, bs_cols, loss_code, sched_code, T, cps)
        assert_loops_agree(new, old)
