"""The loss functions and the descent loop, in plain numpy.

The descent loop runs one interpreted Python iteration per step on small
arrays, so its cost is numpy's per-call overhead, not arithmetic: it makes
only the numpy calls that compute something, into buffers allocated once,
and keeps every scalar a Python float.  Every operand of those calls is an
array (a Python-float operand costs a conversion on every call), and every
view they take is sliced once, before the loop.
"""

import math
import struct

import numpy as np

# loss and schedule codes
LOGISTIC = 0
EXPONENTIAL = 1
CONSTANT_ONE = 0
INV_SQRT = 1

# status codes returned by gd_loop
STATUS_OK = 0
STATUS_OVERFLOW = 3
STATUS_STEP_ASSERT = 4

_EXP_CAP = 700.0  # exp overflows float64 just above this


# The formulas below write into out, an array of z's shape, so that their
# callers can reuse buffers.


def _exp_capped(z, out):
    # e^z, and +inf past _EXP_CAP
    e = np.minimum(z, _EXP_CAP, out=out)
    np.exp(e, e)
    np.putmask(e, z > _EXP_CAP, np.inf)
    return e


def _exp_neg_abs(z, out):
    # t = e^-|z|, the one exp both logistic formulas below take
    t = np.abs(z, out)
    np.negative(t, t)
    return np.exp(t, t)


def _logistic_value(z, t, out):
    # ln(1+e^z) = max(z,0) + log1p(t), exact deep into both tails; out may be t
    v = np.log1p(t, out)
    v += np.maximum(z, 0.0)
    return v


def _logistic_deriv(z, t, out):
    # sigmoid(z) = 1/(1+t) for z >= 0 and t/(1+t) below; the numerator is the
    # larger of t <= 1 and H(z); out may be t
    num = np.maximum(t, np.heaviside(z, 1.0))
    u = np.add(t, 1.0, out)
    return np.divide(num, u, u)


def _logistic_terms(m2, neg_max, ex, t, num, ones, val, der):
    # the two formulas above from the minima m = [-|z|, min(z,0), -max(z,0)]
    # (3n values, one np.minimum of [z, z, -z] and [-z, 0, 0]) with the same
    # bits: one exp of m2 = m[:2n] into ex (2n) gives t = ex[:n] and
    # num = ex[n:] = e^min(z,0), which is the numerator max(t, H(z)), and
    # log1p(t) - neg_max, neg_max = m[2n:] = -max(z,0), is the value.  The
    # descent loop takes the views once and passes them on every step; ones
    # is n ones, so that no operand is a Python float
    np.exp(m2, out=ex)
    np.log1p(t, out=val)
    np.subtract(val, neg_max, out=val)
    np.add(t, ones, out=der)
    np.divide(num, der, out=der)


def _fill_loss_terms(z, code, val, der, work):
    # the descent loop's loss values into val and derivatives into der, from
    # the margins z alone, for the loss tests (the loop reads -z and the
    # minima off its margins product); work is an array of z's shape
    if code == EXPONENTIAL:
        np.copyto(der, _exp_capped(z, val))
        return
    n = z.shape[0]
    neg = np.negative(z, work)
    zero = np.zeros_like(z)
    m = np.minimum(np.concatenate([z, z, neg]), np.concatenate([neg, zero, zero]))
    ex = np.empty(2 * n)
    _logistic_terms(m[: 2 * n], m[2 * n :], ex, ex[:n], ex[n:], np.ones(n), val, der)


def loss_values(z, code):
    """Elementwise loss: ln(1+e^z) for code 0, e^z for code 1.

    The logistic branch uses max(z,0)+log1p(e^-|z|), exact deep into both
    tails; the exponential branch returns +inf past the float64 range.
    """
    z = np.asarray(z, dtype=float)
    out = np.empty(z.shape)
    if code == EXPONENTIAL:
        return _exp_capped(z, out)
    _exp_neg_abs(z, out)
    return _logistic_value(z, out, out)


def loss_derivs(z, code):
    """Elementwise loss derivative: sigmoid(z) or e^z."""
    z = np.asarray(z, dtype=float)
    out = np.empty(z.shape)
    if code == EXPONENTIAL:
        return _exp_capped(z, out)
    _exp_neg_abs(z, out)
    return _logistic_deriv(z, out, out)


def loss_curvs(z, code):
    """Elementwise second derivative: sigmoid(z)(1-sigmoid(z)) or e^z."""
    if code == EXPONENTIAL:
        return loss_values(z, code)
    p = loss_derivs(z, LOGISTIC)
    return p * (1.0 - p)


def gd_loop(A, sep_rows, bs_cols, loss_code, sched_code, T, cps):
    """Run gradient descent w_{j+1} = w_j - eta_j * grad(w_j) from w_0 = 0.

    Parameters
    ----------
    A : (n, d) matrix of margin rows.
    sep_rows : int64 indices of the separable rows (may be empty).
    bs_cols : (d, r) orthonormal basis of the span S of the remaining rows;
        r may be 0.
    loss_code, sched_code : loss/schedule selectors.
    T : number of steps.
    cps : sorted int64 checkpoint times in [1, T].

    Returns per-step scalar series (risk, |grad|/risk, eta*risk for
    j = 0..T) and per-checkpoint snapshots (iterate and running sums over
    j < t).  Four sums need per-step data the loop does not store and run
    in it; sum_eta, sum_eff_grad and sum_tele are cumulative sums of the
    stored series, taken after it.

    One step makes three products.  The first, ext @ w, where ext stacks
    the basis of S and the rows A, A and -A, gives the coordinates of P_S w
    and the margins z twice and negated; trailing zeros turn them into the
    minima the logistic terms start from (_logistic_terms) in one
    np.minimum.  The loss terms then come from one exp, and the second
    product takes them against the rows of P = [1; 1_sep; A_sep^T]: the
    risk, the separable-block risk, the separable loss mass and
    g_sep = A_sep^T loss'(z_sep) (its rows only when both blocks exist), in
    one .tolist().  The gradient is the third product, A^T loss'(z) on its
    own as in the reference loop, so that it keeps its bits: near an
    interior optimum its terms cancel, and summed in another order (as rows
    of P) they move |grad| by ulps of the terms, not of |grad|.  The cross
    term g_sep . P_S w, with P_S w = B coords, is summed in Python floats
    over its d terms: its running sum crosses zero, and this form rounds
    several times less than a sum of loss'(z_i) (A_i . P_S w) over the
    rows.  The new iterate goes back into w with one struct pack_into,
    which builds no array.

    A logistic step thus makes nine numpy calls: the three products,
    np.minimum, and exp, log1p, subtract, add and divide.  The exponential
    loss is its own derivative, so it takes P against the values alone, and
    a step makes five: the products, np.minimum(z, cap) and exp.  A margin
    past the cap (700, where exp nears the float64 range) ends the run with
    status overflow.  The exact test for one runs only when the capped risk
    sum reaches e_cap, the loop's own exp of the cap, and misses nothing: a
    capped margin adds e_cap to that sum of positive terms, and such a sum
    is never below any one of its terms.
    """
    n, d = A.shape
    r = bs_cols.shape[1]
    cross = sep_rows.shape[0] > 0 and r > 0
    K = cps.shape[0]
    cps = cps.tolist() + [-1]

    ext = np.vstack([bs_cols.T, A, A, -A])
    y = np.zeros(r + 5 * n)
    head, coords, z = y[: r + 3 * n], y[:r], y[r : r + n]
    lo, hi = y[r : r + 3 * n], y[r + 2 * n :]
    m = np.empty(3 * n)
    m2, neg_max = m[: 2 * n], m[2 * n :]
    ex = np.empty(2 * n)
    t, num = ex[:n], ex[n:]
    ones = np.ones(n)
    cap = np.full(n, _EXP_CAP)
    P = np.zeros((2 + d if cross else 2, n))
    P[0] = 1.0
    P[1, sep_rows] = 1.0
    if cross:
        P[2:, sep_rows] = A[sep_rows].T
    PT = P.T
    At = np.ascontiguousarray(A.T)
    g = np.empty(d)
    basis = bs_cols.tolist()
    terms = np.empty((2, n))
    val, der = terms
    if loss_code == EXPONENTIAL:
        der = val  # its own derivative
    sums = np.empty((2, P.shape[0]))
    sums0 = sums[0]
    w = np.zeros(d)
    w_list = w.tolist()
    write_w = struct.Struct(f"{d}d").pack_into

    risk_steps = np.empty(T + 1)
    rel_steps = np.empty(T + 1)
    eff_steps = np.empty(T + 1)
    cp_w = np.zeros((K, d))
    cp_sums = np.zeros((7, K))  # in the order of the return tuple

    perceptron = sum_eta_sep = sum_cross = sup_proj_s = 0.0
    k = 0
    steps_done = -1
    status = STATUS_OK

    # a capped risk sum below e_cap holds no capped margin (docstring)
    e_cap = float(np.exp(cap).min())
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(T + 1):
            np.dot(ext, w, out=head)
            if loss_code == EXPONENTIAL:
                np.minimum(z, cap, out=val)
                np.exp(val, out=val)
                vals = ders = np.dot(val, PT, out=sums0).tolist()
                if vals[0] >= e_cap and (z > cap).any():
                    status = STATUS_OVERFLOW
                    break
            else:
                np.minimum(lo, hi, out=m)
                _logistic_terms(m2, neg_max, ex, t, num, ones, val, der)
                vals, ders = np.dot(terms, PT, out=sums).tolist()
            risk = vals[0] / n
            if not 0.0 < risk < math.inf:
                # overflow of the sum, or underflow to exact zero (log-risk
                # undefined)
                status = STATUS_OVERFLOW
                break
            grad = [x / n for x in np.dot(At, der, out=g).tolist()]
            gn = math.sqrt(sum([x * x for x in grad]))
            eta = 1.0 if sched_code == CONSTANT_ONE else 1.0 / math.sqrt(j + 1.0)
            rel = gn / risk
            eff = eta * risk
            risk_steps[j] = risk
            rel_steps[j] = rel
            eff_steps[j] = eff
            steps_done = j

            if j == cps[k]:
                cp_w[k] = w_list
                cp_sums[[0, 4, 5, 6], k] = (perceptron, sum_eta_sep, sum_cross, sup_proj_s)
                k += 1

            if j == T:
                break

            # accumulators cover j' < t at the moment checkpoint t is recorded
            if r:
                c = coords.tolist()
                if cross:
                    ps = [sum([b * x for b, x in zip(row, c)]) for row in basis]
                    sum_cross += eta * sum([x / n * p for x, p in zip(ders[2:], ps)])
                psn = math.hypot(*c)
                if psn > sup_proj_s:
                    sup_proj_s = psn
            sum_eta_sep += eta * (vals[1] / n)
            perceptron += eta * ders[1] / n

            if eff > 1.0 + 1e-9:
                # eta <= 1 and risk(w_0) <= 1 guarantee eff <= 1; reaching here
                # means the input violated its normalization contract
                status = STATUS_STEP_ASSERT
                break

            w_list = [a - eta * b for a, b in zip(w_list, grad)]
            write_w(w, 0, *w_list)

        # sum_eta, sum_eff_grad and sum_tele are cumulative sums of eta_j,
        # eff_j rel_j and descent_terms: each term is built in one reused
        # buffer with the float operations of the loop's own eta and eff,
        # and np.cumsum adds in step order, so the sums have the bits of
        # running sums in the loop
        if k:
            at = np.array(cps[:k]) - 1
            buf = np.ones(cps[k - 1])
            eff, rel = eff_steps[: buf.size], rel_steps[: buf.size]
            if sched_code == INV_SQRT:
                np.sqrt(np.cumsum(buf, out=buf), out=buf)  # sqrt(j + 1), j + 1 exact
                np.divide(1.0, buf, out=buf)
            cp_sums[1, :k] = np.cumsum(buf, out=buf)[at]
            cp_sums[2, :k] = np.cumsum(np.multiply(eff, rel, out=buf), out=buf)[at]
            cp_sums[3, :k] = np.cumsum(descent_terms(eff, rel, out=buf), out=buf)[at]

    return (status, steps_done, risk_steps, rel_steps, eff_steps, cp_w, *cp_sums)


def descent_terms(eff, rel, out=None):
    """eff_j (1 - eff_j/2) rel_j^2, the fraction of the risk that step j is
    bound to remove by smoothness: risk_{j+1} <= risk_j (1 - this)."""
    out = np.divide(eff, 2.0, out=out)
    np.subtract(1.0, out, out=out)
    np.multiply(eff, out, out=out)
    out *= rel
    out *= rel
    return out
