"""The loss functions and the descent loop, in plain numpy.

The descent loop runs one interpreted Python iteration per step on small
arrays, so its cost is numpy's per-call overhead, not arithmetic: it makes
as few numpy calls per step as it can, into buffers allocated once, and keeps
every scalar a Python float.
"""

import math

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


# The formulas below write into out, an array of z's shape, and use work,
# another, when given, so that the descent loop can reuse its buffers.


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


def _logistic_value(z, t, out, work=None):
    # ln(1+e^z) = max(z,0) + log1p(t), exact deep into both tails; out may be t
    v = np.log1p(t, out)
    v += np.maximum(z, 0.0, out=work)
    return v


def _logistic_deriv(z, t, out, work=None):
    # sigmoid(z) = 1/(1+t) for z >= 0 and t/(1+t) below; the numerator is the
    # larger of t <= 1 and H(z); out may be t
    num = np.maximum(t, np.heaviside(z, 1.0, work), out=work)
    u = np.add(t, 1.0, out)
    return np.divide(num, u, u)


def _fill_loss_terms(z, code, val, der, work):
    # loss values into val and derivatives into der, from one exp
    if code == EXPONENTIAL:
        _exp_capped(z, val)
        np.copyto(der, val)
        return
    _exp_neg_abs(z, der)
    _logistic_value(z, der, val, work)
    _logistic_deriv(z, der, der, work)


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
    j = 0..T), per-checkpoint snapshots (iterate and running sums over
    j < t), and the worst slack of the per-step descent inequality
    risk_{j+1} <= risk_j * (1 - eff_j (1 - eff_j/2) rel_j^2) with the step
    where it occurs.

    One step makes one product ext @ w, where ext stacks the rows of A and
    the columns of the basis of S: that gives the margins z and the
    coordinates of P_S w.  Then the loss terms from one exp, one product of
    them with the columns [1, 1_sep] for the risk, the separable-block risk
    and the separable loss mass, and A^T loss'(z) for the gradient.  When
    both blocks exist, the cross term g_sep . P_S w, with
    g_sep = A[sep]^T loss'(z[sep]) / n, takes five more numpy calls: its
    running sum crosses zero, and this d-term form of it rounds several
    times less than a sum of loss'(z_i) (A_i . P_S w) over the rows.
    """
    n, d = A.shape
    r = bs_cols.shape[1]
    n_sep = sep_rows.shape[0]
    K = cps.shape[0]
    cps = cps.tolist() + [-1]

    ext = np.vstack([A, bs_cols.T])
    y = np.empty(n + r)
    z, coords = y[:n], y[n:]
    cols = np.zeros((2, n))
    cols[0] = 1.0
    cols[1, sep_rows] = 1.0
    At = np.ascontiguousarray(A.T)
    Act = np.ascontiguousarray(A[sep_rows].T)
    terms = np.empty((2, n))
    val, der = terms
    work = np.empty(n)
    sums = np.empty((2, 2))
    g = np.empty(d)
    lp_sep = np.empty(n_sep)
    g_sep = np.empty(d)
    ps = np.empty(d)
    w = np.zeros(d)
    w_list = w.tolist()

    risk_steps = np.empty(T + 1)
    rel_steps = np.empty(T + 1)
    eff_steps = np.empty(T + 1)
    cp_w = np.zeros((K, d))
    cp_sums = np.zeros((7, K))

    sum_eta = sum_eff_grad = perceptron = sum_tele = 0.0
    sum_eta_sep = sum_cross = sup_proj_s = 0.0
    pending = worst = math.inf
    worst_at = -1
    k = 0
    steps_done = -1
    status = STATUS_OK

    # an exponential margin past _EXP_CAP puts inf into the sums, where it
    # meets the zeros of 1_sep; the risk check below ends the run on it
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(T + 1):
            np.dot(ext, w, out=y)
            _fill_loss_terms(z, loss_code, val, der, work)
            np.dot(cols, terms.T, out=sums)
            (risk, _), (risk_sep, l1) = sums.tolist()
            risk /= n
            if not 0.0 < risk < math.inf:
                # overflow, or underflow to exact zero (log-risk undefined)
                status = STATUS_OVERFLOW
                break
            np.dot(At, der, out=g)
            grad = [x / n for x in g.tolist()]
            gn = math.sqrt(sum([x * x for x in grad]))
            eta = 1.0 if sched_code == CONSTANT_ONE else 1.0 / math.sqrt(j + 1.0)
            rel = gn / risk
            eff = eta * risk
            risk_steps[j] = risk
            rel_steps[j] = rel
            eff_steps[j] = eff
            steps_done = j

            if j > 0:
                slack = pending - risk
                if slack < worst:
                    worst = slack
                    worst_at = j

            if j == cps[k]:
                cp_w[k] = w_list
                cp_sums[:, k] = (
                    perceptron,
                    sum_eta,
                    sum_eff_grad,
                    sum_tele,
                    sum_eta_sep,
                    sum_cross,
                    sup_proj_s,
                )
                k += 1

            if j == T:
                break

            # accumulators cover j' < t at the moment checkpoint t is recorded
            descent = eff * (1.0 - eff / 2.0) * rel * rel
            if n_sep and r:
                np.take(der, sep_rows, out=lp_sep)
                np.dot(Act, lp_sep, out=g_sep)
                np.divide(g_sep, n, out=g_sep)
                np.dot(bs_cols, coords, out=ps)
                sum_cross += eta * float(np.dot(g_sep, ps))
            sum_eta_sep += eta * (risk_sep / n)
            sum_eta += eta
            sum_eff_grad += eff * rel
            sum_tele += descent
            perceptron += eta * l1 / n
            if r:
                psn = math.hypot(*coords.tolist())
                if psn > sup_proj_s:
                    sup_proj_s = psn

            if eff > 1.0 + 1e-9:
                # eta <= 1 and risk(w_0) <= 1 guarantee eff <= 1; reaching here
                # means the input violated its normalization contract
                status = STATUS_STEP_ASSERT
                break

            pending = risk * (1.0 - descent)
            w_list = [a - eta * b for a, b in zip(w_list, grad)]
            w[:] = w_list

    return (status, steps_done, risk_steps, rel_steps, eff_steps, cp_w, *cp_sums, worst, worst_at)
