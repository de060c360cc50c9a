"""The loss functions and the descent loop, in plain numpy.

The descent loop runs one interpreted Python iteration per step on small
arrays, so its cost is the overhead of each numpy call and of the
interpreter, not arithmetic.  A step makes only the calls that the next
iterate needs: the margins product, the loss derivative and the gradient,
into blocks allocated once, with array operands and views sliced before the
loop (a Python-float operand costs a conversion on every call), and the
iterate update in Python floats: five numpy calls per logistic step and
three per exponential one.  After the first chunk of steps the logistic
product reads -|z| and min(z,0) directly, from rows split by the signs of
the margins, and a chunk in which a sign changes runs again in the general
form.  Steps run in stretches between two checkpoints, so none tests for
one.  The loss values, the risk product, the series, the stop tests and the
running sums are folded once per chunk, in a few vectorized calls over what
the chunk stored.
"""

import bisect
import math
from itertools import islice

import numpy as np

from .errors import ValidationError

LOSSES = ("logistic", "exponential")
SCHEDULES = ("constant_one", "inv_sqrt")  # eta_j = 1 or 1/sqrt(j+1)

_EXP_CAP = 700.0  # exp overflows float64 just above this
_CHUNK = 256  # descent steps per fold of the loop's bookkeeping


def is_exponential(loss: str) -> bool:
    """True for "exponential", False for "logistic"; other names raise ValidationError."""
    if loss not in LOSSES:
        raise ValidationError(f"unknown loss {loss!r}; choose from {LOSSES}")
    return loss == "exponential"


def is_inv_sqrt(schedule: str) -> bool:
    """True for "inv_sqrt", False for "constant_one"; other names raise ValidationError."""
    if schedule not in SCHEDULES:
        raise ValidationError(f"unknown schedule {schedule!r}; choose from {SCHEDULES}")
    return schedule == "inv_sqrt"


def loss_values(z, loss):
    """Elementwise loss: ln(1+e^z) (logistic) or e^z (exponential).

    The logistic branch uses max(z,0)+log1p(e^-|z|), exact deep into both
    tails; the exponential branch returns +inf past the float64 range.
    """
    z = np.asarray(z, dtype=float)
    if is_exponential(loss):
        return np.where(z > _EXP_CAP, np.inf, np.exp(np.minimum(z, _EXP_CAP)))
    return np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)


def loss_derivs(z, loss):
    """Elementwise loss derivative: sigmoid(z) or e^z."""
    if is_exponential(loss):
        return loss_values(z, loss)
    # sigmoid(z) = 1/(1+t) for z >= 0 and t/(1+t) below, t = e^-|z|
    t = np.exp(-np.abs(z))
    return np.maximum(t, np.heaviside(z, 1.0)) / (t + 1.0)


def loss_curvs(z, loss):
    """Elementwise second derivative: sigmoid(z)(1-sigmoid(z)) or e^z."""
    if is_exponential(loss):
        return loss_values(z, loss)
    p = loss_derivs(z, loss)
    return p * (1.0 - p)


def _row_sums(x):
    # Python's sum() over each row of x: from 0, term by term, left to right
    s = x[:, 0] + 0.0
    for col in x.T[1:]:
        s += col
    return s


def gd_loop(A, sep_rows, bs_cols, loss, schedule, T, cps):
    """Run gradient descent w_{j+1} = w_j - eta_j * grad(w_j) from w_0 = 0.

    Parameters
    ----------
    A : (n, d) matrix of margin rows.
    sep_rows : int64 indices of the separable rows (may be empty).
    bs_cols : (d, r) orthonormal basis of the span S of the remaining rows;
        r may be 0.
    loss, schedule : names from LOSSES and SCHEDULES.
    T : number of steps.
    cps : sorted int64 checkpoint times in [1, T].

    Returns (status, steps_done, risk_steps, rel_steps, eff_steps, cp_w,
    cp_sums): "ok", "overflow" or "step_assert", the per-step series (risk,
    |grad|/risk, eta*risk for j = 0..T), the iterate at each checkpoint and,
    as the rows of the (4, K) cp_sums, the running sums over j < t
    perceptron, sum_eta_sep, sum_cross and sup_proj_s; all zero past
    steps_done.

    A step makes two products and the loss derivative between them.  The
    first is ext @ w, which gives the coordinates of P_S w and, for the
    logistic loss, the minima [-|z|, min(z,0)] of the margins z; one exp of
    them gives t = e^-|z| and e^min(z,0), the numerator of the sigmoid, and
    add (against an array of ones) and divide give loss'(z) =
    e^min(z,0) / (1 + t).  In the general form ext stacks the basis of S
    and the rows A, A and -A, so the product holds the margins twice and
    negated, and one np.minimum of [z, z] and [-z, 0] (n trailing zeros)
    gives the minima.  After the first chunk the product takes instead the
    split rows [B^T; -s A; 1[z<0] A; -A], each row of A scaled by the sign
    s of its margin at the previous chunk's last step (0 counts as
    positive), and gives the minima directly, with the same bits while no
    sign changes: a row times -1 or 0 scales each of its products exactly,
    and a zero row gives +-0, whose exp is e^0.  So a step drops
    np.minimum.  A margin whose sign changed makes its -s z entry positive,
    and a margin that reaches exactly 0 reads +-0 in both forms; so a chunk
    in which any stored -|z| entry is > 0 runs again from its start, in the
    general form, and the signs at its last step split the rows for the
    next one.  The data alone chooses the form: the first chunk and the
    chunks in which a sign changes take the general one.  The exponential
    loss is its own derivative, exp of the margins, so there ext stacks
    only the basis of S and A.  The gradient is the second product,
    A^T loss'(z), on its own as in the reference loop, so that it keeps its
    bits: near an interior optimum its terms cancel, and summed in another
    order (as rows of P below) they move |grad| by ulps of the terms, not
    of |grad|.

    Besides these, a step only updates the iterate in Python floats, one
    coordinate at a time in a plain loop (a list comprehension is a
    function call per step) that reads the gradient through one flat
    memoryview of its block, at the slot's offset, and writes w through
    another.  The steps run in stretches between two checkpoints, and the
    iterate is copied at each checkpoint between two stretches, so no step
    tests for one.  That is five numpy calls for the logistic loss (the
    products, exp, add and divide; six, with np.minimum, in the general
    form) and three for the exponential (the products and exp), each a
    bound method or ufunc held in a local and given its output
    positionally (np.minimum keeps out=: numpy 2.4 deprecates a third
    positional argument there); nothing in the next step reads the loss
    values or the risk.  Each call but the add (into one buffer of n)
    writes into slot i of a block allocated once for a chunk of C = _CHUNK
    steps, with the views of every slot sliced before the loop: ext @ w
    into Y, (C, r + 4n) for the logistic loss and (C, r + n) for the
    exponential, where the general form's minima replace [z, z]; their exp
    and the derivative into L, (C, 2, n) (the exponential's values into
    (C, 1, n)); the gradient into (C, d).  The P product below goes into
    (C, 2, p), or (C, 1, p).  At n = 43, r = 1 and d = 2 the logistic
    blocks take 0.55 MB and the exponential ones 0.19 MB, whatever T is.

    After each chunk, the fold first finishes the loss terms: log1p of the
    stored t, less -max(z,0) = min(-z, 0) of the stored -z (exact), gives
    the logistic value in place of t, with the bits of max(z,0) + log1p(t).
    One stacked np.matmul of L with P^T, P = [1; 1_sep; A_sep^T], then
    gives every slot's risk, separable-block risk, separable loss mass and
    g_sep = A_sep^T loss'(z_sep) (its rows only when both blocks exist).  A
    stacked matmul makes one BLAS product per slot, the product a step
    would make (tests/test_kernels.py checks the bits); a flat (c, n) @
    (n, p) product would round differently.

    Vectorized calls over the blocks then do the rest with the float
    operations of a step-by-step loop:
    - the series: risk = sum/n, eff = eta risk, and |grad|/risk, where
      |grad|^2 adds the squares of grad = A^T loss'(z)/n in order, as
      Python's sum() of a list does;
    - the stops, at the first step that meets one.  A risk outside
      (0, inf) (overflow of the sum, or underflow to exact zero, where the
      log-risk is undefined) or an exponential margin past the cap (700,
      where e^z nears the float64 range) ends the run with status "overflow"
      before the step is recorded; eff > 1 + 1e-9 at j < T ends it with
      status "step_assert" after.  The exponential step takes exp of the
      margins uncapped, and they are read back for the cap test only at
      steps whose risk sum reaches e_cap, the loop's own exp of the cap.
      That misses nothing: exp is monotone, so a margin past the cap adds
      at least e_cap to a sum of positive terms, and such a sum is never
      below any one of its terms.  Steps computed past a stop are
      discarded, so the values of a step with a margin past the cap are
      never kept;
    - the running sums perceptron, sum_eta_sep, sum_cross and sup_proj_s,
      by np.cumsum (np.fmax.accumulate for the sup) over rows whose slot 0
      holds the value carried in and slot 1 + i the term of step j0 + i.
      An accumulate adds one term at a time onto the carry, so every slot
      has the bits of the running sum a step-by-step loop keeps; the sum of
      the chunk added to the carry afterwards would round differently.  The
      cross term g_sep . P_S w, with P_S w = B coords, is summed over its d
      terms: its running sum crosses zero, and this form rounds several
      times less than a sum of loss'(z_i) (A_i . P_S w) over the rows.
    sum_eta, sum_eff_grad and sum_tele are cumulative sums of the stored
    series, which descent_sums takes from the trace.
    """
    n, d = A.shape
    r = bs_cols.shape[1]
    cross = sep_rows.shape[0] > 0 and r > 0
    exponential, inv_sqrt = is_exponential(loss), is_inv_sqrt(schedule)
    K = cps.shape[0]
    cps = cps.tolist() + [T + 1]  # past the last step
    C = min(_CHUNK, T + 1)

    # the general logistic product reads [z, z] and [-z, 0]; the split one,
    # from the signs s of the margins, [-|z|, min(z,0)]; the exponential z
    ext = np.vstack([bs_cols.T, A] if exponential else [bs_cols.T, A, A, -A])
    split = ext.copy()
    ones = np.ones(n)
    u = np.empty(n)  # 1 + t
    P = np.zeros((2 + d if cross else 2, n))
    P[0] = 1.0
    P[1, sep_rows] = 1.0
    if cross:
        P[2:, sep_rows] = A[sep_rows].T
    PT = P.T
    At = np.ascontiguousarray(A.T)
    basis = bs_cols.tolist()
    w = np.zeros(d)
    w_start = np.empty(d)
    coords_d = range(d)

    # slot i of each block holds step j0 + i of the chunk
    # ext @ w, then (logistic) the n zeros of the minima
    Y = np.zeros((C, r + (n if exponential else 4 * n)))
    L = np.empty((C, 1 if exponential else 2, n))  # loss values, derivatives
    S = np.empty((C, L.shape[1], P.shape[0]))  # L @ PT, at the fold
    G = np.empty((C, d))  # At @ der
    # per slot: the product's head, the argument lo of exp (and, in the
    # general form, of the minimum of lo and hi, into lo), exp's output ex,
    # t and the derivative in it, the gradient, and the gradient's offset in
    # the flat G
    offsets = range(0, C * d, d)
    if exponential:
        # its own derivative: exp of the margins z (in the place of lo and
        # hi) into the one row of L (in the place of ex, t and der)
        z, der = list(Y[:, r:]), list(L[:, 0])
        slots = list(zip(Y, z, z, der, der, der, G, offsets))
    else:
        # the minima [-|z|, min(z,0)], and their exp [t, e^min(z,0)] into
        # the two rows of L
        lo, hi = Y[:, r : r + 2 * n], Y[:, r + 2 * n :]
        heads = Y[:, : r + 3 * n]
        slots = list(zip(heads, lo, hi, L.reshape(C, 2 * n), L[:, 0], L[:, 1], G, offsets))
        neg_z = Y[:, r + 2 * n : r + 3 * n]
        minus_abs = Y[:, r : r + n]  # -|z| in the split form, unless a sign changed
    coords, vals, ders = Y[:, :r], S[:, 0], S[:, -1]
    from_one = np.arange(1.0, C + 1.0)
    etas = np.ones(C)
    eta_list = etas.tolist()
    # perceptron, sum_eta_sep, sum_cross and sup_proj_s: slot 0 holds the
    # value carried in, slot 1 + i the term of step j0 + i
    folds = np.zeros((4, C + 1))

    risk_steps = np.zeros(T + 1)
    rel_steps = np.zeros(T + 1)
    eff_steps = np.zeros(T + 1)
    cp_w = np.zeros((K, d))
    cp_sums = np.zeros((4, K))  # the rows of folds

    k = 0
    steps_done = T
    status = "ok"
    # the steps' calls, bound once
    exp, add, divide, minimum = np.exp, np.add, np.divide, np.minimum
    gdot = At.dot
    gv = memoryview(G.reshape(-1))
    wv = memoryview(w)
    logistic = not exponential
    signed = False  # split holds the signs of the margins; not in the first chunk

    # a risk sum below e_cap holds no margin past the cap (docstring)
    e_cap = float(np.exp(np.full(n, _EXP_CAP)).min())
    with np.errstate(over="ignore", invalid="ignore"):
        for j0 in range(0, T + 1, C):
            j1 = min(j0 + C, T + 1)
            c = j1 - j0
            if inv_sqrt:
                np.add(from_one, j0, out=etas)  # j + 1, exact
                np.sqrt(etas, out=etas)
                np.divide(1.0, etas, out=etas)
                eta_list = etas.tolist()
            k0 = k
            w_start[:] = w
            while True:
                edot = (split if signed else ext).dot
                general = logistic and not signed
                # one stretch of steps between two checkpoints at a time, all
                # from one iterator (a list slice per stretch raised a long
                # run's peak RSS by 0.7 MB)
                steps = zip(eta_list, slots)
                a = j0
                while a < j1:
                    if a == cps[k]:
                        cp_w[k] = w
                        k += 1
                    b = min(cps[k], j1)
                    for eta, (head, lo, hi, ex, t, der, g, o) in islice(steps, b - a):
                        edot(w, head)
                        if general:
                            minimum(lo, hi, out=lo)
                        exp(lo, ex)
                        if logistic:
                            add(t, ones, u)
                            divide(der, u, der)  # e^min(z,0) / (1 + t)
                        gdot(der, g)
                        for i in coords_d:
                            wv[i] = wv[i] - eta * (gv[o + i] / n)
                    a = b
                if not signed or not (minus_abs[:c] > 0.0).any():
                    break
                # a sign changed inside the chunk: run it again in the
                # general form
                signed = False
                w[:] = w_start
                k = k0
            if logistic:
                # the signs of the margins at the chunk's last step
                negative = neg_z[c - 1] > 0.0
                np.multiply(A, np.where(negative, 1.0, -1.0)[:, None], out=split[r : r + n])
                np.multiply(A, negative[:, None], out=split[r + n : r + 2 * n])
                signed = True

            # the loss values log1p(t) - (-max(z,0)), -max(z,0) = min(-z, 0)
            # from the stored -z, and the P product of every slot: one
            # stacked matmul makes the BLAS call of a step once per slot (a
            # flat (c, n) @ (n, p) product rounds differently)
            if not exponential:
                v = L[:c, 0]
                np.log1p(v, out=v)
                np.subtract(v, np.minimum(neg_z[:c], 0.0, out=neg_z[:c]), out=v)
            np.matmul(L[:c], PT, out=S[:c])

            # the chunk's series and stops; steps past a stop are discarded
            risk = np.divide(vals[:c, 0], n, out=risk_steps[j0:j1])
            eff = np.multiply(etas[:c], risk, out=eff_steps[j0:j1])
            # overflow of the sum, or underflow to exact zero (log-risk
            # undefined)
            overflow = ~((risk > 0.0) & (risk < math.inf))
            if exponential:
                hot = np.flatnonzero(vals[:c, 0] >= e_cap)
                overflow[hot] |= (Y[hot, r : r + n] > _EXP_CAP).any(axis=1)
            # eta <= 1 and risk(w_0) <= 1 guarantee eff <= 1; more means the
            # input violated its normalization contract.  No step follows T
            big = eff > 1.0 + 1e-9
            if j1 > T:
                big[-1] = False
            stops = np.flatnonzero(overflow | big)
            if stops.size:
                i = int(stops[0])
                status = "overflow" if overflow[i] else "step_assert"
                c = i if overflow[i] else i + 1
                steps_done = j0 + c - 1
                risk_steps[j0 + c : j1] = 0.0
                eff_steps[j0 + c : j1] = 0.0
            grad = np.divide(G[:c], n)
            np.divide(np.sqrt(_row_sums(grad * grad)), risk[:c], out=rel_steps[j0 : j0 + c])

            # after the accumulates, slot i holds the sum over the steps
            # before j0 + i, which a checkpoint at that step records
            eta_c = etas[:c]
            np.divide(eta_c * ders[:c, 1], n, out=folds[0, 1 : c + 1])
            np.multiply(eta_c, vals[:c, 1] / n, out=folds[1, 1 : c + 1])
            if r:
                xs = coords[:c]
                if cross:
                    ps = np.stack([_row_sums(xs * row) for row in basis], axis=1)  # P_S w
                    np.multiply(eta_c, _row_sums(ders[:c, 2:] / n * ps), out=folds[2, 1 : c + 1])
                folds[3, 1 : c + 1] = list(map(math.hypot, *xs.T.tolist()))
            np.cumsum(folds[:3, : c + 1], axis=1, out=folds[:3, : c + 1])
            np.fmax.accumulate(folds[3, : c + 1], out=folds[3, : c + 1])
            kv = bisect.bisect_left(cps, j0 + c, k0, k)
            cp_w[kv:k] = 0.0
            k = kv
            cp_sums[:, k0:k] = folds[:, np.array(cps[k0:k], dtype=np.intp) - j0]
            folds[:, 0] = folds[:, c]
            if status != "ok":
                break

    return status, steps_done, risk_steps, rel_steps, eff_steps, cp_w, cp_sums


def descent_sums(eff_steps, rel_steps, schedule, ts):
    """sum_eta, sum_eff_grad and sum_tele at each checkpoint time of ts
    (each >= 1), as the rows of a (3, K) array: cumulative sums of
    eta_j, eff_j rel_j and descent_terms over the steps j < t.  Each term is
    built in one reused buffer with the float operations of the loop's own
    eta and eff, and np.cumsum adds in step order, so the sums have the bits
    of running sums in the loop."""
    at = np.asarray(ts) - 1
    buf = np.ones(at.max() + 1)
    eff, rel = eff_steps[: buf.size], rel_steps[: buf.size]
    if is_inv_sqrt(schedule):
        np.sqrt(np.cumsum(buf, out=buf), out=buf)  # sqrt(j + 1), j + 1 exact
        np.divide(1.0, buf, out=buf)
    sum_eta = np.cumsum(buf, out=buf)[at]
    sum_eff_grad = np.cumsum(np.multiply(eff, rel, out=buf), out=buf)[at]
    sum_tele = np.cumsum(descent_terms(eff, rel, out=buf), out=buf)[at]
    return np.stack([sum_eta, sum_eff_grad, sum_tele])


def descent_terms(eff, rel, out=None):
    """eff_j (1 - eff_j/2) rel_j^2, the fraction of the risk that step j is
    bound to remove by smoothness: risk_{j+1} <= risk_j (1 - this)."""
    out = np.divide(eff, 2.0, out=out)
    np.subtract(1.0, out, out=out)
    np.multiply(eff, out, out=out)
    out *= rel
    out *= rel
    return out
