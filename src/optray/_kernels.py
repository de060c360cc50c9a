"""Hot numeric loops, JIT-compiled with numba when available.

Every kernel here is written in the numba/numpy common dialect: the same
source runs compiled (default) or as plain interpreted numpy.  Set
``OPTRAY_NO_NUMBA=1`` in the environment to force the pure-numpy path;
``benchmarks/bench_kernels.py`` compares the two.

The uncompiled originals stay importable as ``*_py`` for benchmarking and
equivalence tests.
"""

import os

import numpy as np

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised via OPTRAY_NO_NUMBA instead
    HAS_NUMBA = False

USE_NUMBA = HAS_NUMBA and os.environ.get("OPTRAY_NO_NUMBA", "").strip().lower() not in (
    "1",
    "true",
    "yes",
)

# integer codes used inside kernels (numba-friendly)
LOGISTIC = 0
EXPONENTIAL = 1
CONSTANT_ONE = 0
INV_SQRT = 1

# status codes returned by gd_loop
STATUS_OK = 0
STATUS_OVERFLOW = 3
STATUS_STEP_ASSERT = 4

_EXP_CAP = 700.0  # exp overflows float64 just above this


def loss_values(z, code):
    """Elementwise loss: ln(1+e^z) for code 0, e^z for code 1.

    The logistic branch uses max(z,0)+log1p(e^-|z|), exact deep into both
    tails; the exponential branch returns +inf past the float64 range.
    """
    if code == EXPONENTIAL:
        out = np.exp(np.minimum(z, _EXP_CAP))
        return np.where(z > _EXP_CAP, np.inf, out)
    t = np.exp(-np.abs(z))
    return np.maximum(z, 0.0) + np.log1p(t)


def loss_derivs(z, code):
    """Elementwise loss derivative: sigmoid(z) or e^z."""
    if code == EXPONENTIAL:
        out = np.exp(np.minimum(z, _EXP_CAP))
        return np.where(z > _EXP_CAP, np.inf, out)
    t = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + t), t / (1.0 + t))


def loss_curvs(z, code):
    """Elementwise second derivative: sigmoid(z)(1-sigmoid(z)) or e^z."""
    if code == EXPONENTIAL:
        out = np.exp(np.minimum(z, _EXP_CAP))
        return np.where(z > _EXP_CAP, np.inf, out)
    p = loss_derivs(z, LOGISTIC)
    return p * (1.0 - p)


def gd_loop(A, At, Act, sep_idx, BS, BST, loss_code, sched_code, T, cps):
    """Run gradient descent w_{j+1} = w_j - eta_j * grad(w_j) from w_0 = 0.

    Parameters
    ----------
    A, At : (n,d) matrix of margin rows and its transpose (both contiguous).
    Act : (d,n_sep) transpose of the separable-row block.
    sep_idx : int64 indices of the separable rows (may be empty).
    BS, BST : (d,r) orthonormal basis of the span of the remaining rows and
        its transpose; r may be 0.
    loss_code, sched_code : loss/schedule selectors.
    T : number of steps.
    cps : sorted int64 checkpoint times in [1, T].

    Returns per-step scalar series (risk, |grad|/risk, eta*risk for
    j = 0..T), per-checkpoint snapshots (iterate and running sums over
    j < t), and the worst slack of the per-step descent inequality
    risk_{j+1} <= risk_j * (1 - eff_j (1 - eff_j/2) rel_j^2).
    """
    n, d = A.shape
    n_sep = sep_idx.shape[0]
    r = BS.shape[1]
    K = cps.shape[0]

    risk_steps = np.empty(T + 1)
    rel_steps = np.empty(T + 1)
    eff_steps = np.empty(T + 1)
    cp_w = np.zeros((K, d))
    cp_perceptron = np.zeros(K)
    cp_sum_eta = np.zeros(K)
    cp_sum_eff_grad = np.zeros(K)
    cp_sum_tele = np.zeros(K)
    cp_sum_eta_sep = np.zeros(K)
    cp_sum_cross = np.zeros(K)
    cp_sup_proj_s = np.zeros(K)

    w = np.zeros(d)
    sum_eta = 0.0
    sum_eff_grad = 0.0
    perceptron = 0.0
    sum_tele = 0.0
    sum_eta_sep = 0.0
    sum_cross = 0.0
    sup_proj_s = 0.0
    pending = np.inf
    worst = np.inf
    worst_at = -1
    k = 0
    steps_done = -1
    status = STATUS_OK

    for j in range(T + 1):
        z = np.dot(A, w)
        lv = loss_values(z, loss_code)
        lp = loss_derivs(z, loss_code)
        risk = np.sum(lv) / n
        if not np.isfinite(risk) or risk <= 0.0:
            # overflow, or underflow to exact zero (log-risk undefined)
            status = STATUS_OVERFLOW
            break
        g = np.dot(At, lp) / n
        gn = np.sqrt(np.dot(g, g))
        if sched_code == CONSTANT_ONE:
            eta = 1.0
        else:
            eta = 1.0 / np.sqrt(j + 1.0)
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

        if k < K and cps[k] == j:
            cp_w[k, :] = w
            cp_perceptron[k] = perceptron
            cp_sum_eta[k] = sum_eta
            cp_sum_eff_grad[k] = sum_eff_grad
            cp_sum_tele[k] = sum_tele
            cp_sum_eta_sep[k] = sum_eta_sep
            cp_sum_cross[k] = sum_cross
            cp_sup_proj_s[k] = sup_proj_s
            k += 1

        if j == T:
            break

        # separable-row block quantities at w_j
        gc = np.zeros(d)
        l1 = 0.0
        rc = 0.0
        if n_sep > 0:
            lpc = lp[sep_idx]
            l1 = np.sum(lpc)
            rc = np.sum(lv[sep_idx]) / n
            gc = np.dot(Act, lpc) / n
        psn = 0.0
        cross = 0.0
        if r > 0:
            ps = np.dot(BS, np.dot(BST, w))
            psn = np.sqrt(np.dot(ps, ps))
            cross = np.dot(gc, ps)

        # accumulators cover j' < t at the moment checkpoint t is recorded
        sum_cross += eta * cross
        sum_eta_sep += eta * rc
        sum_eta += eta
        sum_eff_grad += eff * rel
        sum_tele += eff * (1.0 - eff / 2.0) * rel * rel
        perceptron += eta * l1 / n
        if psn > sup_proj_s:
            sup_proj_s = psn

        if eff > 1.0 + 1e-9:
            # eta <= 1 and risk(w_0) <= 1 guarantee eff <= 1; reaching here
            # means the input violated its normalization contract
            status = STATUS_STEP_ASSERT
            break

        pending = risk * (1.0 - eff * (1.0 - eff / 2.0) * rel * rel)
        w = w - eta * g

    return (
        status,
        steps_done,
        risk_steps,
        rel_steps,
        eff_steps,
        cp_w,
        cp_perceptron,
        cp_sum_eta,
        cp_sum_eff_grad,
        cp_sum_tele,
        cp_sum_eta_sep,
        cp_sum_cross,
        cp_sup_proj_s,
        worst,
        worst_at,
    )


# keep interpreted originals importable, then compile the hot entry points
loss_values_py = loss_values
loss_derivs_py = loss_derivs
loss_curvs_py = loss_curvs
gd_loop_py = gd_loop

if USE_NUMBA:
    loss_values = njit(cache=True)(loss_values)
    loss_derivs = njit(cache=True)(loss_derivs)
    loss_curvs = njit(cache=True)(loss_curvs)
    gd_loop = njit(cache=True)(gd_loop)
