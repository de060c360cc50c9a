"""Frozen reference for the curvature sampler: ``estimate_lambda`` of optray
as it stood before the directions were batched, one direction and one risk
evaluation at a time, kept verbatim so that tests can compare the current
sampler with it.  Not used by the package.
"""

import numpy as np
from ball_oracle import risk_hessian

from optray import _kernels
from optray.errors import NumericalError
from optray.gd import LOSS_CODES

LAMBDA_DIRECTIONS = 32
LAMBDA_SEED = 7


def _restricted(a_s, basis_s, n_total, code):
    """Value/gradient of c -> sum_i loss((A_S B c)_i) / n_total."""
    M = np.ascontiguousarray(a_s @ basis_s.columns)

    def value(c):
        return float(np.sum(_kernels.loss_values(M @ c, code)) / n_total)

    def gradient(c):
        return (M.T @ np.asarray(_kernels.loss_derivs(M @ c, code))) / n_total

    return M, value, gradient


def estimate_lambda(
    a_s,
    basis_s,
    loss,
    opt,
    n_total,
    n_directions=LAMBDA_DIRECTIONS,
    seed=LAMBDA_SEED,
):
    """Sampled estimate of the strong-convexity modulus of the restricted risk
    over its level-1 sublevel set.

    Evaluates the smallest eigenvalue of the reduced Hessian at the optimum
    and at points found by bisecting, along seeded random directions, to the
    sublevel-set boundary.  The sampled minimum is an upper estimate of the
    true modulus and is reported as such.
    """
    code = LOSS_CODES[loss]
    a_s = np.asarray(a_s, dtype=float)
    if a_s.shape[0] == 0 or basis_s.rank == 0:
        return np.inf
    M, value, _ = _restricted(a_s, basis_s, n_total, code)

    def min_eig(c):
        return float(np.linalg.eigvalsh(risk_hessian(M, code, n_total, c))[0])

    c_star = basis_s.columns.T @ opt.offset
    samples = [min_eig(c_star)]
    f_star = value(c_star)
    if f_star < 1.0 - 1e-12:
        rng = np.random.default_rng(seed)
        for _ in range(n_directions):
            direction = rng.standard_normal(basis_s.rank)
            nd = np.linalg.norm(direction)
            if nd == 0.0:
                continue
            direction /= nd
            lo, hi = 0.0, 1.0
            for _ in range(60):
                if value(c_star + hi * direction) > 1.0:
                    break
                hi *= 2.0
            else:
                samples.append(min_eig(c_star + hi * direction))
                continue
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if value(c_star + mid * direction) > 1.0:
                    hi = mid
                else:
                    lo = mid
            samples.append(min_eig(c_star + lo * direction))
    out = min(samples)
    if not out > 0.0:
        raise NumericalError(f"nonpositive curvature estimate {out:.3e} on the remainder block")
    return out
