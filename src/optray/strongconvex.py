"""Restricted problem over the span S of the non-separable rows: the bounded
optimum of the risk, the infimal risk value, and a strong-convexity estimate.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .decompose import Decomposition
from .errors import NumericalError
from .gd import LOSS_CODES
from .linalg import Basis, minimize_risk, risk_hessian

GRAD_TOL = 1e-10
LAMBDA_DIRECTIONS = 32
LAMBDA_SEED = 7


@dataclass(eq=False)
class ScOptimum:
    """Unique minimizer of the restricted risk, expressed in ambient coordinates.

    risk_inf is the restricted risk at the optimum with the full dataset size
    in the denominator, which equals the infimum of the total risk.
    curvature is the sampled lower estimate of the strong-convexity modulus
    over the level-1 sublevel set (+inf for a rank-0 subspace).
    """

    offset: np.ndarray
    risk_inf: float
    curvature: float
    grad_norm: float

    def to_dict(self) -> dict:
        return {
            "offset": self.offset.tolist(),
            "risk_inf": self.risk_inf,
            "curvature": self.curvature,
            "grad_norm": self.grad_norm,
        }


def _restricted(a_s: np.ndarray, basis_s: Basis, n_total: int, code: int):
    """Value/gradient of c -> sum_i loss((A_S B c)_i) / n_total."""
    M = np.ascontiguousarray(a_s @ basis_s.columns)

    def value(c):
        return float(np.sum(_kernels.loss_values(M @ c, code)) / n_total)

    def gradient(c):
        return (M.T @ np.asarray(_kernels.loss_derivs(M @ c, code))) / n_total

    return M, value, gradient


def solve_vbar(
    a_s: np.ndarray,
    basis_s: Basis,
    loss: str,
    n_total: int,
    tol: float = GRAD_TOL,
) -> ScOptimum:
    """Minimize the restricted risk over S by Newton's method
    (linalg.minimize_risk with an infinite radius); stops when the gradient
    norm reaches tol."""
    code = LOSS_CODES[loss]
    a_s = np.asarray(a_s, dtype=float)
    d = basis_s.dim
    if a_s.shape[0] == 0:
        return ScOptimum(offset=np.zeros(d), risk_inf=0.0, curvature=np.inf, grad_norm=0.0)
    if basis_s.rank == 0:
        # rows exist but span nothing (all-zero rows): optimum is the origin
        value_at_zero = float(np.sum(_kernels.loss_values(np.zeros(a_s.shape[0]), code)) / n_total)
        return ScOptimum(offset=np.zeros(d), risk_inf=value_at_zero, curvature=np.inf, grad_norm=0.0)

    M, value, gradient = _restricted(a_s, basis_s, n_total, code)
    c, _ = minimize_risk(M, code, n_total, np.inf, np.zeros(basis_s.rank), tol)
    return ScOptimum(
        offset=basis_s.columns @ c,
        risk_inf=value(c),
        curvature=np.inf,
        grad_norm=float(np.linalg.norm(gradient(c))),
    )


def infimum_risk(dec: Decomposition, opt: ScOptimum) -> float:
    """Global infimum of the full empirical risk (attained over S in the limit)."""
    return opt.risk_inf


def estimate_lambda(
    a_s: np.ndarray,
    basis_s: Basis,
    loss: str,
    opt: ScOptimum,
    n_total: int,
    n_directions: int = LAMBDA_DIRECTIONS,
    seed: int = LAMBDA_SEED,
) -> float:
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
