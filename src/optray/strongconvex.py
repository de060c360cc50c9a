"""Restricted problem over the span S of the non-separable rows: the bounded
optimum of the risk, the infimal risk value, and a strong-convexity estimate.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import NumericalError
from .gd import _loss_code
from .linalg import Basis, minimize_risk

GRAD_TOL = 1e-10
LAMBDA_DIRECTIONS = 32
LAMBDA_SEED = 7


@dataclass(eq=False)
class ScOptimum:
    """Unique minimizer of the restricted risk, expressed in ambient coordinates.

    risk_inf is the restricted risk at the optimum with the full dataset size
    in the denominator, which equals the infimum of the total risk.
    curvature is the sampled upper estimate of the strong-convexity modulus
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


def _restricted(a_s: np.ndarray, basis_s: Basis) -> np.ndarray:
    """A_S B, the rows of the restricted risk c -> sum_i loss((A_S B c)_i) / n_total."""
    return np.ascontiguousarray(np.asarray(a_s, dtype=float) @ basis_s.columns)


def solve_vbar(
    a_s: np.ndarray,
    basis_s: Basis,
    loss: str,
    n_total: int,
    tol: float = GRAD_TOL,
) -> ScOptimum:
    """Minimize the restricted risk over S by Newton's method
    (linalg.minimize_risk, a batch of one with an infinite radius); stops
    when the gradient norm reaches tol; the origin when A_S B is empty."""
    code = _loss_code(loss)
    M = _restricted(a_s, basis_s)
    c = np.zeros(basis_s.rank)
    if M.size:
        (c,), _ = minimize_risk(M, code, n_total, [np.inf], c[None], tol)
    z = M @ c
    return ScOptimum(
        offset=basis_s.columns @ c,
        risk_inf=float(np.sum(_kernels.loss_values(z, code)) / n_total),
        curvature=np.inf,
        grad_norm=float(np.linalg.norm(M.T @ np.asarray(_kernels.loss_derivs(z, code)) / n_total)),
    )


def _level(M: np.ndarray, code: int, n_total: int, points: np.ndarray) -> np.ndarray:
    """Restricted risk sum_i loss((M c)_i) / n_total at each row c of points."""
    return np.sum(_kernels.loss_values(points @ M.T, code), axis=1) / n_total


def _boundary_steps(M: np.ndarray, code: int, n_total: int, c_star: np.ndarray, D: np.ndarray):
    """Brackets lo <= t <= hi on the step where R(c_star + t d) crosses 1,
    for all unit directions d (rows of D) at once, one _level call per step:
    at most 60 doublings of hi from 1 (lo = hi = 2**60 if R stays <= 1), then
    bisection until every bracket has collapsed (mid is lo or hi), which is
    where 80 halvings would leave it.  Collapsed: R(lo) <= 1 < R(hi)."""

    def over(t):
        return _level(M, code, n_total, c_star + t[:, None] * D) > 1.0

    hi = np.ones(D.shape[0])
    grow = np.ones(D.shape[0], dtype=bool)
    for _ in range(60):
        grow &= ~over(hi)
        if not grow.any():
            break
        hi[grow] *= 2.0
    lo = np.where(grow, hi, 0.0)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            break
        up = over(mid)
        hi, lo = np.where(up, mid, hi), np.where(up, lo, mid)
    return lo, hi


def estimate_lambda(a_s: np.ndarray, basis_s: Basis, loss: str, opt: ScOptimum, n_total: int) -> float:
    """Sampled estimate of the strong-convexity modulus of the restricted risk
    over its level-1 sublevel set: the least eigenvalue of the reduced Hessian
    at the optimum and where seeded random directions leave the set
    (_boundary_steps), from one stacked product and one batched eigvalsh.
    The sampled minimum is an upper estimate of the true modulus."""
    code = _loss_code(loss)
    M = _restricted(a_s, basis_s)
    if M.size == 0:
        return np.inf
    c_star = basis_s.columns.T @ opt.offset
    points = c_star[None, :]
    if np.sum(_kernels.loss_values(M @ c_star, code)) / n_total < 1.0 - 1e-12:
        D = np.random.default_rng(LAMBDA_SEED).standard_normal((LAMBDA_DIRECTIONS, basis_s.rank))
        norms = np.linalg.norm(D, axis=1)
        D = D[norms > 0.0] / norms[norms > 0.0, None]
        lo, _ = _boundary_steps(M, code, n_total, c_star, D)
        points = np.vstack([points, c_star + lo[:, None] * D])
    curv = _kernels.loss_curvs(points @ M.T, code)
    out = float(np.linalg.eigvalsh((M.T * curv[:, None, :]) @ M / n_total)[:, 0].min())
    if not out > 0.0:
        raise NumericalError(f"nonpositive curvature estimate {out:.3e} on the remainder block")
    return out
