"""Max-margin primal/dual pair over the complement subspace.

The dual minimizes |A_perp^T q| over the probability simplex, i.e. it asks
for the point of the hull of the rows of A_perp nearest the origin; any dual
optimum q recovers the unique primal unit vector as -A_perp^T q / |A_perp^T q|.
It is solved as a least-distance program in one NNLS solve (Lawson and
Hanson, Solving Least Squares Problems, 1974, ch. 23): lambda >= 0
minimizing |A_perp^T lambda|^2 + (1 - sum lambda)^2 is t q for an optimal q
and t = 1 / (1 + margin^2), so q = lambda / sum lambda.  The duality gap of
the returned pair certifies its quality after the fact.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NotSeparableError, ValidationError
from .linalg import nnls

GAP_TOL = 1e-8


@dataclass(eq=False)
class MarginSolution:
    """Margin value |A_perp^T q|, unit primal direction, one dual optimum q,
    the realized duality gap (dual value minus primal value, nonnegative up
    to rounding), and the number of rows with positive dual weight."""

    margin: float
    direction: np.ndarray
    dual_weights: np.ndarray
    gap: float
    iterations: int


def primal_margin(a_perp: np.ndarray, u: np.ndarray) -> float:
    """-max_i (A_perp u)_i for a unit vector u; at most the true margin."""
    a_perp = np.asarray(a_perp, dtype=float)
    u = np.asarray(u, dtype=float)
    if abs(np.linalg.norm(u) - 1.0) > 1e-9:
        raise ValidationError("primal_margin expects a unit vector")
    return float(-np.max(a_perp @ u))


def solve_dual(a_perp: np.ndarray) -> MarginSolution:
    """Solve the dual margin problem and certify it to duality gap <= GAP_TOL.

    One NNLS solve over the columns [A_perp^T; 1^T] with target e_{d+1}.
    The margin is taken on the dual side, |A_perp^T q|, which is more
    accurate than the primal side 1 / |x| of the least-distance solution x.
    Raises NotSeparableError when the optimal value is at tolerance level
    (the input rows admit no positive margin, which signals a decomposition
    bug upstream), and ConvergenceError when the gap target is not met.
    """
    Ap = np.asarray(a_perp, dtype=float)
    if Ap.ndim != 2 or Ap.shape[0] == 0:
        raise ValidationError("a_perp must be a nonempty (n_c, d) matrix")
    d = Ap.shape[1]
    target = np.zeros(d + 1)
    target[d] = 1.0
    lam = nnls(np.vstack([Ap.T, np.ones(Ap.shape[0])]), target)[0]
    q = lam / lam.sum()
    support = int(np.count_nonzero(q))
    v = Ap.T @ q
    margin = float(np.linalg.norm(v))
    if margin <= GAP_TOL:
        raise NotSeparableError(f"margin {margin:.3e} is at tolerance level; rows not separable")
    gap = margin - float(np.min(Ap @ v)) / margin
    if gap > GAP_TOL:
        raise ConvergenceError(
            f"duality gap {gap:.3e} > tol {GAP_TOL:.3e} with {support} rows in the support",
            best=gap,
            iterations=support,
        )
    return MarginSolution(
        margin=margin,
        direction=-v / margin,
        dual_weights=q,
        gap=gap,
        iterations=support,
    )
