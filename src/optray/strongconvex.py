"""Restricted problem over the span S of the non-separable rows: the bounded
optimum of the risk, the infimal risk value, and a strong-convexity estimate.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import NumericalError
from .gd import _loss_code
from .linalg import minimize_risk

LAMBDA_DIRECTIONS = 32
LAMBDA_SEED = 7
STEP_CAP = 2.0**59  # the farthest step a ray is followed to
NEWTON_MAX_STEPS = 60
NEWTON_TOL = 2.0**-50  # a few rounding errors of a step t, or of R near 1
# offsets in ulps from a Newton root at which _level reads the risk; the
# roots of the benchmark rays lie 2 below to 6 above the crossing
_WINDOW = np.arange(-3, 7)
_TOP_BITS = np.float64(2.0**60).view(np.int64)  # no window reads past 2**60
_GAP_CAP = 2**59  # keeps the bits of every window step within int64
_LEVEL_ROWS = 64


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


def _restricted(a_s: np.ndarray, basis_s: np.ndarray) -> np.ndarray:
    """A_S B, the rows of the restricted risk c -> sum_i loss((A_S B c)_i) / n_total."""
    return np.ascontiguousarray(np.asarray(a_s, dtype=float) @ basis_s)


def solve_vbar(a_s: np.ndarray, basis_s: np.ndarray, loss: str, n_total: int) -> ScOptimum:
    """Minimize the restricted risk over S by Newton's method
    (linalg.minimize_risk, a batch of one with an infinite radius); stops
    when the gradient norm reaches linalg.RESIDUAL_TOL; the origin when
    A_S B is empty."""
    code = _loss_code(loss)
    M = _restricted(a_s, basis_s)
    c = np.zeros(basis_s.shape[1])
    if M.size:
        (c,), _ = minimize_risk(M, code, n_total, [np.inf], c[None])
    z = M @ c
    return ScOptimum(
        offset=basis_s @ c,
        risk_inf=float(np.sum(_kernels.loss_values(z, code)) / n_total),
        curvature=np.inf,
        grad_norm=float(np.linalg.norm(M.T @ np.asarray(_kernels.loss_derivs(z, code)) / n_total)),
    )


def _level(M: np.ndarray, code: int, n_total: int, points: np.ndarray) -> np.ndarray:
    """Restricted risk sum_i loss((M c)_i) / n_total at each row c of points.

    The points go through in parts of at most _LEVEL_ROWS, which keeps the
    temporaries near those of one block of directions.  A point gets the same
    bits whatever points come with it: numpy takes a single row through a
    matrix-vector product, which rounds differently from the matrix product
    of every larger part, so a lone point goes in twice and no part is one
    row."""
    k = points.shape[0]
    if k == 1:
        points = np.repeat(points, 2, axis=0)
    parts = np.array_split(points, -(-points.shape[0] // _LEVEL_ROWS))
    risk = np.concatenate([np.sum(_kernels.loss_values(p @ M.T, code), axis=1) for p in parts])
    return risk[:k] / n_total


def _start_steps(z0: np.ndarray, P: np.ndarray, code: int, n_total: int) -> np.ndarray:
    """For each row p = M d of P, a step past which R(c* + t d) > 1, where a
    linear minorant of the loss summed over the s rows with p_i > 0 reaches n:
    ln(1 + e^z) > z, and e^z >= (n/s)(1 + z - ln(n/s)).  +inf where no p_i > 0."""
    up = P > 0.0
    s = np.count_nonzero(up, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        reach = s * np.log(n_total / s) if code == _kernels.EXPONENTIAL else n_total
        t = (reach - np.sum(z0 * up, axis=1)) / np.sum(P * up, axis=1)
    return np.where(s > 0, t, np.inf)


def _newton_roots(z0: np.ndarray, P: np.ndarray, code: int, n_total: int, t: np.ndarray):
    """Roots of phi(t) = R(t) - 1 along every row p = M d of P, R(t) =
    sum_i loss(z0_i + t p_i) / n_total, by Newton's method from the steps t,
    all rows at once, with one value-and-slope evaluation of the block per
    step.  For the exponential loss phi is ln R, convex too and close to
    linear far out.  phi is convex and increasing for t > 0, so from a point
    with phi > 0 the steps fall monotonically onto the root.  Each row keeps a
    bracket lo < root <= hi (hi = +inf until some phi > 0) and bisects it
    (doubles lo while hi is +inf) whenever a step would leave it or is not
    finite.  A row stops once its step or |phi| is within NEWTON_TOL, at the
    last trial point.  Returns the roots and the number of evaluations."""
    roots = t.copy()
    rows = np.arange(t.size)
    lo, hi = np.zeros(t.size), np.full(t.size, np.inf)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for it in range(1, NEWTON_MAX_STEPS + 1):
            z = z0 + t[:, None] * P
            val, der = _kernels.loss_values(z, code), _kernels.loss_derivs(z, code)
            risk, slope = np.sum(val, axis=1) / n_total, np.vecdot(der, P) / n_total
            if code == _kernels.EXPONENTIAL:
                phi, slope = np.log(risk), slope / risk
            else:
                phi = risk - 1.0
            step = phi / slope
            trial = t - step
            np.putmask(hi, phi > 0.0, t)
            np.putmask(lo, phi <= 0.0, t)
            done = (np.abs(step) <= NEWTON_TOL * t) | (np.abs(phi) <= NEWTON_TOL)
            roots[rows[done]] = trial[done]
            if done.all():
                return roots, it
            keep = ~done
            rows, P, lo, hi, trial = rows[keep], P[keep], lo[keep], hi[keep], trial[keep]
            t = np.where(hi == np.inf, 2.0 * lo, 0.5 * (lo + hi))
            np.putmask(t, (lo < trial) & (trial < hi), trial)
    roots[rows] = t
    return roots, NEWTON_MAX_STEPS


def _boundary_steps(M: np.ndarray, code: int, n_total: int, c_star: np.ndarray, D: np.ndarray):
    """Brackets lo < hi = nextafter(lo) with R(c* + lo d) <= 1 < R(c* + hi d)
    by _level, for all unit directions d (rows of D) at once, and the number
    of block evaluations spent; lo = hi = 2**60 where R stays <= 1 up to
    STEP_CAP.

    Newton's method (_newton_roots) on the block z0 + t P, with z0 = M c* and
    P = D M^T, comes within a few ulps of each crossing.  _level then reads a
    window of _WINDOW.size steps at a gap of 1 ulp around every root, and the
    window's first switch from <= 1 to > 1 is the bracket.  A window with no
    such switch widens 4-fold about its root; a switch across more than one
    ulp becomes the next window, at a gap of a ninth of it or more.  Where the
    computed level is monotone in t, the bracket is its one switch, as the
    former doubling and bisection (tests/lambda_oracle.py) found; where it is
    not, any switch is a bracket, and the two searches may pick different
    ones."""

    def over(rows, ts):
        points = c_star + (ts[:, :, None] * D[rows, None, :]).reshape(-1, D.shape[1])
        return (_level(M, code, n_total, points) > 1.0).reshape(ts.shape)

    lo = np.full(D.shape[0], 2.0**60)
    hi = lo.copy()
    z0, P = M @ c_star, D @ M.T
    t = _start_steps(z0, P, code, n_total)
    far = np.flatnonzero(t > STEP_CAP)
    evals = 0
    if far.size:
        t[far] = STEP_CAP
        t[far[~over(far, t[far, None])[:, 0]]] = np.nan
        evals += 1
    rows = np.flatnonzero(~np.isnan(t))
    if rows.size == 0:
        return lo, hi, evals
    roots, evals_newton = _newton_roots(z0, P[rows], code, n_total, t[rows])
    evals += evals_newton
    # the window of a row: the steps whose bits are base + gap k, k in
    # _WINDOW, clipped to [0, top]
    base = np.clip(roots.view(np.int64), 0, _TOP_BITS)
    gap = np.ones_like(base)
    top = np.full_like(base, _TOP_BITS)
    while rows.size:
        bits = np.clip(base[:, None] + gap[:, None] * _WINDOW, 0, top[:, None])
        ts = bits.view(np.float64)
        table = over(rows, ts)
        evals += 1
        switch = ~table[:, :-1] & table[:, 1:]
        k = np.argmax(switch, axis=1)
        each = np.arange(rows.size)
        a, b = bits[each, k], bits[each, k + 1]
        found = switch[each, k]
        done = found & (b - a == 1)
        lo[rows[done]], hi[rows[done]] = ts[done, k[done]], ts[done, k[done] + 1]
        # a switch from a to b more than one ulp apart: the next window runs
        # from a up to b at a gap of at least (b - a)/9; no switch: the
        # window widens 4-fold about the same base
        gap = np.where(found, -((a - b) // (_WINDOW.size - 1)), np.minimum(4 * gap, _GAP_CAP))
        base = np.where(found, a - _WINDOW[0] * gap, base)
        top = np.where(found, b, top)
        rows, base, gap, top = rows[~done], base[~done], gap[~done], top[~done]
    return lo, hi, evals


def estimate_lambda(a_s: np.ndarray, basis_s: np.ndarray, loss: str, opt: ScOptimum, n_total: int) -> float:
    """Sampled estimate of the strong-convexity modulus of the restricted risk
    over its level-1 sublevel set: the least eigenvalue of the reduced Hessian
    at the optimum and at the last step inside the set along each of
    LAMBDA_DIRECTIONS seeded unit directions (the lo of _boundary_steps, by
    Newton's method; 2**60 along a direction where the risk stays <= 1),
    from one stacked product and one batched eigvalsh.  The sampled minimum
    is an upper estimate of the true modulus."""
    code = _loss_code(loss)
    M = _restricted(a_s, basis_s)
    if M.size == 0:
        return np.inf
    c_star = basis_s.T @ opt.offset
    points = c_star[None, :]
    if np.sum(_kernels.loss_values(M @ c_star, code)) / n_total < 1.0 - 1e-12:
        D = np.random.default_rng(LAMBDA_SEED).standard_normal((LAMBDA_DIRECTIONS, basis_s.shape[1]))
        norms = np.linalg.norm(D, axis=1)
        D = D[norms > 0.0] / norms[norms > 0.0, None]
        lo, _, _ = _boundary_steps(M, code, n_total, c_star, D)
        points = np.vstack([points, c_star + lo[:, None] * D])
    curv = _kernels.loss_curvs(points @ M.T, code)
    out = float(np.linalg.eigvalsh((M.T * curv[:, None, :]) @ M / n_total)[:, 0].min())
    if not out > 0.0:
        raise NumericalError(f"nonpositive curvature estimate {out:.3e} on the remainder block")
    return out
