"""Frozen reference for the ball-constrained risk minimizer: ``minimize_risk``,
``_ball_multiplier``, ``risk_hessian``, ``_row_space`` and ``ball_series``
of optray as they stood before the radii were batched, one radius per Newton
solve and each solve warm-started from the answer at the radius before, kept
verbatim so that tests can compare the batched solver with it.  Not used by
the package.
"""

from dataclasses import dataclass

import numpy as np

from optray import _kernels
from optray.errors import ConvergenceError
from optray.linalg import orthonormal_basis

# Newton iterations of minimize_risk before it gives up
NEWTON_MAX_ITERS = 200
# trial points of one line search before it gives up
LINE_SEARCH_STEPS = 60


@dataclass(eq=False)
class _RowSpace:
    """The rows M of a risk, factored for minimize_risk: an orthonormal basis
    (d, r) of their span, the rows in that basis M B (n, r), and |M B|_2."""

    basis: np.ndarray
    coords: np.ndarray
    norm: float

    @property
    def shape(self) -> tuple[int, int]:
        """The shape (n, d) of M."""
        return self.coords.shape[0], self.basis.shape[0]


def _row_space(M: np.ndarray) -> _RowSpace:
    """Factor M once for any number of minimize_risk calls on it."""
    eps = np.finfo(float).eps
    basis = orthonormal_basis(M, rank_tol=max(M.shape) * eps)
    coords = M @ basis
    return _RowSpace(basis, coords, np.linalg.norm(coords, 2))


def risk_hessian(M: np.ndarray, loss_code: int, n_total: int, w: np.ndarray) -> np.ndarray:
    """Hessian M^T diag(loss''(M w)) M / n_total of the empirical risk at w."""
    curv = np.asarray(_kernels.loss_curvs(M @ w, loss_code))
    return (M.T * curv) @ M / n_total


def _ball_multiplier(lam: np.ndarray, beta: np.ndarray, radius: float) -> float:
    """Smallest mu >= 0 with |v(mu)| = |beta / (lam + mu)| <= radius, for
    ascending lam > 0.

    mu = 0 when v(0) fits in the ball.  Otherwise mu solves the secular
    equation 1/|v(mu)| = 1/radius, whose left side is increasing and concave,
    by Newton's method inside the bracket [|beta|/radius - lam_max,
    |beta|/radius - lam_min], bisecting whenever a Newton step would leave it.
    """
    if not np.linalg.norm(beta / lam) > radius:
        return 0.0
    bn = float(np.linalg.norm(beta))
    lo, hi = max(bn / radius - lam[-1], 0.0), bn / radius - lam[0]
    mu = hi
    for _ in range(100):
        q = beta / (lam + mu)
        vn = float(np.linalg.norm(q))
        if abs(vn - radius) <= 1e-14 * radius:
            break
        if vn > radius:
            lo = mu
        else:
            hi = mu
        step = (1.0 / vn - 1.0 / radius) * vn**3 / float(q @ (q / (lam + mu)))
        mu = mu - step if lo < mu - step < hi else 0.5 * (lo + hi)
    return mu


def minimize_risk(
    M: np.ndarray | _RowSpace,
    loss_code: int,
    n_total: int,
    radius: float,
    w0: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, int]:
    """Minimizer of R(w) = sum_i loss((M w)_i) / n_total over |w| <= radius.

    Newton's method on the KKT system grad R(w) + mu w = 0, mu >= 0, with
    |w| = radius whenever mu > 0 (J. J. More and D. C. Sorensen, Computing a
    trust region step, 1983).  Each iteration minimizes the quadratic model
    of R at w over the ball, from an eigendecomposition of the Hessian and
    the secular equation for mu, then shortens the step (to the root of the
    secant of the slope, by at most half per trial) until the directional
    derivative of the Lagrangian R + mu |w|^2 / 2 at its end is still <= 0
    (that of R itself when mu = 0).  No two nearly equal risk values are ever
    compared, and a Newton step does not change when R is rescaled, so tiny
    risks need no special handling.  radius = inf gives the unconstrained
    problem.

    The iteration runs in an orthonormal basis of the row space of M, where
    R is strictly convex and which holds every minimizer of least norm; w0
    is projected onto it (then scaled into the ball), and so is the answer.
    It stops when the unit-step natural residual |w - P(w - grad R(w))|
    reaches tol, where P projects onto the ball (|grad R(w)| for an infinite
    radius).  Returns (w, iterations); raises ConvergenceError after
    NEWTON_MAX_ITERS iterations, when a line search finds no descent, or at
    once when tol lies below the rounding floor eps |M|_2^2 |w| / n_total of
    the gradient at w: rounding M w moves each margin by up to about
    eps |M_i| |w|, so the computed gradient is known only to about that
    floor, and the iterations that remain would chase rounding noise.

    M may also be given as _row_space(M), which a series of solves on the
    same rows computes once.
    """
    eps = np.finfo(float).eps
    space = M if isinstance(M, _RowSpace) else _row_space(M)
    basis, M = space.basis, space.coords
    w = basis.T @ np.asarray(w0, dtype=float)
    nw = np.linalg.norm(w)
    if nw > radius:
        w *= radius / nw
    curvature_scale = space.norm**2 / n_total
    for it in range(NEWTON_MAX_ITERS):
        z = M @ w
        g = M.T @ np.asarray(_kernels.loss_derivs(z, loss_code)) / n_total
        # |g| itself inside the ball, where w - (w - g) could round g away
        cn = np.linalg.norm(w - g)
        res = np.linalg.norm(w - (w - g) * (radius / cn)) if cn > radius else np.linalg.norm(g)
        if res <= tol:
            return basis @ w, it
        floor = eps * curvature_scale * np.linalg.norm(w)
        if floor > tol:
            raise ConvergenceError(
                f"tol {tol:.1e} lies below the gradient's rounding floor {floor:.1e} "
                f"(eps |M|^2 |w| / n) at iteration {it}; residual {res:.1e}",
                best=float(res),
                iterations=it,
            )
        lam, Q = np.linalg.eigh(risk_hessian(M, loss_code, n_total, w))
        # curvature below what eigh resolves is raised to that resolution: the
        # shortest step the data allows along such a direction
        lam = np.maximum(lam, eps * lam[-1])
        c, gam = Q.T @ w, Q.T @ g
        mu = _ball_multiplier(lam, lam * c - gam, radius)
        # the step s = -(H + mu I)^-1 (g + mu w), in the eigenbasis
        sig = -(gam + mu * c) / (lam + mu)
        s = Q @ sig
        # slope of the Lagrangian R + mu |w|^2 / 2 along the step; it starts at
        # -s^T (H + mu I) s < 0, and the mu term cancels the part of grad R that
        # the ball absorbs, whose product with the rounding error of s would
        # otherwise swamp the slope near the boundary
        ms, ws, ss = M @ s, float(w @ s), float(s @ s)
        slope0 = -float(sig**2 @ (lam + mu))
        alpha = 1.0
        for trial in range(LINE_SEARCH_STEPS):
            lp = np.asarray(_kernels.loss_derivs(z + alpha * ms, loss_code))
            slope = float(ms @ lp) / n_total + mu * (ws + alpha * ss)
            if -np.inf < slope <= 0.0:
                break
            # past the minimum along the step.  The first retry goes to the root
            # of the secant of the slope from 0 when that lies above 1/2; near
            # the solution it lies just short of 1, which keeps the convergence
            # quadratic.  Every other retry halves alpha.
            secant = slope0 / (slope0 - slope) if trial == 0 and np.isfinite(slope) else 0.0
            alpha = max(secant, 0.5 * alpha)
        else:
            raise ConvergenceError(
                f"no descent along the Newton step at iteration {it}", iterations=it
            )
        w = w + alpha * s
        nw = np.linalg.norm(w)
        if nw > radius or mu > 0.0:
            # mu > 0 puts the model's answer on the sphere, where R falls
            # outward; a shortened step along the chord would end inside it
            w *= radius / nw
    raise ConvergenceError(
        f"risk minimization did not reach tol {tol:.1e} in {NEWTON_MAX_ITERS} iterations",
        iterations=NEWTON_MAX_ITERS,
    )


def ball_series(rows: np.ndarray, loss_code: int, radii: np.ndarray, tol: float) -> np.ndarray:
    """Ball-constrained minimizers at every radius, warm-started along the
    sequence; the rows are factored once for all radii."""
    space = _row_space(rows)
    out = np.zeros((len(radii), rows.shape[1]))
    prev = np.zeros(rows.shape[1])
    for k, radius in enumerate(radii):
        out[k], _ = minimize_risk(space, loss_code, rows.shape[0], float(radius), prev, tol)
        prev = out[k]
    return out
