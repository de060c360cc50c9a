"""Small dense linear algebra: orthonormal bases, projections, the simplex
projection, the nearest point of a polytope to the origin, nonnegative least
squares, and the minimizer of the empirical risk over a ball."""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConvergenceError

DEFAULT_RANK_TOL = 1e-10
# stopping rule of both active-set methods: in Wolfe's, no row improves on x by
# more than this times |x| max |P_i|; in Lawson-Hanson's, no column's gradient
# exceeds this times its norm times the residual's
MNP_TOL = 1e-15
# Newton iterations of minimize_risk before it gives up
NEWTON_MAX_ITERS = 200
# trial points of one line search before it gives up
LINE_SEARCH_STEPS = 60


@dataclass(eq=False)
class Basis:
    """Orthonormal basis of a subspace of R^d, stored as (d, r) columns.

    rank 0 is valid and represents the zero subspace.
    """

    columns: np.ndarray

    @property
    def dim(self) -> int:
        return self.columns.shape[0]

    @property
    def rank(self) -> int:
        return self.columns.shape[1]

    def project(self, w: np.ndarray) -> np.ndarray:
        """Orthogonal projection of w (or rows of w) onto the subspace."""
        w = np.asarray(w, dtype=float)
        return (w @ self.columns) @ self.columns.T


def _canonical_signs(cols: np.ndarray) -> np.ndarray:
    # fix SVD sign ambiguity so bases are deterministic
    out = cols.copy()
    for j in range(out.shape[1]):
        i = int(np.argmax(np.abs(out[:, j])))
        if out[i, j] < 0:
            out[:, j] = -out[:, j]
    return out


def orthonormal_basis(vectors: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> Basis:
    """Orthonormal basis of span(vectors), vectors given as rows of an (m, d) array.

    Directions whose singular value is <= rank_tol times the largest one are
    dropped.  An empty (0, d) input yields the rank-0 basis.
    """
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    m_rows = np.asarray(vectors, dtype=float)
    if m_rows.ndim != 2:
        raise ValueError("vectors must be a 2-D array with one vector per row")
    d = m_rows.shape[1]
    if m_rows.shape[0] == 0:
        return Basis(np.zeros((d, 0)))
    _, svals, vt = np.linalg.svd(m_rows, full_matrices=False)
    if svals.size == 0 or svals[0] <= 0.0:
        return Basis(np.zeros((d, 0)))
    keep = svals > rank_tol * svals[0]
    return Basis(_canonical_signs(vt[keep].T))


def complement(basis: Basis) -> Basis:
    """Orthonormal basis of the orthogonal complement."""
    d, r = basis.columns.shape
    if r == 0:
        return Basis(np.eye(d))
    if r >= d:
        return Basis(np.zeros((d, 0)))
    _, _, vt = np.linalg.svd(basis.columns.T, full_matrices=True)
    return Basis(_canonical_signs(vt[r:].T))


def min_norm_point(P: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Point x of the convex hull of the rows of P nearest the origin.

    Wolfe's algorithm (P. Wolfe, Finding the nearest point in a polytope,
    Math. Programming 11, 1976): each major cycle adds the row that most
    violates the optimality condition min_i (P x)_i >= |x|^2 to a corral of
    rows, then minor cycles move x to the nearest point of the corral's hull.
    It stops once no row violates the condition by more than
    MNP_TOL |x| max_i |P_i|, or when only rounding drives a cycle (the row
    is already in the corral, or |x| fails to shrink; a point whose |x|^2
    ties with the last is kept).  Returns (q, x, iterations): simplex
    weights q, x = P^T q, and the number of major cycles.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] < 1:
        raise ValueError("expected a nonempty 2-D array with one point per row")
    n, d = P.shape
    sq = np.einsum("ij,ij->i", P, P)
    scale = MNP_TOL * float(np.sqrt(sq.max()))
    corral, lam = np.array([int(np.argmin(sq))]), np.ones(1)
    x, xx = P[corral[0]], float(sq[corral[0]])
    iterations = 0
    while corral.shape[0] <= d:
        px = P @ x
        j = int(np.argmin(px))
        if xx - px[j] <= scale * np.sqrt(xx) or j in corral:
            break
        iterations += 1
        c, w = np.append(corral, j), np.append(lam, 0.0)
        while True:
            # nearest point of the affine hull of P[c], by least squares over the
            # differences from its first row (P[c] P[c]^T would square the conditioning)
            beta = np.linalg.lstsq((P[c[1:]] - P[c[0]]).T, -P[c[0]], rcond=None)[0]
            alpha = np.concatenate(([1.0 - beta.sum()], beta))
            if alpha.min() > 0.0:
                w = alpha / alpha.sum()
                break
            # outside the hull: step toward it until a weight reaches zero, and drop
            # that row; w >= 0 >= alpha here, and w = alpha = 0 gives ratio 0
            neg = np.flatnonzero(alpha <= 0.0)
            ratios = w[neg] / np.maximum(w[neg] - alpha[neg], 1e-300)
            w = w + ratios.min() * (alpha - w)
            w[neg[int(np.argmin(ratios))]] = 0.0
            c, w = c[w > 0.0], w[w > 0.0] / w[w > 0.0].sum()
        x_new = P[c].T @ w
        xx_new = float(x_new @ x_new)
        if not xx_new <= xx:
            break
        shrank = xx_new < xx
        corral, lam, x, xx = c, w, x_new, xx_new
        if not shrank:
            # |x|^2 ties: only rounding could drive another cycle, and the new
            # point is the nearer one in exact arithmetic
            break
    q = np.zeros(n)
    q[corral] = lam
    return q, P.T @ q, iterations


def nnls(E: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x >= 0 minimizing |E x - f|.

    The active-set method of Lawson and Hanson (Solving Least Squares
    Problems, 1974, ch. 23): each major cycle moves the column of largest
    gradient w_j = E_j^T (f - E x) into the passive set,
    then minor cycles solve least squares on the passive columns and, while
    some of its weights are not positive, step from x toward that solution
    until a weight reaches zero and drop that column.  It stops once no
    column has w_j > MNP_TOL |E_j| |f - E x|, when only rounding drives a
    cycle (the entering column gets no weight, or the squared residual
    shrinks by no more than MNP_TOL |E (z - x)| |f - E x|), or when a weight
    would pass the float range.  Every step works on the columns scaled to
    unit norm: the entering column is the one of largest w_j / |E_j|, and the
    least-squares solve, refined once, does not let lstsq's rank cutoff drop
    a column many orders of magnitude shorter than the others.  Zero columns
    never enter.  Returns (x, r), r = f - E x.
    """
    E = np.asarray(E, dtype=float)
    f = np.asarray(f, dtype=float)
    if E.ndim != 2 or f.shape != (E.shape[0],):
        raise ValueError("expected a (d, m) matrix and a length-d vector")
    m = E.shape[1]
    norms = np.hypot.reduce(E, axis=0)  # no underflow for tiny columns
    unit = np.divide(E, norms, out=np.zeros_like(E), where=norms > 0.0)
    x, passive = np.zeros(m), np.zeros(m, dtype=bool)
    r, rr = f, float(f @ f)
    while not passive.all():
        g = unit.T @ r  # w_j / |E_j|
        entering = ~passive & (g > MNP_TOL * np.sqrt(rr))
        if not entering.any():
            break
        j = int(np.argmax(np.where(entering, g, -np.inf)))
        p, y = passive.copy(), x.copy()
        p[j] = True
        while True:
            cols = np.flatnonzero(p)
            z = np.zeros(m)
            U = unit[:, cols]
            s = np.linalg.lstsq(U, f, rcond=None)[0]
            s += np.linalg.lstsq(U, f - U @ s, rcond=None)[0]  # one refinement step
            if np.any(np.abs(s) / np.finfo(float).max > norms[cols]):
                p[j] = False  # a weight past the float range: the cycle cannot be taken
                break
            z[cols] = s / norms[cols]
            neg = cols[z[cols] <= 0.0]
            if neg.size == 0:
                break
            # y > 0 >= z on neg, except for the entering column (y_j = 0), whose
            # ratio 0 leaves y as it is and drops it again
            ratios = y[neg] / np.maximum(y[neg] - z[neg], 1e-300)
            k = int(np.argmin(ratios))
            y = y + ratios[k] * (z - y)
            y[neg[k]] = 0.0
            p &= y > 0.0
            y[~p] = 0.0
        if not p[j]:
            break
        # |r|^2 - |r_new|^2 from the step itself: subtracting the two squares
        # loses a decrease below eps |r|^2
        delta = E @ (z - x)
        if not float(delta @ (2.0 * r - delta)) > MNP_TOL * np.linalg.norm(delta) * np.sqrt(rr):
            break
        r = f - E @ z
        x, passive, rr = z, p, float(r @ r)
    return x, r


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
    basis = orthonormal_basis(M, rank_tol=max(M.shape) * eps).columns
    coords = M @ basis
    return _RowSpace(basis, coords, np.linalg.norm(coords, 2))


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
