"""Small dense linear algebra: orthonormal bases (a subspace of R^d is the
(d, r) array of its orthonormal columns), projections, nonnegative least
squares (the one active-set solver: the partition's cone tests and the
max-margin dual in least-distance form both reduce to it), and the
minimizers of the empirical risk over balls."""

import numpy as np

from . import _kernels
from .errors import ConvergenceError

DEFAULT_RANK_TOL = 1e-10
# stopping rule of nnls: no column's gradient exceeds this times its norm times
# the residual's
NNLS_TOL = 1e-15
# stopping rule of minimize_risk: the unit-step natural residual reaches this
RESIDUAL_TOL = 1e-10
# Newton iterations of minimize_risk before it gives up
NEWTON_MAX_ITERS = 200
# trial points of one line search before it gives up
LINE_SEARCH_STEPS = 60


def project(basis: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Orthogonal projection of w (or rows of w) onto the span of basis."""
    return (w @ basis) @ basis.T


def _canonical_signs(cols: np.ndarray) -> np.ndarray:
    # fix SVD sign ambiguity so bases are deterministic
    out = cols.copy()
    for j in range(out.shape[1]):
        i = int(np.argmax(np.abs(out[:, j])))
        if out[i, j] < 0:
            out[:, j] = -out[:, j]
    return out


def orthonormal_basis(vectors: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal basis of span(vectors), vectors given as rows of an (m, d) array.

    Directions whose singular value is <= rank_tol times the largest one are
    dropped.  An empty (0, d) or a zero input yields the rank-0 basis.
    """
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    m_rows = np.asarray(vectors, dtype=float)
    if m_rows.ndim != 2:
        raise ValueError("vectors must be a 2-D array with one vector per row")
    _, svals, vt = np.linalg.svd(m_rows, full_matrices=False)
    if svals.size == 0 or svals[0] <= 0.0:
        return np.zeros((m_rows.shape[1], 0))
    keep = svals > rank_tol * svals[0]
    return _canonical_signs(vt[keep].T)


def complement(basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement: the last d - r right
    singular vectors of basis.T (all of I_d for r = 0, none for r = d)."""
    _, _, vt = np.linalg.svd(basis.T, full_matrices=True)
    return _canonical_signs(vt[basis.shape[1] :].T)


def nnls(E: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x >= 0 minimizing |E x - f|.

    The active-set method of Lawson and Hanson (Solving Least Squares
    Problems, 1974, ch. 23): each major cycle moves the column of largest
    gradient w_j = E_j^T (f - E x) into the passive set,
    then minor cycles solve least squares on the passive columns and, while
    some of its weights are not positive, step from x toward that solution
    until a weight reaches zero and drop that column.  It stops once no
    column has w_j > NNLS_TOL |E_j| |f - E x|, when only rounding drives a
    cycle (the entering column gets no weight, or the squared residual
    shrinks by no more than NNLS_TOL |E (z - x)| |f - E x|).  An entering
    column whose weight would pass the float range is set aside and the
    column of next largest gradient tried, as Lawson and Hanson do; the
    columns set aside may enter again once x changes.  Every step works on
    the columns scaled to unit norm: the entering column is the one of
    largest w_j / |E_j|, and the least-squares solve, refined once, does not
    let lstsq's rank cutoff drop a column many orders of magnitude shorter
    than the others.  Zero columns never enter.  Returns (x, r), r = f - E x.
    """
    E = np.asarray(E, dtype=float)
    f = np.asarray(f, dtype=float)
    if E.ndim != 2 or f.shape != (E.shape[0],):
        raise ValueError("expected a (d, m) matrix and a length-d vector")
    m = E.shape[1]
    norms = np.hypot.reduce(E, axis=0)  # no underflow for tiny columns
    unit = np.divide(E, norms, out=np.zeros_like(E), where=norms > 0.0)
    x, passive, aside = np.zeros(m), np.zeros(m, dtype=bool), np.zeros(m, dtype=bool)
    r, rr = f, float(f @ f)
    while not passive.all():
        g = unit.T @ r  # w_j / |E_j|
        entering = ~passive & ~aside & (g > NNLS_TOL * np.sqrt(rr))
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
            with np.errstate(over="ignore"):
                z[cols] = s / norms[cols]
            if np.isinf(z[cols]).any():
                aside[j] = True  # a weight past the float range: try the next column
                break
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
        if aside[j]:
            continue
        if not p[j]:
            break
        # |r|^2 - |r_new|^2 from the step itself: subtracting the two squares
        # loses a decrease below eps |r|^2
        delta = E @ (z - x)
        if not float(delta @ (2.0 * r - delta)) > NNLS_TOL * np.linalg.norm(delta) * np.sqrt(rr):
            break
        r = f - E @ z
        x, passive, rr = z, p, float(r @ r)
        aside[:] = False
    return x, r


def _norms(X: np.ndarray) -> np.ndarray:
    """|x| of every row x of X, with the bits of np.linalg.norm of x alone."""
    return np.sqrt(np.vecdot(X, X))


def _ball_multipliers(lam: np.ndarray, beta: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Smallest mu >= 0 with |v(mu)| = |beta / (lam + mu)| <= radius, for
    every row of ascending lam > 0, its row of beta and its radius.

    mu = 0 when v(0) fits in the ball.  Otherwise mu solves the secular
    equation 1/|v(mu)| = 1/radius, whose left side is increasing and concave,
    by Newton's method inside the bracket [|beta|/radius - lam_max,
    |beta|/radius - lam_min], bisecting whenever a Newton step would leave it.
    A row stops once |v(mu)| is within 1e-14 radius, or after 100 steps.
    """
    mu = np.zeros(radii.shape)
    outside = _norms(beta / lam) > radii
    count = np.count_nonzero(outside)
    if not count:
        return mu
    rows, radius = outside.nonzero()[0], radii
    if count < outside.size:
        lam, beta, radius = lam[rows], beta[rows], radii[rows]
    bn = _norms(beta) / radius
    lo, hi = bn - lam[:, -1], bn - lam[:, 0]
    lo[lo < 0.0] = 0.0
    m, inv_radius, near_radius = hi.copy(), 1.0 / radius, 1e-14 * radius
    for _ in range(100):
        t = lam + m[:, None]
        q = beta / t
        vn = _norms(q)
        near = np.abs(vn - radius) <= near_radius
        if np.count_nonzero(near):
            mu[rows[near]] = m[near]
            if near.all():
                return mu
            far = ~near
            rows, lam, beta, radius, inv_radius, near_radius, m, lo, hi, t, q, vn = (
                x[far]
                for x in (rows, lam, beta, radius, inv_radius, near_radius, m, lo, hi, t, q, vn)
            )
        past = vn > radius
        np.putmask(lo, past, m)
        np.putmask(hi, ~past, m)
        # vn**3 in Python floats: numpy's power rounds differently from pow()
        cube = np.array([v**3 for v in vn.tolist()])
        trial = m - (1.0 / vn - inv_radius) * cube / np.vecdot(q, q / t)
        inside = (lo < trial) & (trial < hi)
        m = 0.5 * (lo + hi)
        np.putmask(m, inside, trial)
    mu[rows] = m
    return mu


def minimize_risk(
    M: np.ndarray,
    loss_code: int,
    n_total: int,
    radii: np.ndarray,
    w0: np.ndarray,
    tol: float = RESIDUAL_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimizers of R(w) = sum_i loss((M w)_i) / n_total over the balls
    |w| <= radii[k], from the starts w0[k] (K, d), in one batched solve.

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
    problem on the same path: its mu is 0 and its iterate is never rescaled.

    The iteration runs in an orthonormal basis of the row space of M, where
    R is strictly convex and which holds every minimizer of least norm; w0
    is projected onto it (then scaled into the ball), and so is the answer.
    A radius stops when the unit-step natural residual |w - P(w - grad R(w))|
    reaches tol, where P projects onto the ball (|grad R(w)| for an infinite
    radius).  It fails after NEWTON_MAX_ITERS iterations, when a line search
    finds no descent, or at once when tol lies below the rounding floor
    eps |M|_2^2 |w| / n_total of the gradient at w: rounding M w moves each
    margin by up to about eps |M_i| |w|, so the computed gradient is known
    only to about that floor, and the iterations that remain would chase
    rounding noise.

    Each radius is a slot of one iteration: every product is a stacked
    matvec or vecdot, which makes the BLAS call of one slot's product once
    per slot (a flat gemm over the slots rounds differently), the Hessians
    go through one stacked eigh, and the secular equation and the line
    search run over the slots still active; a slot leaves once it stops.  No
    slot depends on another, and each has the bits of a batch of one.
    Returns (w (K, d), iterations (K,)); when some slot fails, raises the
    ConvergenceError of the first one.
    """
    eps = np.finfo(float).eps
    basis = orthonormal_basis(M, rank_tol=max(M.shape) * eps)
    M = M @ basis
    MT = M.T
    floor_scale = eps * (np.linalg.norm(M, 2) ** 2 / n_total)
    radius = np.asarray(radii, dtype=float)
    w = np.matvec(basis.T, np.asarray(w0, dtype=float))
    nw = _norms(w)
    over = nw > radius
    if np.count_nonzero(over):
        w[over] *= (radius[over] / nw[over])[:, None]
    out, iters = np.zeros((radius.shape[0], basis.shape[0])), np.zeros(radius.shape[0], dtype=int)
    slots, error = np.arange(radius.shape[0]), None
    if not slots.size:
        return out, iters
    for it in range(NEWTON_MAX_ITERS):
        z = np.matvec(M, w)
        der = _kernels.loss_derivs(z, loss_code)
        g = np.matvec(MT, der) / n_total
        # |g| itself inside the ball, where w - (w - g) could round g away
        res = _norms(g)
        p = w - g
        cn = _norms(p)
        onto = cn > radius
        if np.count_nonzero(onto):
            res[onto] = _norms(w[onto] - p[onto] * (radius[onto] / cn[onto])[:, None])
        floor = floor_scale * _norms(w)
        leave, failed = res <= tol, floor > tol
        if np.count_nonzero(leave) or np.count_nonzero(failed):
            out[slots[leave]] = np.matvec(basis, w[leave])
            iters[slots[leave]] = it
            failed &= ~leave
            if np.count_nonzero(failed):
                # the slots from the first failure on no longer decide the outcome
                j = int(np.argmax(failed))
                error = ConvergenceError(
                    f"tol {tol:.1e} lies below the gradient's rounding floor {floor[j]:.1e} "
                    f"(eps |M|^2 |w| / n) at iteration {it}; residual {res[j]:.1e}",
                    best=float(res[j]),
                    iterations=it,
                )
                leave[j:] = True
            keep = ~leave
            if not np.count_nonzero(keep):
                break
            slots, radius, w, z, g = (x[keep] for x in (slots, radius, w, z, g))
        curv = _kernels.loss_curvs(z, loss_code)
        lam, Q = np.linalg.eigh(np.matmul(MT * curv[:, None, :], M) / n_total)
        # curvature below what eigh resolves is raised to that resolution: the
        # shortest step the data allows along such a direction
        lam = np.maximum(lam, eps * lam[:, -1:])
        QT = Q.transpose(0, 2, 1)
        c, gam = np.matvec(QT, w), np.matvec(QT, g)
        mu = _ball_multipliers(lam, lam * c - gam, radius)
        # the step s = -(H + mu I)^-1 (g + mu w), in the eigenbasis
        mus = mu[:, None]
        shifted = lam + mus
        sig = -(gam + mus * c) / shifted
        s = np.matvec(Q, sig)
        # slope of the Lagrangian R + mu |w|^2 / 2 along the step; it starts at
        # -s^T (H + mu I) s < 0, and the mu term cancels the part of grad R that
        # the ball absorbs, whose product with the rounding error of s would
        # otherwise swamp the slope near the boundary
        ms = np.matvec(M, s)
        alpha, stuck = _line_search(
            z, ms, np.vecdot(w, s), np.vecdot(s, s), mu, sig, shifted, loss_code, n_total
        )
        if stuck.size:
            error = ConvergenceError(
                f"no descent along the Newton step at iteration {it}", iterations=it
            )
            keep = slice(stuck[0])
            slots, radius, w, s, alpha, mu = (x[keep] for x in (slots, radius, w, s, alpha, mu))
            if slots.size == 0:
                break
        w = w + alpha[:, None] * s
        nw = _norms(w)
        # mu > 0 puts the model's answer on the sphere, where R falls
        # outward; a shortened step along the chord would end inside it.  An
        # iterate exactly at the origin has no direction to rescale along
        onto = (nw > radius) | ((mu > 0.0) & (nw > 0.0))
        if np.count_nonzero(onto):
            w[onto] *= (radius[onto] / nw[onto])[:, None]
    else:
        error = ConvergenceError(
            f"risk minimization did not reach tol {tol:.1e} in {NEWTON_MAX_ITERS} iterations",
            iterations=NEWTON_MAX_ITERS,
        )
    if error is not None:
        raise error
    return out, iters


def _line_search(z, ms, ws, ss, mu, sig, shifted, loss_code, n_total):
    """Step lengths alpha along each row's Newton step s at which the slope
    of the Lagrangian, ms @ loss'(z + alpha ms) / n_total + mu (ws + alpha ss),
    is still <= 0, and the rows that find none in LINE_SEARCH_STEPS trials.

    The first retry goes to the root of the secant of the slope from its
    start, -sig^T diag(shifted) sig (sig is the step in the Hessian's
    eigenbasis, where H + mu I is diag(shifted)), when that root lies above
    1/2; near the solution it lies just short of 1, which keeps the
    convergence quadratic.  Every other retry halves alpha.
    """
    alpha = np.ones(z.shape[0])
    rows, a = np.arange(z.shape[0]), alpha
    for trial in range(LINE_SEARCH_STEPS):
        lp = _kernels.loss_derivs(z + a[:, None] * ms, loss_code)
        slope = np.vecdot(ms, lp) / n_total + mu * (ws + a * ss)
        descent = slope <= 0.0
        descent &= -np.inf < slope
        found = np.count_nonzero(descent)
        if found == rows.size:
            return alpha, rows[:0]
        if found:
            # the rows past the minimum along the step retry
            past = ~descent
            rows, a, slope, z, ms, ws, ss, mu, sig, shifted = (
                x[past] for x in (rows, a, slope, z, ms, ws, ss, mu, sig, shifted)
            )
        secant = 0.0
        if trial == 0:
            slope0 = -np.vecdot(sig**2, shifted)
            secant = np.where(np.isfinite(slope), slope0 / (slope0 - slope), 0.0)
        half = 0.5 * a
        a = np.where(half > secant, half, secant)
        alpha[rows] = a
    return alpha, rows
