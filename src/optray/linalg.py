"""Small dense linear algebra: orthonormal bases, projections, the simplex
projection, and the nearest point of a polytope to the origin."""

from dataclasses import dataclass

import numpy as np

DEFAULT_RANK_TOL = 1e-10
# Wolfe's stopping rule: no row improves on x by more than this times |x| max |P_i|
MNP_TOL = 1e-15


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


def project(basis: Basis, w: np.ndarray) -> np.ndarray:
    """Projection of a single vector onto the subspace spanned by basis."""
    w = np.asarray(w, dtype=float)
    if w.shape[0] != basis.dim:
        raise ValueError(f"dimension mismatch: vector has {w.shape[0]}, basis {basis.dim}")
    return basis.columns @ (basis.columns.T @ w)


def simplex_project(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex {q >= 0, sum q = 1}."""
    v = np.ascontiguousarray(v, dtype=float)
    if v.ndim != 1 or v.shape[0] < 1:
        raise ValueError("expected a nonempty 1-D vector")
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = 0
    for k in range(v.shape[0]):
        if u[k] * (k + 1) > css[k] - 1.0:
            rho = k
    tau = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


def min_norm_point(P: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Point x of the convex hull of the rows of P nearest the origin.

    Wolfe's algorithm (P. Wolfe, Finding the nearest point in a polytope,
    Math. Programming 11, 1976): each major cycle adds the row that most
    violates the optimality condition min_i (P x)_i >= |x|^2 to a corral of
    rows, then minor cycles move x to the nearest point of the corral's hull.
    It stops once no row violates the condition by more than
    MNP_TOL |x| max_i |P_i|, or when only rounding drives a cycle (the row
    is already in the corral, or |x| fails to shrink).  Returns (q, x,
    iterations): simplex weights q, x = P^T q, and the number of major cycles.
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
        if not xx_new < xx:
            break
        corral, lam, x, xx = c, w, x_new, xx_new
    q = np.zeros(n)
    q[corral] = lam
    return q, P.T @ q, iterations
