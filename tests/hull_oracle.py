"""Shared test inputs and references for the hull and cone computations:
random point sets, the nearest point of a hull to the origin by enumeration,
block instances with a known split, and the max-margin direction that
``validate`` checks.  Not used by the package.
"""

import itertools

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from optray.margin import solve_dual


@st.composite
def point_sets(draw):
    """Up to 12 points in R^1..R^5, some of them copies, zeros or multiples of
    other points."""
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 5))
    P = draw(arrays(np.float64, (n, d), elements=st.floats(-2.0, 2.0)))
    for i in range(n):
        j = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(("keep", "copy", "zero", "multiple")))
        if kind == "copy":
            P[i] = P[j]
        elif kind == "zero":
            P[i] = 0.0
        elif kind == "multiple":
            P[i] = draw(st.floats(-3.0, 3.0)) * P[j]
    return P


def nearest_point_oracle(P):
    """min |P^T q| over the simplex by enumeration: the optimum is the nearest
    point of the affine hull of some support of at most d+1 rows, with
    nonnegative weights.  Every candidate is clipped onto the simplex, so each
    one is attained by a feasible q."""
    n, d = P.shape
    best = np.inf
    for k in range(1, min(n, d + 1) + 1):
        for support in itertools.combinations(range(n), k):
            Q = P[list(support)]
            kkt = np.ones((k + 1, k + 1))
            kkt[:k, :k] = Q @ Q.T
            kkt[k, k] = 0.0
            rhs = np.zeros(k + 1)
            rhs[k] = 1.0
            try:
                w = np.maximum(np.linalg.solve(kkt, rhs)[:k], 0.0)
            except np.linalg.LinAlgError:
                continue  # affinely dependent support: a smaller one covers it
            if np.isfinite(w).all() and w.sum() > 0.0:
                best = min(best, float(np.linalg.norm(Q.T @ (w / w.sum()))))
    return best


def block_rows(d, rank_s, n_sep, n_sc, seed):
    """n_sep rows that one unit vector orthogonal to a random rank_s subspace S
    separates, followed by n_sc rows of S centred under positive weights."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    basis_s, perp = q[:, :rank_s], q[:, rank_s:]
    coords = rng.standard_normal((n_sc, rank_s))
    weights = rng.uniform(0.2, 1.0, size=n_sc)
    coords -= weights @ coords / weights.sum()
    p = rng.standard_normal((n_sep, d - rank_s))
    p[:, 0] = -(0.2 + np.abs(p[:, 0]))
    sep = p @ perp.T + rng.standard_normal((n_sep, rank_s)) @ basis_s.T
    rows = np.vstack([sep, coords @ basis_s.T])
    return rows / (1.1 * np.linalg.norm(rows, axis=1).max())


def margin_direction(dec):
    """The direction ``validate`` checks a decomposition against, as
    ``pipeline.analyze`` passes it: the max-margin direction of its separable
    rows over the complement of S, or None when it has none."""
    return solve_dual(dec.a_perp).direction if dec.n_sep else None
