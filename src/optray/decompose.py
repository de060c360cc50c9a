"""Unique partition of the margin matrix into a strictly separable block and a
remainder whose restricted risk is strongly convex, by an iterated global
cone test.

A row i is separable when some u achieves A u <= 0 componentwise with
(A u)_i < 0.  By Gordan's alternative it is not exactly when -a_i lies in the
cone of the other rows: min_{q >= 0} |A_{-i}^T q + a_i| (linalg.nnls) is then
zero.  That residual is the largest margin -a_i^T u that a unit u holding
every other row at or below zero gives row i, and the row is separable when
it exceeds SLACK_TOL (`row_feasible`, the per-row oracle).

`partition` tests all rows at once.  One solve of
min_{p >= 0} |A_R^T (1 + p)| over the candidate rows R either leaves a
residual within SLACK_TOL, so that q = 1 + p >= 1 is a strictly positive
combination of R that vanishes (Stiemke) and every row of R is remainder, or
gives a unit direction holding R at or below zero; the rows it separates by
more than SLACK_TOL leave R, layer by layer as in Gordan's alternative, and
the solve repeats.  A round that separates no row falls back to one cone test
per row.  The remainder rows span the subspace S.

`validate` checks a finished split with one matrix product per certificate:
the max-margin direction of the separable rows projected off S, which
`margin.solve_dual` returns and the caller passes in, separates them while
holding the remainder at zero, and the Stiemke weights show that no
remainder row is separable.

`separable_certificate` and its boxed LP (lp.py) are not used by either.
"""

from dataclasses import dataclass, field

import numpy as np

from . import lp
from .errors import ValidationError
from .linalg import complement, nnls, orthonormal_basis, project

# a row is strictly separable when a unit direction holding every other row at
# or below zero gives it a margin above this
SLACK_TOL = 1e-7
BOX_SCALE = 10.0  # |u|_inf bound is BOX_SCALE * n, keeping the LP bounded


@dataclass(eq=False)
class Certificate:
    """Separating vector u with per-row slacks: A u <= -slacks componentwise."""

    u: np.ndarray
    slacks: np.ndarray

    def residual(self, A: np.ndarray) -> float:
        return float(np.max(A @ self.u + self.slacks))


@dataclass(eq=False)
class Decomposition:
    """Index partition (sep_rows, sc_rows), bases of S and its complement, the
    separable rows projected onto the complement, and positive weights under
    which the remainder rows sum to zero (decomposition.json leaves them out)."""

    sep_rows: np.ndarray
    sc_rows: np.ndarray
    basis_s: np.ndarray
    basis_perp: np.ndarray
    a_perp: np.ndarray
    sc_weights: np.ndarray = field(metadata={"json": False})

    @property
    def n_sep(self) -> int:
        return self.sep_rows.shape[0]

    @property
    def rank_s(self) -> int:
        return self.basis_s.shape[1]


def separable_certificate(A: np.ndarray, active) -> Certificate:
    """Maximize the total slack over the active rows.

    LP: max sum_{i in active} s_i  s.t.  (A u)_i <= -s_i for active i,
    (A u)_j <= 0 for every other row, 0 <= s <= 1, |u|_inf <= BOX_SCALE * n.
    Pinning the inactive rows at or below zero is what lets certificates
    aggregate: the returned u never sacrifices one row to free another.
    """
    active = np.asarray(sorted(active), dtype=np.int64)
    if active.size == 0:
        raise ValidationError("active row set must be nonempty")
    n, d = A.shape
    box = BOX_SCALE * n
    na = active.size
    # variables: u+ (d), u- (d), s (na)
    nvar = 2 * d + na
    rows_g = []
    rows_h = []
    pos = {int(i): k for k, i in enumerate(active)}
    for i in range(n):
        g = np.zeros(nvar)
        g[:d] = A[i]
        g[d : 2 * d] = -A[i]
        if i in pos:
            g[2 * d + pos[i]] = 1.0
        rows_g.append(g)
        rows_h.append(0.0)
    for k in range(2 * d):
        g = np.zeros(nvar)
        g[k] = 1.0
        rows_g.append(g)
        rows_h.append(box)
    for k in range(na):
        g = np.zeros(nvar)
        g[2 * d + k] = 1.0
        rows_g.append(g)
        rows_h.append(1.0)
    c = np.zeros(nvar)
    c[2 * d :] = 1.0
    res = lp.solve_max(c, np.array(rows_g), np.array(rows_h))
    u = res.x[:d] - res.x[d : 2 * d]
    slacks = np.zeros(n)
    slacks[active] = res.x[2 * d :]
    return Certificate(u=u, slacks=slacks)


def _cone_test(rows: np.ndarray, i: int) -> tuple[float, np.ndarray]:
    """Residual norm of min_{q >= 0} |rows_{-i}^T q + rows_i|, and the weight
    vector over all rows: q, with weight 1 on row i."""
    q, r = nnls(np.delete(rows, i, axis=0).T, -rows[i])
    return float(np.linalg.norm(r)), np.insert(q, i, 1.0)


def _cone_weights(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the rows that no direction separates from the others, and the
    sum of their weight vectors over n, by one cone test per row (a weight can
    come near the float range, where the plain sum would overflow)."""
    n = rows.shape[0]
    inside, weights = np.zeros(n, dtype=bool), np.zeros(n)
    for i in range(n):
        resid, lam = _cone_test(rows, i)
        if resid <= SLACK_TOL:
            inside[i] = True
            weights += lam / n
    return inside, weights


def _remainder(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the rows that no direction separates from the others, and
    Stiemke weights on them (zero elsewhere), by the iterated global cone test.

    Each round solves min_{p >= 0} |A_R^T (1 + p)| over the candidate rows R.
    A residual r within SLACK_TOL leaves R as the remainder with weights
    q = 1 + p >= 1.  Otherwise u = r / |r| holds R at or below zero (the KKT
    conditions of the solve), and the rows it gives a margin above SLACK_TOL
    are separable and leave R.  When a round drops no row, or u lifts a row
    above zero, the per-row tests (`_cone_weights`) decide instead.
    """
    inside = np.ones(rows.shape[0], dtype=bool)
    while inside.any():
        cand = rows[inside]
        p, r = nnls(cand.T, -cand.sum(axis=0))
        resid = float(np.linalg.norm(r))
        if resid <= SLACK_TOL:
            weights = np.zeros(rows.shape[0])
            weights[inside] = 1.0 + p
            return inside, weights
        margins = cand @ (r / resid)
        drop = margins < -SLACK_TOL
        if not drop.any() or margins.max() > 1e-12:
            return _cone_weights(rows)
        inside[np.flatnonzero(inside)[drop]] = False
    return inside, np.zeros(rows.shape[0])


def row_feasible(A: np.ndarray, i: int) -> bool:
    """Per-row oracle: can row i get strictly negative margin while every row
    stays at or below zero?  The cone test of row i alone."""
    if not 0 <= i < A.shape[0]:
        raise ValidationError(f"row index {i} out of range")
    return _cone_test(A, i)[0] > SLACK_TOL


def partition(A: np.ndarray) -> Decomposition:
    """Split the rows into the maximal strictly separable set and the rest.

    The iterated global cone test (`_remainder`) needs a few solves per input;
    the rows of each round are tested together, so the result does not depend
    on row order.  The remainder keeps the weights of the last solve (or of
    the per-row tests, when they decide) as its Stiemke weights.
    """
    inside, weights = _remainder(A)
    sep_rows, sc_rows = np.flatnonzero(~inside), np.flatnonzero(inside)
    basis_s = orthonormal_basis(A[sc_rows])
    basis_perp = complement(basis_s)
    return Decomposition(
        sep_rows=sep_rows,
        sc_rows=sc_rows,
        basis_s=basis_s,
        basis_perp=basis_perp,
        a_perp=np.ascontiguousarray(project(basis_perp, A[sep_rows])),
        sc_weights=weights[sc_rows],
    )


@dataclass(eq=False)
class ValidationReport:
    checks: dict

    @property
    def ok(self) -> bool:
        return all(passed for passed, _ in self.checks.values())


def validate(dec: Decomposition, A: np.ndarray, direction: np.ndarray | None) -> ValidationReport:
    """Check a decomposition against its defining properties, given the unit
    max-margin direction of its separable rows over the complement of S
    (None when it has none).

    (a) certificate: that direction separates every sep row by at least
        SLACK_TOL while holding the remainder at zero; (b) the remainder rows
        live entirely inside S; (c) stiemke: the remainder weights are
        strictly positive and their combination of the remainder rows nearly
        vanishes, so that no remainder row gets a margin above SLACK_TOL from
        a unit direction holding the others at or below zero.  (c) also puts
        the hull of the remainder in S-coordinates within SLACK_TOL / n_sc of
        the origin: the remainder admits no positive margin.
    """
    checks = {}
    if dec.sep_rows.size:
        worst_sep = float((A[dec.sep_rows] @ direction).max())
        ok_a = worst_sep <= -SLACK_TOL
        if dec.sc_rows.size:
            held = float(np.abs(A[dec.sc_rows] @ direction).max())
            ok_a = ok_a and held <= 1e-9
        else:
            held = 0.0
        checks["certificate"] = (ok_a, max(worst_sep + SLACK_TOL, held - 1e-9))
    else:
        checks["certificate"] = (True, 0.0)

    if dec.sc_rows.size and dec.basis_perp.shape[1] > 0:
        leak = float(np.abs(A[dec.sc_rows] @ dec.basis_perp).max())
        checks["remainder_in_span"] = (leak <= 1e-9, leak - 1e-9)
    else:
        checks["remainder_in_span"] = (True, 0.0)

    if dec.sc_rows.size:
        sc, q = A[dec.sc_rows], dec.sc_weights
        # a unit u with A_sc u <= 0 has q_k (A_sc u)_k >= q^T A_sc u >= -|A_sc^T q|
        leak = float(np.linalg.norm(sc.T @ q))
        bound = SLACK_TOL * float(q.min())
        checks["stiemke"] = (bound > 0.0 and leak <= bound, leak - bound)
    else:
        checks["stiemke"] = (True, 0.0)
    return ValidationReport(checks=checks)
