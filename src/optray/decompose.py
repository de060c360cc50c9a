"""Unique partition of the margin matrix into a strictly separable block and a
remainder whose restricted risk is strongly convex, by one cone test per row.

A row i is separable when some u achieves A u <= 0 componentwise with
(A u)_i < 0.  By Gordan's alternative it is not exactly when -a_i lies in the
cone of the other rows, so each row gets one nonnegative least-squares solve,
min_{q >= 0} |A_{-i}^T q + a_i| (linalg.nnls).  The residual r of that solve
is the largest margin -a_i^T u that a unit u holding every other row at or
below zero gives row i (u = -r / |r|), and the row is separable when it
exceeds SLACK_TOL.  The remainder rows span the subspace S.

`validate` checks a finished split with one matrix product per certificate:
the max-margin direction of the separable rows projected off S separates
them while holding the remainder at zero, and the summed weight vectors of
the remainder rows' cone tests form a strictly positive combination of the
remainder that vanishes (Stiemke), so that no remainder row is separable.

`separable_certificate` and its boxed LP (lp.py) are not used by either.
"""

from dataclasses import dataclass

import numpy as np

from . import lp
from .dataset import MarginMatrix
from .errors import ValidationError
from .linalg import Basis, complement, min_norm_point, nnls, orthonormal_basis

# a row is strictly separable when a unit direction holding every other row at
# or below zero gives it a margin above this
SLACK_TOL = 1e-7
BOX_SCALE = 10.0  # |u|_inf bound is BOX_SCALE * n, keeping the LP bounded


@dataclass(eq=False)
class Certificate:
    """Separating vector u with per-row slacks: A u <= -slacks componentwise."""

    u: np.ndarray
    slacks: np.ndarray

    def residual(self, A: MarginMatrix) -> float:
        return float(np.max(A.rows @ self.u + self.slacks))


@dataclass(eq=False)
class Decomposition:
    """Index partition (sep_rows, sc_rows), bases of S and its complement, the
    separable rows projected onto the complement, and positive weights under
    which the remainder rows sum to zero (None when not known: `validate`
    then derives them, and `to_dict` leaves them out)."""

    sep_rows: np.ndarray
    sc_rows: np.ndarray
    basis_s: Basis
    basis_perp: Basis
    a_perp: np.ndarray
    sc_weights: np.ndarray | None = None

    @property
    def n_sep(self) -> int:
        return self.sep_rows.shape[0]

    @property
    def rank_s(self) -> int:
        return self.basis_s.rank

    def to_dict(self) -> dict:
        return {
            "sep_rows": self.sep_rows.tolist(),
            "sc_rows": self.sc_rows.tolist(),
            "basis_s": self.basis_s.columns.tolist(),
            "basis_perp": self.basis_perp.columns.tolist(),
            "a_perp": self.a_perp.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Decomposition":
        return cls(
            sep_rows=np.asarray(data["sep_rows"], dtype=np.int64),
            sc_rows=np.asarray(data["sc_rows"], dtype=np.int64),
            basis_s=Basis(np.asarray(data["basis_s"], dtype=float)),
            basis_perp=Basis(np.asarray(data["basis_perp"], dtype=float)),
            a_perp=np.asarray(data["a_perp"], dtype=float),
        )


def separable_certificate(A: MarginMatrix, active) -> Certificate:
    """Maximize the total slack over the active rows.

    LP: max sum_{i in active} s_i  s.t.  (A u)_i <= -s_i for active i,
    (A u)_j <= 0 for every other row, 0 <= s <= 1, |u|_inf <= BOX_SCALE * n.
    Pinning the inactive rows at or below zero is what lets certificates
    aggregate: the returned u never sacrifices one row to free another.
    """
    active = np.asarray(sorted(active), dtype=np.int64)
    if active.size == 0:
        raise ValidationError("active row set must be nonempty")
    n, d = A.n, A.d
    box = BOX_SCALE * n
    na = active.size
    # variables: u+ (d), u- (d), s (na)
    nvar = 2 * d + na
    rows_g = []
    rows_h = []
    pos = {int(i): k for k, i in enumerate(active)}
    for i in range(n):
        g = np.zeros(nvar)
        g[:d] = A.rows[i]
        g[d : 2 * d] = -A.rows[i]
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


def _cone_weights(rows: np.ndarray, slack_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the rows that no direction separates from the others, and the
    sum of their weight vectors."""
    n = rows.shape[0]
    inside, weights = np.zeros(n, dtype=bool), np.zeros(n)
    for i in range(n):
        resid, lam = _cone_test(rows, i)
        if resid <= slack_tol:
            inside[i] = True
            weights += lam
    return inside, weights


def row_feasible(A: MarginMatrix, i: int, slack_tol: float = SLACK_TOL) -> bool:
    """Per-row oracle: can row i get strictly negative margin while every row
    stays at or below zero?  The cone test of row i alone."""
    if not 0 <= i < A.n:
        raise ValidationError(f"row index {i} out of range")
    return _cone_test(A.rows, i)[0] > slack_tol


def partition(A: MarginMatrix, slack_tol: float = SLACK_TOL) -> Decomposition:
    """Split the rows into the maximal strictly separable set and the rest.

    Each row is tested on its own against all the others, so the result does
    not depend on row order.  The remainder keeps the summed weight vectors
    of its rows' cone tests as its Stiemke weights.
    """
    d = A.d
    inside, weights = _cone_weights(A.rows, slack_tol)
    sep_rows, sc_rows = np.flatnonzero(~inside), np.flatnonzero(inside)
    basis_s = orthonormal_basis(A.rows[sc_rows] if sc_rows.size else np.zeros((0, d)))
    basis_perp = complement(basis_s)
    if sep_rows.size:
        a_perp = basis_perp.project(A.rows[sep_rows])
    else:
        a_perp = np.zeros((0, d))
    return Decomposition(
        sep_rows=sep_rows,
        sc_rows=sc_rows,
        basis_s=basis_s,
        basis_perp=basis_perp,
        a_perp=np.ascontiguousarray(a_perp),
        sc_weights=weights[sc_rows],
    )


@dataclass(eq=False)
class ValidationReport:
    checks: dict

    @property
    def ok(self) -> bool:
        return all(passed for passed, _ in self.checks.values())


def validate(dec: Decomposition, A: MarginMatrix, slack_tol: float = SLACK_TOL) -> ValidationReport:
    """Check a decomposition against its defining properties.

    (a) certificate: the max-margin direction of the sep rows projected onto
        the complement of S separates every sep row by at least slack_tol
        while holding the remainder at zero; (b) the remainder, viewed in
        S-coordinates, admits no positive margin; (c) the remainder rows live
        entirely inside S; (d) stiemke: the remainder weights are strictly
        positive and their combination of the remainder rows nearly vanishes,
        so that no remainder row gets a margin above slack_tol from a unit
        direction holding the others at or below zero.
    """
    checks = {}
    if dec.sep_rows.size:
        sep = A.rows[dec.sep_rows]
        x = min_norm_point(dec.basis_perp.project(sep))[1]
        gamma = float(np.linalg.norm(x))
        u = -x / gamma if gamma > 0.0 else x
        worst_sep = float((sep @ u).max())
        ok_a = worst_sep <= -slack_tol
        if dec.sc_rows.size:
            held = float(np.abs(A.rows[dec.sc_rows] @ u).max())
            ok_a = ok_a and held <= 1e-9
        else:
            held = 0.0
        checks["certificate"] = (ok_a, max(worst_sep + slack_tol, held - 1e-9))
    else:
        checks["certificate"] = (True, 0.0)

    if dec.sc_rows.size and dec.rank_s > 0:
        m_coords = A.rows[dec.sc_rows] @ dec.basis_s.columns
        resid = float(np.linalg.norm(min_norm_point(m_coords)[1]))
        checks["remainder_nonseparable"] = (resid <= 1e-6, resid - 1e-6)
    else:
        checks["remainder_nonseparable"] = (True, 0.0)

    if dec.sc_rows.size and dec.basis_perp.rank > 0:
        leak = float(np.abs(A.rows[dec.sc_rows] @ dec.basis_perp.columns).max())
        checks["remainder_in_span"] = (leak <= 1e-9, leak - 1e-9)
    else:
        checks["remainder_in_span"] = (True, 0.0)

    if dec.sc_rows.size:
        sc = A.rows[dec.sc_rows]
        q = dec.sc_weights if dec.sc_weights is not None else _cone_weights(sc, slack_tol)[1]
        # a unit u with A_sc u <= 0 has q_k (A_sc u)_k >= q^T A_sc u >= -|A_sc^T q|
        leak = float(np.linalg.norm(sc.T @ q))
        bound = slack_tol * float(q.min())
        checks["stiemke"] = (bound > 0.0 and leak <= bound, leak - bound)
    else:
        checks["stiemke"] = (True, 0.0)
    return ValidationReport(checks=checks)
