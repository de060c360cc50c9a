"""Unique partition of the margin matrix into a strictly separable block and a
remainder whose restricted risk is strongly convex, via LP certificates.

A row i is separable when some u achieves A u <= 0 componentwise with
(A u)_i < 0.  The partition solves an aggregate certificate LP over the
still-unclassified rows, moves every row that attains slack above
SLACK_TOL, and repeats; the leftover rows span the subspace S.
"""

from dataclasses import dataclass

import numpy as np

from . import lp
from .dataset import MarginMatrix
from .errors import ValidationError
from .linalg import Basis, complement, min_norm_point, orthonormal_basis

SLACK_TOL = 1e-7  # slack above this classifies a row as strictly separable
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
    """Index partition (sep_rows, sc_rows), bases of S and its complement, and
    the separable rows projected onto the complement."""

    sep_rows: np.ndarray
    sc_rows: np.ndarray
    basis_s: Basis
    basis_perp: Basis
    a_perp: np.ndarray

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


def row_feasible(A: MarginMatrix, i: int, slack_tol: float = SLACK_TOL) -> bool:
    """Per-row oracle: can row i get strictly negative margin while every row
    stays at or below zero?  Solves the single-row LP directly."""
    if not 0 <= i < A.n:
        raise ValidationError(f"row index {i} out of range")
    cert = separable_certificate(A, [i])
    return float(cert.slacks[i]) > slack_tol


def partition(A: MarginMatrix, slack_tol: float = SLACK_TOL) -> Decomposition:
    """Split the rows into the maximal strictly separable set and the rest.

    Iterates the aggregate certificate LP because a single solve can leave a
    genuinely separable row at zero slack when the box bound binds; re-solving
    on the smaller active set recovers it.  The result does not depend on row
    order.
    """
    n, d = A.n, A.d
    remaining = list(range(n))
    sep: list[int] = []
    while remaining:
        cert = separable_certificate(A, remaining)
        moved = [i for i in remaining if cert.slacks[i] > slack_tol]
        if not moved:
            break
        sep.extend(moved)
        remaining = [i for i in remaining if i not in set(moved)]
    sep_rows = np.array(sorted(sep), dtype=np.int64)
    sc_rows = np.array(sorted(remaining), dtype=np.int64)
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
    )


@dataclass(eq=False)
class ValidationReport:
    checks: dict

    @property
    def ok(self) -> bool:
        return all(passed for passed, _ in self.checks.values())


def validate(dec: Decomposition, A: MarginMatrix, slack_tol: float = SLACK_TOL) -> ValidationReport:
    """Check a decomposition against its defining properties.

    (a) one certificate separates every sep row strictly while holding the
        remainder at zero; (b) the remainder, viewed in S-coordinates, admits
        no positive margin; (c) the remainder rows live entirely inside S.
    """
    checks = {}
    if dec.sep_rows.size:
        cert = separable_certificate(A, dec.sep_rows)
        margins = A.rows[dec.sep_rows] @ cert.u
        worst_sep = float(margins.max())
        ok_a = worst_sep <= -slack_tol
        if dec.sc_rows.size:
            held = float(np.abs(A.rows[dec.sc_rows] @ cert.u).max())
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
    return ValidationReport(checks=checks)
