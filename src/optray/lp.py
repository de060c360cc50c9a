"""Self-contained dense simplex solver for the small separability LPs.

Solves   maximize c.x   subject to  G x <= h,  x >= 0,  with h >= 0.

The nonnegative right-hand side makes the all-slack basis feasible, so no
phase-1 is needed.  Bland's rule (lowest index entering and leaving) keeps
the method from cycling on the highly degenerate certificates this package
generates (many constraints with zero right-hand side).  A returned point is
checked against the constraints, so a pivot sequence that lost feasibility
raises LPError instead of passing an infeasible point off as optimal.
"""

from dataclasses import dataclass

import numpy as np

from .errors import LPError

PIVOT_TOL = 1e-11
FEAS_TOL = 1e-11  # allowed constraint violation, relative to 1 + max(h)
MAX_PIVOTS = 100_000


@dataclass(eq=False)
class LPResult:
    x: np.ndarray
    objective: float
    iterations: int


def solve_max(c: np.ndarray, G: np.ndarray, h: np.ndarray) -> LPResult:
    c = np.asarray(c, dtype=float)
    G = np.asarray(G, dtype=float)
    h = np.asarray(h, dtype=float)
    m, nvar = G.shape
    if c.shape[0] != nvar or h.shape[0] != m:
        raise ValueError("inconsistent LP dimensions")
    if np.any(h < 0):
        raise ValueError("solve_max requires h >= 0")

    # tableau: [G | I | h], reduced-cost row for minimizing -c.x
    tab = np.zeros((m + 1, nvar + m + 1))
    tab[:m, :nvar] = G
    tab[:m, nvar : nvar + m] = np.eye(m)
    tab[:m, -1] = h
    tab[m, :nvar] = -c
    basis = np.arange(nvar, nvar + m)

    for it in range(MAX_PIVOTS):
        reduced = tab[m, : nvar + m]
        entering = -1
        for j in range(nvar + m):
            if reduced[j] < -PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            x = np.zeros(nvar + m)
            x[basis] = tab[:m, -1]
            x = x[:nvar]
            viol = max(float(np.max(G @ x - h, initial=0.0)), float(np.max(-x, initial=0.0)))
            if viol > FEAS_TOL * (1.0 + float(np.max(h, initial=0.0))):
                raise LPError(f"simplex returned an infeasible point (violation {viol:.3e})", it)
            return LPResult(x, float(tab[m, -1]), it)

        col = tab[:m, entering]
        leaving = -1
        best_ratio = np.inf
        for i in range(m):
            if col[i] > PIVOT_TOL:
                ratio = tab[i, -1] / col[i]
                if ratio < best_ratio - PIVOT_TOL or (
                    abs(ratio - best_ratio) <= PIVOT_TOL
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            # our LPs are always box-bounded, so this indicates a caller bug
            raise LPError("LP is unbounded", iterations=it)

        piv = tab[leaving, entering]
        tab[leaving, :] /= piv
        for i in range(m + 1):
            if i != leaving and tab[i, entering] != 0.0:
                tab[i, :] -= tab[i, entering] * tab[leaving, :]
        basis[leaving] = entering

    raise LPError(f"simplex did not terminate in {MAX_PIVOTS} pivots", iterations=MAX_PIVOTS)
