"""Orchestration: decompose, then solve both subproblems."""

from dataclasses import dataclass

import numpy as np

from .dataset import MarginMatrix
from .decompose import Decomposition, ValidationReport, partition, validate
from .margin import MarginSolution, solve_dual
from .strongconvex import ScOptimum, estimate_lambda, solve_vbar


@dataclass(eq=False)
class Structure:
    """Everything the verification checks need besides the trace itself."""

    matrix: MarginMatrix
    dec: Decomposition
    margin_sol: MarginSolution | None
    sc_opt: ScOptimum
    validation: ValidationReport

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def n_sep(self) -> int:
        return self.dec.n_sep

    @property
    def gamma(self) -> float:
        return self.margin_sol.margin if self.margin_sol is not None else np.nan

    @property
    def direction(self) -> np.ndarray | None:
        return self.margin_sol.direction if self.margin_sol is not None else None

    @property
    def offset(self) -> np.ndarray:
        return self.sc_opt.offset

    @property
    def curvature(self) -> float:
        return self.sc_opt.curvature

    @property
    def inf_risk(self) -> float:
        return self.sc_opt.risk_inf

    def sep_block(self) -> np.ndarray:
        return self.matrix.rows[self.dec.sep_rows]


def analyze(matrix: MarginMatrix, loss: str) -> Structure:
    """Partition the rows, solve the max-margin dual over the complement,
    check the split against that direction, and minimize the restricted risk
    over the span of the remainder."""
    dec = partition(matrix)
    margin_sol = solve_dual(dec.a_perp) if dec.n_sep > 0 else None
    report = validate(dec, matrix, None if margin_sol is None else margin_sol.direction)
    sc_opt = solve_vbar(matrix.rows[dec.sc_rows], dec.basis_s, loss, n_total=matrix.n)
    sc_opt.curvature = estimate_lambda(
        matrix.rows[dec.sc_rows], dec.basis_s, loss, sc_opt, n_total=matrix.n
    )
    return Structure(
        matrix=matrix,
        dec=dec,
        margin_sol=margin_sol,
        sc_opt=sc_opt,
        validation=report,
    )
