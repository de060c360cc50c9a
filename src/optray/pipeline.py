"""Orchestration: decompose, then solve both subproblems."""

from dataclasses import dataclass

import numpy as np

from .decompose import Decomposition, ValidationReport, partition, validate
from .errors import ValidationError
from .margin import MarginSolution, solve_dual
from .strongconvex import ScOptimum, estimate_lambda, solve_vbar

NORM_SLACK = 1e-12  # allowed overshoot of the unit-norm row bound


@dataclass(eq=False)
class Structure:
    """Everything the verification checks need besides the trace itself."""

    matrix: np.ndarray
    dec: Decomposition
    margin_sol: MarginSolution | None
    sc_opt: ScOptimum
    validation: ValidationReport

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

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
        return self.matrix[self.dec.sep_rows]


def analyze(matrix, loss: str) -> Structure:
    """Partition the rows of the margin matrix, solve the max-margin dual over
    the complement, check the split against that direction, and minimize the
    restricted risk over the span of the remainder.  The rows must have
    norms at most 1."""
    matrix = np.ascontiguousarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] < 1:
        raise ValidationError("rows must be a nonempty (n, d) array")
    norms = np.linalg.norm(matrix, axis=1)
    if not norms.max() <= 1.0 + NORM_SLACK:  # a nan row fails this too
        raise ValidationError(f"row norms must not exceed 1 (got {norms.max():.17g}); normalize first")
    dec = partition(matrix)
    margin_sol = solve_dual(dec.a_perp) if dec.n_sep > 0 else None
    report = validate(dec, matrix, None if margin_sol is None else margin_sol.direction)
    a_s, n = matrix[dec.sc_rows], matrix.shape[0]
    sc_opt = solve_vbar(a_s, dec.basis_s, loss, n_total=n)
    sc_opt.curvature = estimate_lambda(a_s, dec.basis_s, loss, sc_opt, n_total=n)
    return Structure(
        matrix=matrix,
        dec=dec,
        margin_sol=margin_sol,
        sc_opt=sc_opt,
        validation=report,
    )
