"""Decomposition, max-margin solvers, and convergence-bound verification for
gradient descent on logistic/exponential empirical risk."""

from .dataset import Dataset, MarginMatrix, load_csv, normalize, save_csv, synth, to_margin_matrix
from .decompose import Decomposition, partition, row_feasible, separable_certificate, validate
from .gd import GDTrace, ball_series, constrained_opt, grad, risk, run
from .linalg import complement, orthonormal_basis, project
from .margin import MarginSolution, primal_margin, solve_dual
from .pipeline import Structure, analyze
from .strongconvex import ScOptimum, estimate_lambda, solve_vbar
from .verify import CheckResult, VerificationReport, run_checks

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "Dataset",
    "Decomposition",
    "GDTrace",
    "MarginMatrix",
    "MarginSolution",
    "ScOptimum",
    "Structure",
    "VerificationReport",
    "analyze",
    "ball_series",
    "complement",
    "constrained_opt",
    "estimate_lambda",
    "grad",
    "load_csv",
    "normalize",
    "orthonormal_basis",
    "partition",
    "primal_margin",
    "project",
    "risk",
    "row_feasible",
    "run",
    "run_checks",
    "save_csv",
    "separable_certificate",
    "solve_dual",
    "solve_vbar",
    "synth",
    "to_margin_matrix",
    "validate",
]
