"""Runtime verification of the provable trajectory bounds.

Each check evaluates one inequality along a recorded trace, against the
structural objects (margin, direction, bounded optimum, infimal risk,
curvature estimate), and reports the worst slack (bound minus quantity)
with the checkpoint or step where it occurs.  Checks are pure functions of
their inputs; re-running them on the same trace reproduces the report.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .gd import GDTrace, _loss_code, ball_series
from .jsonio import write_json
from .linalg import RESIDUAL_TOL, _norms, project
from .margin import GAP_TOL
from .pipeline import Structure

NUMERIC_ATOL = 1e-9
NUMERIC_RTOL = 1e-12

LOG_APPROX_EPS_GRID = (1.0, 0.5, 0.1, 0.01)
LOG_APPROX_ULPS = 8  # steps inside the boundary of {loss <= eps}, at most
NORM_BOUNDS_MIN_T = 10
# fenchel_young applies from excess risk FY_EPS / n on; gen_iter applies from
# excess min(GEN_EPS / n, curvature (1 - GEN_CONTRACTION) / 2) on, at the
# contraction rate GEN_CONTRACTION (1 - GEN_EPS) margin per unit of descent
FY_EPS = 1.0
GEN_EPS = 0.3
GEN_CONTRACTION = 0.9


@dataclass(eq=False)
class CheckResult:
    name: str
    holds: bool
    worst_slack: float
    location: int
    applicable: bool = True
    note: str = ""


@dataclass(eq=False)
class TrendFit:
    name: str
    exponent: float
    coefficient: float
    residual: float


@dataclass(eq=False)
class VerificationReport:
    meta: dict
    checks: list
    trends: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.holds for c in self.checks if c.applicable)

    def failed_names(self) -> list:
        return [c.name for c in self.checks if c.applicable and not c.holds]

    def to_json(self, path) -> None:
        write_json(path, self)


def _from_slacks(name, slack, quantity, locations, note="") -> CheckResult:
    slack = np.asarray(slack, dtype=float)
    if slack.size == 0:
        return CheckResult(name, True, np.inf, -1, note=note or "no evaluation points")
    tol = NUMERIC_ATOL + NUMERIC_RTOL * np.abs(np.asarray(quantity, dtype=float))
    holds = bool(np.all(slack >= -tol))
    k = int(np.argmin(slack))
    return CheckResult(name, holds, float(slack[k]), int(locations[k]), note=note)


def _na(name, note) -> CheckResult:
    return CheckResult(name, True, np.inf, -1, applicable=False, note=note)


def thm_risk_bound(structure: Structure, ts, sum_eta) -> np.ndarray:
    """Bound on the excess risk at step t: exp(|offset|)/t plus
    (|offset|^2 + ln(t)^2/margin^2) / (2 sum of steps); the margin term is
    dropped when there is no separable block."""
    ts = np.asarray(ts, dtype=float)
    vnorm = float(np.linalg.norm(structure.offset))
    num = vnorm**2
    if structure.n_sep > 0:
        num = num + np.log(ts) ** 2 / structure.gamma**2
    return np.exp(vnorm) / ts + num / (2.0 * np.asarray(sum_eta, dtype=float))


def check_risk_bound(trace: GDTrace, structure: Structure) -> CheckResult:
    excess = trace.risk - structure.inf_risk
    bound = thm_risk_bound(structure, trace.ts, trace.sum_eta)
    return _from_slacks("risk_bound", bound - excess, excess, trace.ts)


def check_smoothness(trace: GDTrace) -> CheckResult:
    r = trace.risk_steps
    pred = r[:-1] * (1.0 - _kernels.descent_terms(trace.eff_steps[:-1], trace.rel_steps[:-1]))
    slack = pred - r[1:]
    return _from_slacks("smoothness", slack, r[1:], np.arange(1, r.size))


def check_log_risk_telescope(trace: GDTrace) -> CheckResult:
    lhs = np.log(trace.risk)
    bound = np.log(trace.risk_steps[0]) - trace.sum_tele
    return _from_slacks("log_risk_telescope", bound - lhs, lhs, trace.ts)


def check_norm_bounds(trace: GDTrace, structure: Structure) -> CheckResult:
    if structure.n_sep == 0:
        return _na("norm_bounds", "no separable block")
    sel = trace.ts >= NORM_BOUNDS_MIN_T
    if not np.any(sel):
        return _na("norm_bounds", f"no checkpoints at t >= {NORM_BOUNDS_MIN_T}")
    ts = trace.ts[sel].astype(float)
    nw = trace.norm_w[sel]
    rr = trace.sup_proj_s[sel]
    g2 = structure.gamma**2
    vnorm = float(np.linalg.norm(structure.offset))
    upper = np.maximum(np.maximum(4.0 * np.log(ts) / g2, 4.0 * rr / g2), 2.0)
    with np.errstate(divide="ignore"):
        second = np.log(trace.sum_eta[sel]) - np.log(vnorm**2 + np.log(ts) ** 2 / g2)
    lower = (
        np.minimum(np.log(ts) - np.log(2.0) - vnorm, second)
        - rr
        + np.log(np.log(2.0))
        - np.log(structure.n / structure.n_sep)
    )
    slack = np.minimum(upper - nw, nw - lower)
    return _from_slacks("norm_bounds", slack, nw, trace.ts[sel])


def check_perceptron_norm(trace: GDTrace) -> CheckResult:
    slack = trace.perceptron_sum - trace.proj_perp_norm
    return _from_slacks("perceptron_norm", slack, trace.proj_perp_norm, trace.ts)


def check_param_s(trace: GDTrace, structure: Structure, wbar: np.ndarray) -> CheckResult:
    if structure.dec.rank_s == 0:
        return _na("param_s", "span of the remainder is trivial")
    lam = structure.curvature
    bound = (2.0 / lam) * np.minimum(1.0, thm_risk_bound(structure, trace.ts, trace.sum_eta))
    err_w = np.linalg.norm(trace.proj_s - structure.offset, axis=1) ** 2
    err_b = np.linalg.norm(project(structure.dec.basis_s, wbar) - structure.offset, axis=1) ** 2
    slack = np.minimum(bound - err_w, bound - err_b)
    quantity = np.maximum(err_w, err_b)
    return _from_slacks(
        "param_s", slack, quantity, trace.ts, note="estimate-conditioned (sampled curvature)"
    )


def direction_threshold(trace: GDTrace, structure: Structure) -> tuple[np.ndarray, str]:
    """Warm-start qualification per case: fully separable data with unit steps
    uses t/ln(t)^3 >= n/margin^4; the decaying schedule uses
    sqrt(t)/ln(t)^3 >= n(1+R)/margin^2 with R the sup of |proj_S w_j|."""
    ts = trace.ts.astype(float)
    g = structure.gamma
    fully_separable = structure.dec.sc_rows.size == 0
    with np.errstate(divide="ignore"):
        lt3 = np.log(ts) ** 3
        if trace.schedule == "constant_one" and fully_separable:
            ok = (ts >= 5) & (ts / lt3 >= structure.n / g**4)
            return ok, "separable"
        if trace.schedule == "inv_sqrt":
            big_r = float(trace.sup_proj_s[-1])
            ok = (ts >= 5) & (np.sqrt(ts) / lt3 >= structure.n * (1.0 + big_r) / g**2)
            return ok, "general"
    return np.zeros(trace.k, dtype=bool), "none"


def _dir_err_sq(vecs: np.ndarray, direction: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(vecs, axis=1)
    safe = np.where(norms == 0.0, 1.0, norms)
    unit = vecs / safe[:, None]
    return np.linalg.norm(unit - direction, axis=1) ** 2


def check_direction(
    trace: GDTrace, structure: Structure, wbar: np.ndarray
) -> tuple[CheckResult, TrendFit | None]:
    if structure.n_sep == 0:
        return _na("direction", "no separable block"), None
    qual, case = direction_threshold(trace, structure)
    if case == "none":
        return _na("direction", "no convergence case covers this schedule/data pair"), None
    qual &= trace.norm_w > 0
    if not np.any(qual):
        return _na("direction", f"warm start never reached ({case} case) within T"), None
    ts = trace.ts[qual]
    # monotone decrease past the warm start: row 0 the iterates, row 1 the
    # ball-constrained optima
    err = np.stack([_dir_err_sq(v[qual], structure.direction) for v in (trace.w, wbar)])
    if ts.size >= 2:
        slack = (err[:, :-1] - err[:, 1:]).ravel()
        loc, quantity = np.tile(ts[1:], 2), err[:, 1:].ravel()
    else:
        slack, loc, quantity = np.array([0.0]), ts, err[0]
    result = _from_slacks("direction", slack, quantity, loc, note=f"{case} case")
    shape = (np.log(structure.n) + np.log(np.log(ts))) / (structure.gamma**2 * np.log(ts))
    trend = fit_trend("direction_rate", ts, err[0], shape)
    return result, trend


def check_fenchel_young(trace: GDTrace, structure: Structure, wbar: np.ndarray) -> CheckResult:
    if structure.n_sep == 0:
        return _na("fenchel_young", "no separable block")
    excess = trace.risk - structure.inf_risk
    qual = excess <= FY_EPS / structure.n
    if not np.any(qual):
        note = f"no checkpoint with excess risk <= {FY_EPS / structure.n:.3e}"
        t_star = _estimate_first_qualifying(trace, excess, FY_EPS / structure.n)
        if t_star is not None:
            note += f"; extrapolated first qualifying t ~ {t_star:.2e}"
        return _na("fenchel_young", note)
    q = structure.margin_sol.dual_weights
    ent = float(np.sum(q[q > 0] * np.log(q[q > 0])))
    # each q_i <= 1, so ent <= 0 and g_star <= ln n
    g_star = np.log(structure.n) + ent
    # the iterates, then the ball-constrained optima
    vecs = np.concatenate([trace.w[qual], wbar[qual]])
    norms = np.linalg.norm(vecs, axis=1)
    keep = norms > 0
    vecs, norms = vecs[keep], norms[keep]
    lhs = (vecs @ structure.direction) / norms
    ex = np.maximum(np.tile(excess[qual], 2)[keep], 1e-300)
    cross = np.linalg.norm(project(structure.dec.basis_s, vecs), axis=1)
    rhs = (-np.log(ex) - np.log(2.0) - g_star - cross) / (structure.gamma * norms)
    return _from_slacks("fenchel_young", lhs - rhs, np.abs(lhs), np.tile(trace.ts[qual], 2)[keep])


def _estimate_first_qualifying(trace: GDTrace, excess: np.ndarray, target: float):
    good = excess > 0
    if good.sum() < 3:
        return None
    t = np.log(trace.ts[good].astype(float))
    v = np.log(excess[good])
    slope, intercept = np.polyfit(t, v, 1)
    if slope >= -1e-9:
        return None
    return float(np.exp((np.log(target) - intercept) / slope))


def check_log_approx(eps_grid=LOG_APPROX_EPS_GRID) -> CheckResult:
    """Loss-ratio facts on the low-loss region: once loss(z) <= eps, the ratio
    loss'(z)/loss(z) is at least 1-eps, and e^z is at most twice the loss.

    For the exponential loss both facts are identities.  For the logistic
    loss, with s = e^z, loss'/loss = s / ((1+s) ln(1+s)) falls in z and
    e^z/loss = s / ln(1+s) rises, so the worst point of {loss <= eps} is its
    boundary z = ln(e^eps - 1), where the ratios are (1 - e^-eps)/eps and
    (e^eps - 1)/eps.  The facts are evaluated there, a few ulps inside so
    that the kernel's loss is at most eps."""
    eps = np.asarray(eps_grid, dtype=float)
    worst = np.inf
    worst_eps = -1.0
    for code in (_kernels.LOGISTIC, _kernels.EXPONENTIAL):
        z = np.log(eps) if code == _kernels.EXPONENTIAL else np.log(np.expm1(eps))
        for _ in range(LOG_APPROX_ULPS):
            out = _kernels.loss_values(z, code) > eps
            z[out] = np.nextafter(z[out], -np.inf)
        lv = _kernels.loss_values(z, code)
        lp = _kernels.loss_derivs(z, code)
        slack = np.minimum(lp / lv - (1.0 - eps), 2.0 - np.exp(z) / lv)
        # a point outside the region loss <= eps voids the facts above
        slack = np.where(lv > eps, np.minimum(slack, 1.0 - lv / eps), slack)
        i = int(np.argmin(slack))
        if slack[i] < worst:
            worst = float(slack[i])
            worst_eps = float(eps[i])
    holds = worst >= -NUMERIC_ATOL
    return CheckResult(
        "log_approx", holds, worst, -1, note=f"worst over eps grid at eps={worst_eps}"
    )


def check_perp_descent(trace: GDTrace, structure: Structure) -> CheckResult:
    if structure.n_sep == 0:
        return _na("perp_descent", "no separable block")
    # the comparison point u = direction ln(t) / margin at every checkpoint
    radii = np.log(trace.ts.astype(float)) / structure.gamma
    margins = structure.sep_block() @ structure.direction
    lhs = _norms(trace.w - trace.proj_s - radii[:, None] * structure.direction) ** 2
    losses = _kernels.loss_values(radii[:, None] * margins, _loss_code(trace.loss))
    rc_u = np.sum(losses, axis=1) / structure.n
    rhs = (
        radii**2
        + 2.0
        + 2.0 * rc_u * trace.sum_eta
        - 2.0 * trace.sum_eta_sep
        + 2.0 * trace.sum_cross
    )
    return _from_slacks("perp_descent", rhs - lhs, lhs, trace.ts)


def check_gen_iter(trace: GDTrace, structure: Structure) -> CheckResult:
    if structure.n_sep == 0:
        return _na("gen_iter", "no separable block")
    if structure.dec.rank_s == 0:
        return _na("gen_iter", "span of the remainder is trivial")
    lam = structure.curvature
    threshold = min(GEN_EPS / structure.n, lam * (1.0 - GEN_CONTRACTION) / 2.0)
    excess = trace.risk_steps - structure.inf_risk
    qualifying = np.nonzero(excess[:-1] <= threshold)[0]
    if qualifying.size == 0:
        reached = float(excess[:-1].min()) if excess.size > 1 else np.inf
        return _na(
            "gen_iter",
            f"never qualified: min excess {reached:.3e} > threshold {threshold:.3e}",
        )
    j0 = int(qualifying[0])
    ex = excess[j0:]
    eff = trace.eff_steps[j0:-1]
    rel = trace.rel_steps[j0:-1]
    factor = np.exp(
        -GEN_CONTRACTION * (1.0 - GEN_EPS) * structure.gamma * rel * eff * (1.0 - eff / 2.0)
    )
    slack = ex[:-1] * factor - ex[1:]
    return _from_slacks(
        "gen_iter",
        slack,
        ex[1:],
        np.arange(j0 + 1, j0 + 1 + slack.size),
        note=f"qualified from step {j0} (estimate-conditioned)",
    )


def fit_trend(name: str, ts, values, shape) -> TrendFit | None:
    """Least-squares fit of values ~ coefficient * shape in log space, with the
    RMS log residual and the raw log-log slope as diagnostics."""
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    shape = np.asarray(shape, dtype=float)
    good = (values > 0) & (shape > 0) & (ts > 1)
    if good.sum() < 3:
        return None
    lv = np.log(values[good])
    ls = np.log(shape[good])
    c = float(np.exp(np.mean(lv - ls)))
    residual = float(np.sqrt(np.mean((lv - ls - np.log(c)) ** 2)))
    exponent = float(np.polyfit(np.log(ts[good]), lv, 1)[0])
    return TrendFit(name, exponent, c, residual)


def _window(trace: GDTrace, decades: float) -> np.ndarray:
    return trace.ts >= trace.T / 10.0**decades


def standard_trends(trace: GDTrace, structure: Structure) -> list:
    sel = _window(trace, 1.0)
    ts = trace.ts[sel].astype(float)
    excess = trace.risk[sel] - structure.inf_risk
    rate = np.sqrt(ts) if trace.schedule == "inv_sqrt" else ts
    trends = [fit_trend("risk_rate", ts, excess, np.log(ts) ** 2 / rate)]
    sel2 = _window(trace, 2.0)
    ts2 = trace.ts[sel2].astype(float)
    if structure.n_sep > 0:
        trends.append(fit_trend("perp_norm_log_t", ts2, trace.proj_perp_norm[sel2], np.log(ts2)))
    if structure.dec.rank_s > 0:
        norms = np.linalg.norm(trace.proj_s[sel2], axis=1)
        trends.append(fit_trend("proj_s_const", ts2, norms, np.ones_like(ts2)))
    return [t for t in trends if t]


def run_checks(trace: GDTrace, structure: Structure) -> tuple[list, list]:
    """Every check against one trace, in report order, plus trend fits."""
    wbar = ball_series(structure.matrix, trace.loss, trace)
    dir_result, dir_trend = check_direction(trace, structure, wbar)
    results = [
        check_risk_bound(trace, structure),
        check_smoothness(trace),
        check_log_risk_telescope(trace),
        check_norm_bounds(trace, structure),
        check_perceptron_norm(trace),
        check_param_s(trace, structure, wbar),
        dir_result,
        check_fenchel_young(trace, structure, wbar),
        check_log_approx(),
        check_perp_descent(trace, structure),
        check_gen_iter(trace, structure),
    ]
    trends = standard_trends(trace, structure)
    if dir_trend:
        trends.append(dir_trend)
    return results, trends


def report_meta(trace: GDTrace, structure: Structure, digest: str) -> dict:
    return {
        "digest": digest,
        "loss": trace.loss,
        "schedule": trace.schedule,
        "T": trace.T,
        "n": structure.n,
        "d": structure.matrix.d,
        "n_sep": structure.n_sep,
        "rank_s": structure.dec.rank_s,
        "margin": None if structure.margin_sol is None else structure.gamma,
        "offset_norm": float(np.linalg.norm(structure.offset)),
        "inf_risk": structure.inf_risk,
        "curvature_est": None if not np.isfinite(structure.curvature) else structure.curvature,
        "tolerances": {
            "margin": GAP_TOL,
            "scvx": RESIDUAL_TOL,
            "ball": RESIDUAL_TOL,
            "numeric_atol": NUMERIC_ATOL,
            "numeric_rtol": NUMERIC_RTOL,
        },
    }
