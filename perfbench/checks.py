"""Correctness checks on the files each job wrote, computed apart from optray.

Every expected value comes from the construction of the input (the split and
the span of the remainder), from numpy/scipy, or from a property the method
must have.  Each check returns a list of problems; an empty list means the
job's output is correct.
"""

import json
from pathlib import Path

import numpy as np
from scipy.optimize import minimize

MARGIN_ATOL = 1e-7  # the program solves the margin dual to a gap of 1e-8
INF_RISK_RTOL = 1e-9
CHECKPOINT_RISK_RTOL = 1e-12
OFFSET_GRAD_ATOL = 1e-9  # the program stops at a gradient norm of 1e-10


def margin_rows(csv_path) -> np.ndarray:
    """The normalised margin matrix the program builds: rows -y x, all
    divided by the largest row norm when that exceeds 1."""
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    rows = -data[:, -1:] * data[:, :-1]
    top = np.linalg.norm(rows, axis=1).max()
    return rows / top if top > 1.0 else rows


def loss_and_derivs(z, loss):
    if loss == "exponential":
        v = np.exp(z)
        return v, v, v
    sig = 0.5 * (1.0 + np.tanh(0.5 * z))
    return np.logaddexp(0.0, z), sig, sig * (1.0 - sig)


def project_out(vecs, basis):
    return vecs - (vecs @ basis) @ basis.T


def sweep_margin_2d(points):
    """Max-margin value and direction of 2-D rows by an exact sweep: the best
    angle has one row alone or two rows tied at the minimum, so evaluating
    the direction opposite each row and both normals of each row difference
    finds it."""
    cands = [-points / np.linalg.norm(points, axis=1, keepdims=True)]
    diff = (points[:, None, :] - points[None, :, :]).reshape(-1, 2)
    diff = diff[np.linalg.norm(diff, axis=1) > 1e-12]
    normal = np.stack([-diff[:, 1], diff[:, 0]], axis=1)
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    cands += [normal, -normal]
    u = np.vstack(cands)
    values = (-(points @ u.T)).min(axis=0)
    best = int(np.argmax(values))
    return float(values[best]), u[best]


def simplex_margin(points):
    """min |P^T q| over the probability simplex, by SLSQP."""
    m = points.shape[0]
    gram = points @ points.T
    res = minimize(
        lambda q: q @ gram @ q,
        np.full(m, 1.0 / m),
        jac=lambda q: 2.0 * gram @ q,
        method="SLSQP",
        bounds=[(0.0, 1.0)] * m,
        constraints=[{"type": "eq", "fun": lambda q: q.sum() - 1.0, "jac": lambda q: np.ones(m)}],
        options={"ftol": 1e-16, "maxiter": 2000},
    )
    return float(np.sqrt(max(res.fun, 0.0)))


def remainder_inf_risk(rows, inst, loss):
    """Minimum of the full-size-normalised risk of the remainder rows over
    the span of the remainder, by Newton trust region in span coordinates."""
    n = rows.shape[0]
    rest = np.setdiff1d(np.arange(n), inst.sep_rows)
    if rest.size == 0:
        return 0.0
    if inst.rank_s == 0:
        return float(loss_and_derivs(np.zeros(rest.size), loss)[0].sum() / n)
    m = rows[rest] @ inst.basis_s

    def f(c):
        return loss_and_derivs(m @ c, loss)[0].sum() / n

    def g(c):
        return m.T @ loss_and_derivs(m @ c, loss)[1] / n

    def h(c):
        return (m.T * loss_and_derivs(m @ c, loss)[2]) @ m / n

    res = minimize(f, np.zeros(inst.rank_s), jac=g, hess=h, method="trust-exact",
                   options={"gtol": 1e-13})
    return float(res.fun)


def _close(name, got, want, atol=0.0, rtol=0.0):
    if got is None or not abs(got - want) <= atol + rtol * abs(want):
        return [f"{name}: program {got!r}, independent {want!r}"]
    return []


def check_verify(job, outdir: Path) -> list:
    rows = margin_rows(job.csv)
    inst = job.instance
    meta = json.loads((outdir / "report.json").read_text())["meta"]
    bad = []
    if meta["n_sep"] != inst.n_sep or meta["rank_s"] != inst.rank_s:
        bad.append(f"split: program ({meta['n_sep']}, {meta['rank_s']}), "
                   f"construction ({inst.n_sep}, {inst.rank_s})")
    if inst.n_sep:
        want, _ = sweep_margin_2d(project_out(rows[inst.sep_rows], inst.basis_s))
        bad += _close("margin", meta["margin"], want, atol=MARGIN_ATOL)
    elif meta["margin"] is not None:
        bad.append(f"margin {meta['margin']!r} reported without a separable block")
    bad += _close("inf_risk", meta["inf_risk"], remainder_inf_risk(rows, inst, job.loss),
                  atol=1e-15, rtol=INF_RISK_RTOL)
    return bad


def check_run(job, outdir: Path) -> list:
    rows = margin_rows(job.csv)
    inst = job.instance
    trace = json.loads((outdir / "trace.json").read_text())
    risk_steps = np.load(outdir / "steps.npz")["risk_steps"]
    bad = []
    if trace["meta"]["T"] != job.steps or risk_steps.shape != (job.steps + 1,):
        bad.append(f"trace covers {risk_steps.shape[0] - 1} steps, asked for {job.steps}")
    rises = np.flatnonzero(np.diff(risk_steps) > 0.0)
    if rises.size:
        j = int(rises[0])
        bad.append(f"risk rises at step {j}: {risk_steps[j]!r} -> {risk_steps[j + 1]!r}")
    for rec in trace["checkpoints"]:
        want = float(loss_and_derivs(rows @ np.array(rec["w"]), job.loss)[0].mean())
        bad += _close(f"risk at t={rec['t']}", rec["risk"], want, rtol=CHECKPOINT_RISK_RTOL)
    if inst.rank_s == 0 and inst.n_sep == rows.shape[0]:
        # separable: the direction error to the max-margin direction shrinks
        # over the last decade
        _, u = sweep_margin_2d(rows)
        ts = np.array([rec["t"] for rec in trace["checkpoints"]])
        err = [np.linalg.norm(np.array(trace["checkpoints"][k]["dir"]) - u)
               for k in (int(np.searchsorted(ts, job.steps // 10)), len(ts) - 1)]
        if not err[1] < err[0]:
            bad.append(f"direction error {err[0]!r} at T/10 did not shrink by T ({err[1]!r})")
    return bad


def check_decompose(job, outdir: Path) -> list:
    rows = margin_rows(job.csv)
    inst = job.instance
    n = rows.shape[0]
    dec = json.loads((outdir / "decomposition.json").read_text())
    bad = []
    if dec["sep_rows"] != inst.sep_rows.tolist():
        bad.append(f"separable rows differ from the construction's {inst.n_sep}")
    rank = np.array(dec["basis_s"]).reshape(rows.shape[1], -1).shape[1]
    if rank != inst.rank_s:
        bad.append(f"rank_s: program {rank}, construction {inst.rank_s}")
    if inst.n_sep:
        sol = json.loads((outdir / "margin.json").read_text())
        a_perp = project_out(rows[inst.sep_rows], inst.basis_s)
        bad += _close("margin", sol["margin"], simplex_margin(a_perp), atol=MARGIN_ATOL)
        u = np.array(sol["direction"])
        attained = float(-(a_perp @ u).max())
        if not (abs(np.linalg.norm(u) - 1.0) <= 1e-9 and attained >= sol["margin"] - MARGIN_ATOL):
            bad.append(f"direction attains margin {attained!r}, reported {sol['margin']!r}")
    if inst.rank_s:
        v = np.array(json.loads((outdir / "scvx.json").read_text())["offset"])
        rest = np.setdiff1d(np.arange(n), inst.sep_rows)
        grad = rows[rest].T @ loss_and_derivs(rows[rest] @ v, job.loss)[1] / n
        if not np.linalg.norm(grad) <= OFFSET_GRAD_ATOL:
            bad.append(f"restricted-risk gradient {np.linalg.norm(grad)!r} at the offset")
        if not np.linalg.norm(project_out(v, inst.basis_s)) <= 1e-9 * max(1.0, np.linalg.norm(v)):
            bad.append("offset leaves the span of the remainder")
    return bad


CHECKS = {"verify": check_verify, "run": check_run, "decompose": check_decompose}
