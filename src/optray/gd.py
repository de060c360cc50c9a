"""Gradient-descent engine for logistic/exponential empirical risk.

Runs w_{j+1} = w_j - eta_j * grad(w_j) from w_0 = 0, recording log-spaced
checkpoints plus running sums needed by the verification checks, and keeps
the full per-step scalar series (risk, gradient-to-risk ratio, effective
step) so per-step inequalities can be audited at full resolution.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .dataset import MarginMatrix
from .errors import NumericalError, ValidationError
from .linalg import Basis, minimize_risk

LOSS_CODES = {"logistic": _kernels.LOGISTIC, "exponential": _kernels.EXPONENTIAL}
SCHED_CODES = {"constant_one": _kernels.CONSTANT_ONE, "inv_sqrt": _kernels.INV_SQRT}

DEFAULT_PER_DECADE = 20
BALL_TOL = 1e-10


def _rows(A) -> np.ndarray:
    rows = A.rows if isinstance(A, MarginMatrix) else np.asarray(A, dtype=float)
    return np.ascontiguousarray(rows)


def _loss_code(loss: str) -> int:
    if loss not in LOSS_CODES:
        raise ValidationError(f"unknown loss {loss!r}; choose from {tuple(LOSS_CODES)}")
    return LOSS_CODES[loss]


def _sched_code(schedule: str) -> int:
    if schedule not in SCHED_CODES:
        raise ValidationError(f"unknown schedule {schedule!r}; choose from {tuple(SCHED_CODES)}")
    return SCHED_CODES[schedule]


def risk(A, loss: str, w: np.ndarray) -> float:
    """Empirical risk (1/n) sum_i loss((A w)_i)."""
    rows = _rows(A)
    w = np.asarray(w, dtype=float)
    vals = _kernels.loss_values(rows @ w, _loss_code(loss))
    return float(np.sum(vals) / rows.shape[0])


def grad(A, loss: str, w: np.ndarray) -> np.ndarray:
    """Risk gradient (1/n) A^T loss'(A w)."""
    rows = _rows(A)
    w = np.asarray(w, dtype=float)
    derivs = np.asarray(_kernels.loss_derivs(rows @ w, _loss_code(loss)))
    return rows.T @ derivs / rows.shape[0]


def checkpoint_times(T: int, per_decade: int = DEFAULT_PER_DECADE) -> np.ndarray:
    """Log-spaced integer checkpoint times in [1, T], always including T."""
    if T < 1:
        raise ValidationError("T must be >= 1")
    if per_decade < 1:
        raise ValidationError("checkpoints per decade must be >= 1")
    grid = 10.0 ** (np.arange(0, np.log10(T) * per_decade + 1) / per_decade)
    ts = np.unique(np.rint(grid).astype(np.int64))
    ts = ts[(ts >= 1) & (ts <= T)]
    if ts.size == 0 or ts[-1] != T:
        ts = np.append(ts, T)
    return ts.astype(np.int64)


@dataclass(eq=False)
class GDTrace:
    """Checkpointed gradient-descent trajectory.

    Checkpoint arrays are indexed by the K recorded times; all running sums
    (sum_*, perceptron_sum, sup_proj_s) cover steps j < t.  The per-step
    series risk_steps/rel_steps/eff_steps run over j = 0..T.  digest is the
    content hash of the dataset the trace was recorded on ("" if unknown).
    """

    loss: str
    schedule: str
    T: int
    n: int
    d: int
    status: str
    sep_rows: np.ndarray
    ts: np.ndarray
    w: np.ndarray
    risk: np.ndarray
    grad_norm: np.ndarray
    rel_grad: np.ndarray
    eff_step: np.ndarray
    norm_w: np.ndarray
    proj_s: np.ndarray
    proj_perp_norm: np.ndarray
    dir: np.ndarray
    perceptron_sum: np.ndarray
    sum_eta: np.ndarray
    sum_eff_grad: np.ndarray
    sum_tele: np.ndarray
    sum_eta_sep: np.ndarray
    sum_cross: np.ndarray
    sup_proj_s: np.ndarray
    risk_steps: np.ndarray
    rel_steps: np.ndarray
    eff_steps: np.ndarray
    digest: str = ""

    CSV_SCALARS = (
        "risk",
        "grad_norm",
        "rel_grad",
        "eff_step",
        "norm_w",
        "proj_perp_norm",
        "perceptron_sum",
        "sum_eta",
        "sum_eff_grad",
        "sum_tele",
        "sum_eta_sep",
        "sum_cross",
        "sup_proj_s",
    )

    @property
    def k(self) -> int:
        return self.ts.shape[0]

    def csv_header(self) -> list:
        cols = ["t"] + list(self.CSV_SCALARS)
        for name in ("w", "proj_s", "dir"):
            cols += [f"{name}_{i + 1}" for i in range(self.d)]
        return cols

    def to_csv(self, path) -> None:
        """One row per checkpoint, fixed column order, 17 significant digits."""
        with open(path, "w") as fh:
            fh.write(",".join(self.csv_header()) + "\n")
            for k in range(self.k):
                vals = [str(int(self.ts[k]))]
                vals += [f"{getattr(self, name)[k]:.17g}" for name in self.CSV_SCALARS]
                for name in ("w", "proj_s", "dir"):
                    vals += [f"{v:.17g}" for v in getattr(self, name)[k]]
                fh.write(",".join(vals) + "\n")

    def meta(self) -> dict:
        return {
            "loss": self.loss,
            "schedule": self.schedule,
            "T": self.T,
            "n": self.n,
            "d": self.d,
            "status": self.status,
            "sep_rows": self.sep_rows.tolist(),
            "digest": self.digest,
        }

    def to_json(self, path) -> None:
        records = []
        for k in range(self.k):
            rec = {"t": int(self.ts[k])}
            rec.update({name: float(getattr(self, name)[k]) for name in self.CSV_SCALARS})
            for name in ("w", "proj_s", "dir"):
                rec[name] = getattr(self, name)[k].tolist()
            records.append(rec)
        with open(path, "w") as fh:
            json.dump({"meta": self.meta(), "checkpoints": records}, fh, indent=1)

    def save_steps(self, path) -> None:
        """The per-step series as an uncompressed .npz (24 bytes per step);
        from_files reads compressed archives too."""
        np.savez(
            path,
            risk_steps=self.risk_steps,
            rel_steps=self.rel_steps,
            eff_steps=self.eff_steps,
        )

    @classmethod
    def from_files(cls, json_path, steps_path) -> "GDTrace":
        """Read a trace that to_json and save_steps wrote.  The checkpoint
        columns that follow from the iterates and the per-step series are
        derived as run derives them; a trace.json whose copy of one differs
        is rejected, so that every check reads the same numbers."""
        with open(json_path) as fh:
            data = json.load(fh)
        meta = data["meta"]
        recs = data["checkpoints"]
        steps = np.load(steps_path)
        series = {name: steps[name] for name in ("risk_steps", "rel_steps", "eff_steps")}
        ts = np.array([r["t"] for r in recs], dtype=np.int64)
        if not (ts.size and np.all((ts >= 1) & (ts < series["risk_steps"].size))):
            raise ValidationError(f"{json_path} has checkpoints outside the steps of {steps_path}")
        cols = {name: np.array([r[name] for r in recs], dtype=float) for name in cls.CSV_SCALARS}
        for name in ("w", "proj_s", "dir"):
            cols[name] = np.array([r[name] for r in recs], dtype=float).reshape(ts.size, meta["d"])
        derived = _checkpoint_columns(ts, cols["w"], cols["proj_s"], **series)
        sums = _kernels.descent_sums(
            series["eff_steps"], series["rel_steps"], _sched_code(meta["schedule"]), ts
        )
        derived.update(zip(("sum_eta", "sum_eff_grad", "sum_tele"), sums))
        for name, value in derived.items():
            if not np.array_equal(value, cols[name], equal_nan=True):
                raise ValidationError(f"{json_path}: {name} does not match the iterates and {steps_path}")
        cols.update(derived)
        return cls(
            loss=meta["loss"],
            schedule=meta["schedule"],
            T=meta["T"],
            n=meta["n"],
            d=meta["d"],
            status=meta["status"],
            sep_rows=np.asarray(meta["sep_rows"], dtype=np.int64),
            ts=ts,
            digest=meta.get("digest", ""),
            **series,
            **cols,
        )


def _checkpoint_columns(ts, w, proj_s, risk_steps, rel_steps, eff_steps) -> dict:
    """The checkpoint columns that follow from the iterates w, their
    projections onto S and the per-step series."""
    risk, rel = risk_steps[ts], rel_steps[ts]
    norm_w = np.linalg.norm(w, axis=1)
    safe = np.where(norm_w == 0.0, 1.0, norm_w)
    return {
        "risk": risk,
        "grad_norm": rel * risk,
        "rel_grad": rel,
        "eff_step": eff_steps[ts],
        "norm_w": norm_w,
        "proj_perp_norm": np.linalg.norm(w - proj_s, axis=1),
        "dir": np.where(norm_w[:, None] > 0.0, w / safe[:, None], 0.0),
    }


def run(
    A,
    loss: str,
    schedule: str,
    T: int,
    checkpoints_per_decade: int = DEFAULT_PER_DECADE,
    sep_rows=None,
    basis_s: Basis | None = None,
) -> GDTrace:
    """Run T gradient-descent steps and return the checkpointed trace.

    sep_rows selects the rows whose gradient mass feeds the perceptron-style
    accumulators (defaults to all rows, which is exact for fully separable
    data); basis_s enables the projection-onto-S running sums.  Deterministic
    for fixed inputs.  On floating-point overflow the trace is truncated at
    the last finite step and flagged with status "overflow".
    """
    rows = _rows(A)
    n, d = rows.shape
    loss_code, sched_code = _loss_code(loss), _sched_code(schedule)
    if sep_rows is None:
        sep_idx = np.arange(n, dtype=np.int64)
    else:
        sep_idx = np.asarray(sep_rows, dtype=np.int64)
    if basis_s is None:
        basis_s = Basis(np.zeros((d, 0)))
    ts = checkpoint_times(T, checkpoints_per_decade)

    # the running sums come in the order of the last seven CSV columns
    status, steps_done, risk_steps, rel_steps, eff_steps, cp_w, *cp_sums = _kernels.gd_loop(
        rows, sep_idx, basis_s.columns, loss_code, sched_code, int(T), ts
    )

    if status == _kernels.STATUS_STEP_ASSERT:
        raise NumericalError(
            "effective step exceeded 1; input rows violate the unit-norm contract"
        )
    keep = ts <= steps_done
    ts = ts[keep]
    if ts.size == 0:
        raise NumericalError("risk overflowed before the first checkpoint")
    w = cp_w[keep]
    proj_s = basis_s.project(w)
    return GDTrace(
        loss=loss,
        schedule=schedule,
        T=int(T),
        n=n,
        d=d,
        status="ok" if status == _kernels.STATUS_OK else "overflow",
        sep_rows=sep_idx,
        ts=ts,
        w=w,
        proj_s=proj_s,
        **{name: s[keep] for name, s in zip(GDTrace.CSV_SCALARS[-7:], cp_sums)},
        risk_steps=risk_steps[: steps_done + 1],
        rel_steps=rel_steps[: steps_done + 1],
        eff_steps=eff_steps[: steps_done + 1],
        **_checkpoint_columns(ts, w, proj_s, risk_steps, rel_steps, eff_steps),
    )


def constrained_opt(
    A,
    loss: str,
    radius,
    tol: float = BALL_TOL,
    w0: np.ndarray | None = None,
) -> np.ndarray:
    """Minimizer of the risk over the Euclidean ball of the given radius,
    from w0 (the origin by default).

    radius may also be a 1-D array of radii, solved in one batched
    linalg.minimize_risk call; w0 then holds one start per radius, and the
    answer one minimizer per radius, each with the bits of its radius solved
    alone from its start."""
    rows = _rows(A)
    radii = np.asarray(radius, dtype=float)
    if not np.all(radii >= 0.0):
        raise ValidationError("radius must be >= 0")
    n, d = rows.shape
    starts = np.zeros(radii.shape + (d,)) if w0 is None else np.asarray(w0, dtype=float)
    w, _ = minimize_risk(rows, _loss_code(loss), n, radii.reshape(-1), starts.reshape(-1, d), tol)
    return w.reshape(starts.shape)


def ball_series(A, loss: str, trace: GDTrace, tol: float = BALL_TOL) -> np.ndarray:
    """Ball-constrained minimizers at every checkpoint radius |w_t|, from one
    batched constrained_opt call.  The solve at checkpoint k starts from the
    iterate w_t itself, which lies on that sphere, so no radius depends on
    another, and each answer has the bits of constrained_opt at its radius
    alone from w_t."""
    return constrained_opt(A, loss, trace.norm_w, tol=tol, w0=trace.w)
