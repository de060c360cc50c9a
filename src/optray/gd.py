"""Gradient-descent engine for logistic/exponential empirical risk.

Runs w_{j+1} = w_j - eta_j * grad(w_j) from w_0 = 0, recording log-spaced
checkpoints plus running sums needed by the verification checks, and keeps
the full per-step scalar series (risk, gradient-to-risk ratio, effective
step) so per-step inequalities can be audited at full resolution.
"""

import dataclasses
import json
import operator
import zipfile
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .dataset import MarginMatrix
from .errors import NumericalError, ParseError, ValidationError
from .jsonio import write_json
from .linalg import minimize_risk, project

LOSS_CODES = {"logistic": _kernels.LOGISTIC, "exponential": _kernels.EXPONENTIAL}
SCHED_CODES = {"constant_one": _kernels.CONSTANT_ONE, "inv_sqrt": _kernels.INV_SQRT}

DEFAULT_PER_DECADE = 20


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
    The fields after digest are derived, here alone, from the iterates,
    their projections onto S, the per-step series and the schedule.
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
    proj_s: np.ndarray
    perceptron_sum: np.ndarray
    sum_eta_sep: np.ndarray
    sum_cross: np.ndarray
    sup_proj_s: np.ndarray
    risk_steps: np.ndarray
    rel_steps: np.ndarray
    eff_steps: np.ndarray
    digest: str = ""
    risk: np.ndarray = field(init=False)
    grad_norm: np.ndarray = field(init=False)
    rel_grad: np.ndarray = field(init=False)
    eff_step: np.ndarray = field(init=False)
    norm_w: np.ndarray = field(init=False)
    proj_perp_norm: np.ndarray = field(init=False)
    dir: np.ndarray = field(init=False)
    sum_eta: np.ndarray = field(init=False)
    sum_eff_grad: np.ndarray = field(init=False)
    sum_tele: np.ndarray = field(init=False)

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
    # d columns each, after the scalars
    CSV_VECTORS = ("w", "proj_s", "dir")

    def __post_init__(self):
        ts, w = self.ts, self.w
        self.risk, self.rel_grad = self.risk_steps[ts], self.rel_steps[ts]
        self.grad_norm = self.rel_grad * self.risk
        self.eff_step = self.eff_steps[ts]
        self.norm_w = np.linalg.norm(w, axis=1)
        self.proj_perp_norm = np.linalg.norm(w - self.proj_s, axis=1)
        safe = np.where(self.norm_w == 0.0, 1.0, self.norm_w)
        self.dir = np.where(self.norm_w[:, None] > 0.0, w / safe[:, None], 0.0)
        self.sum_eta, self.sum_eff_grad, self.sum_tele = _kernels.descent_sums(
            self.eff_steps, self.rel_steps, _sched_code(self.schedule), ts
        )

    @property
    def k(self) -> int:
        return self.ts.shape[0]

    def csv_header(self) -> list:
        cols = ["t"] + list(self.CSV_SCALARS)
        for name in self.CSV_VECTORS:
            cols += [f"{name}_{i + 1}" for i in range(self.d)]
        return cols

    def to_csv(self, path) -> None:
        """One row per checkpoint, fixed column order, 17 significant digits."""
        with open(path, "w") as fh:
            fh.write(",".join(self.csv_header()) + "\n")
            for k in range(self.k):
                vals = [str(int(self.ts[k]))]
                vals += [f"{getattr(self, name)[k]:.17g}" for name in self.CSV_SCALARS]
                for name in self.CSV_VECTORS:
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
            for name in self.CSV_VECTORS:
                rec[name] = getattr(self, name)[k].tolist()
            records.append(rec)
        write_json(path, {"meta": self.meta(), "checkpoints": records})

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
        """Read a trace that to_json and save_steps wrote.  The derived
        columns are derived again; a trace.json whose copy of one differs,
        or whose series, status, T and checkpoints contradict each other, is
        rejected, so that every check reads the same numbers."""
        try:
            with open(json_path) as fh:
                data = json.load(fh)
            meta = data["meta"]
            fields = {name: meta[name] for name in ("loss", "schedule", "T", "n", "d", "status")}
            fields["T"] = operator.index(fields["T"])
            sep_rows = np.asarray(meta["sep_rows"], dtype=np.int64)
            recs = data["checkpoints"]
            ts = np.array([r["t"] for r in recs], dtype=np.int64)
            cols = {name: np.array([r[name] for r in recs], dtype=float) for name in cls.CSV_SCALARS}
            for name in cls.CSV_VECTORS:
                cols[name] = np.array([r[name] for r in recs], dtype=float).reshape(ts.size, meta["d"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ParseError(f"{json_path}: not a trace.json ({type(exc).__name__}: {exc})") from None
        try:
            steps = np.load(steps_path)
            series = {name: steps[name] for name in ("risk_steps", "rel_steps", "eff_steps")}
        except (ValueError, KeyError, IndexError, EOFError, zipfile.BadZipFile) as exc:
            raise ParseError(f"{steps_path}: not a steps.npz ({type(exc).__name__}: {exc})") from None
        _check_extent(json_path, steps_path, fields["status"], fields["T"], ts, series)
        derived = [f.name for f in dataclasses.fields(cls) if not f.init]
        trace = cls(
            **fields,
            sep_rows=sep_rows,
            ts=ts,
            digest=meta.get("digest", ""),
            **series,
            **{name: value for name, value in cols.items() if name not in derived},
        )
        for name in derived:
            if not np.array_equal(getattr(trace, name), cols[name], equal_nan=True):
                raise ValidationError(f"{json_path}: {name} does not match the iterates and {steps_path}")
        return trace


def _check_extent(json_path, steps_path, status, T, ts, series) -> None:
    """A run's series and checkpoints end at T, or, on overflow, at the last
    finite step before it; every checkpoint is a step of the series."""
    shapes = {a.shape for a in series.values()}
    if len(shapes) != 1 or len(shapes.pop()) != 1:
        raise ValidationError(f"{steps_path}: the three series are not 1-D arrays of one length")
    L = series["risk_steps"].size
    if status not in ("ok", "overflow"):
        raise ValidationError(f"{json_path}: status {status!r} is neither 'ok' nor 'overflow'")
    if not (ts.size and np.all((ts >= 1) & (ts < L))):
        raise ValidationError(f"{json_path} has checkpoints outside the steps of {steps_path}")
    if (L != T + 1 or ts[-1] != T) if status == "ok" else L > T:
        raise ValidationError(
            f"{json_path}: status {status!r} and T {T} contradict {L} steps "
            f"and a last checkpoint at {ts[-1]}"
        )


def run(
    A,
    loss: str,
    schedule: str,
    T: int,
    checkpoints_per_decade: int = DEFAULT_PER_DECADE,
    sep_rows=None,
    basis_s: np.ndarray | None = None,
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
        basis_s = np.zeros((d, 0))
    ts = checkpoint_times(T, checkpoints_per_decade)

    status, steps_done, risk_steps, rel_steps, eff_steps, cp_w, cp_sums = _kernels.gd_loop(
        rows, sep_idx, basis_s, loss_code, sched_code, int(T), ts
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
        proj_s=project(basis_s, w),
        **dict(zip(("perceptron_sum", "sum_eta_sep", "sum_cross", "sup_proj_s"), cp_sums[:, keep])),
        risk_steps=risk_steps[: steps_done + 1],
        rel_steps=rel_steps[: steps_done + 1],
        eff_steps=eff_steps[: steps_done + 1],
    )


def constrained_opt(A, loss: str, radius, w0: np.ndarray | None = None) -> np.ndarray:
    """Minimizer of the risk over the Euclidean ball of the given radius,
    from w0 (the origin by default), to linalg.RESIDUAL_TOL.

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
    w, _ = minimize_risk(rows, _loss_code(loss), n, radii.reshape(-1), starts.reshape(-1, d))
    return w.reshape(starts.shape)


def ball_series(A, loss: str, trace: GDTrace) -> np.ndarray:
    """Ball-constrained minimizers at every checkpoint radius |w_t|, from one
    batched constrained_opt call.  The solve at checkpoint k starts from the
    iterate w_t itself, which lies on that sphere, so no radius depends on
    another, and each answer has the bits of constrained_opt at its radius
    alone from w_t."""
    return constrained_opt(A, loss, trace.norm_w, w0=trace.w)
