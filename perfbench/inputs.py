"""Seeded inputs for the three workloads, with the facts their construction fixes.

Every instance is built from a fixed base (a disc set from ``optray.dataset.synth``
at a fixed seed, or a random block construction at a fixed seed).  The run seed only changes how the base is written: the sign of each
example, (x, y) or (-x, -y), and for 2-D instances also a rotation or
reflection and the row order.  The partition, the margin, the offset and every
rate the program computes are invariant under these, so the work per pass does
not depend on the seed while the bytes the program reads do.  Instances in
d >= 3 get only the signs, which leave the margin matrix bit-identical: under
another row order the partition LP (Bland's rule) takes another pivot path and
fails on some orders (see CHANGES.md), which would make failures depend on the
seed.
"""

from dataclasses import dataclass

import numpy as np

from optray.dataset import Dataset, save_csv, synth

GRID_KINDS = ("separable", "overlap", "touching", "mixed")
GRID_BASE_SEED = 1
GRID_N_PER_CLASS = 10


@dataclass(eq=False)
class Instance:
    """Margin rows (-y x, before the program's global normalisation) in file
    order, with the split and the span of the remainder fixed by construction."""

    name: str
    rows: np.ndarray
    sep_rows: np.ndarray
    basis_s: np.ndarray  # (d, rank_s) orthonormal columns

    @property
    def rank_s(self) -> int:
        return self.basis_s.shape[1]

    @property
    def n_sep(self) -> int:
        return self.sep_rows.size


def _span(vectors: np.ndarray, d: int) -> np.ndarray:
    if vectors.size == 0:
        return np.zeros((d, 0))
    _, s, vt = np.linalg.svd(vectors, full_matrices=False)
    return vt[s > 1e-9 * s[0]].T if s[0] > 0 else np.zeros((d, 0))


def disc_instance(kind: str, n_per_class: int, seed: int) -> Instance:
    """synth() places the positive disc, the negative disc, then the extra
    rows of touching (the origin) and mixed (three points on the vertical
    axis).  Disc rows have a strictly negative first coordinate after the
    sign flip, except for overlap, whose discs share the origin inside both."""
    ds = synth(kind, n_per_class, seed)
    rows = -ds.labels[:, None] * ds.features
    n_disc = 2 * n_per_class
    if kind == "overlap":
        sep = np.zeros(0, dtype=np.int64)
    else:
        sep = np.arange(n_disc, dtype=np.int64)
    rest = np.setdiff1d(np.arange(rows.shape[0]), sep)
    return Instance(kind, rows, sep, _span(rows[rest], 2))


def block_instance(name: str, d: int, rank_s: int, n_sep: int, n_sc: int, seed: int) -> Instance:
    """Random instance with a known split.  The remainder lives in a random
    rank_s-dimensional subspace S and is centred under random positive
    weights, so a strictly positive combination of it vanishes and no
    direction separates any of it; its unweighted mean stays off zero, so the
    offset is not zero.  Every other row has a component of at most -0.2
    (before scaling) along one unit vector orthogonal to S, which separates
    all of them while holding S at zero."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    basis_s, perp = q[:, :rank_s], q[:, rank_s:]
    coords = rng.standard_normal((n_sc, rank_s))
    weights = rng.uniform(0.2, 1.0, size=n_sc)
    coords -= weights @ coords / weights.sum()
    sc = coords @ basis_s.T
    p = rng.standard_normal((n_sep, d - rank_s))
    p[:, 0] = -(0.2 + np.abs(p[:, 0]))
    sep = p @ perp.T + rng.standard_normal((n_sep, rank_s)) @ basis_s.T
    rows = np.vstack([sep, sc])
    rows /= 1.1 * np.linalg.norm(rows, axis=1).max()
    return Instance(name, rows, np.arange(n_sep, dtype=np.int64), basis_s)


def rotate_2d(inst: Instance, rng: np.random.Generator) -> Instance:
    """A random rotation or reflection and row order of a 2-D instance."""
    theta = rng.uniform(0.0, 2.0 * np.pi)
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    if rng.integers(2):
        rot = rot @ np.diag([1.0, -1.0])
    n = inst.rows.shape[0]
    perm = rng.permutation(n)
    where = np.empty(n, dtype=np.int64)
    where[perm] = np.arange(n)
    return Instance(inst.name, inst.rows[perm] @ rot.T, np.sort(where[inst.sep_rows]),
                    rot @ inst.basis_s)


# --- workloads -------------------------------------------------------------

GRID_T = 2000
GRID_PER_DECADE = 5
LONG_T = 100_000
# (loss, schedule) of two of the acceptance suite's direction-convergence
# cases, in the order of their bases in _bases: one pass of both takes about
# 10 s, so three rounds fit in a 30 s run
LONG_CASES = (
    ("exponential", "constant_one"),
    ("logistic", "inv_sqrt"),
)
STRUCT_DISC_N_PER_CLASS = 20
# (d, rank_s, n_sep, n_sc, base seed): each split is fixed by construction.
# The base seeds are ones on which partition() finds that split; on some
# others it silently returns a wrong one (see CHANGES.md), and a run keeps
# only one job that fails on every run, the LP fault below.
STRUCT_BLOCKS = (
    (3, 1, 25, 15, 1),
    (3, 2, 50, 30, 6),
    (4, 3, 40, 30, 2),
    (4, 2, 50, 30, 5),
    (5, 2, 35, 25, 1),
    (5, 4, 30, 30, 3),
    (5, 1, 50, 30, 4),
)
# d = 6 instance whose self-check fails on every run: the certificate LP that
# validate solves comes back infeasible (see CHANGES.md)
STRUCT_LP_FAULT = (6, 3, 50, 30, 8)
STRUCT_LP_FAULT_NAME = "block6-lpfault"


@dataclass(eq=False)
class Job:
    """One CLI command: its argument list, the instance it reads, and what a
    correct run of it must show."""

    name: str
    command: str
    instance: Instance
    csv: str
    loss: str
    schedule: str = ""
    steps: int = 0
    expect_failure: bool = False

    def argv(self, outdir) -> list:
        args = [self.command, "--input", self.csv, "--loss", self.loss]
        if self.command != "decompose":
            args += ["--schedule", self.schedule, "--steps", str(self.steps)]
        if self.command == "verify":
            args += ["--checkpoints-per-decade", str(GRID_PER_DECADE)]
        return args + ["--out", str(outdir)]


def _bases(workload: str) -> list:
    """One instance per input file, before the seed is applied."""
    if workload == "verify_grid":
        return [disc_instance(k, GRID_N_PER_CLASS, GRID_BASE_SEED) for k in GRID_KINDS]
    if workload == "long_run":
        return [disc_instance("separable", 20, 1), disc_instance("mixed", 20, 1)]
    if workload == "structure":
        return [disc_instance(k, STRUCT_DISC_N_PER_CLASS, 1) for k in GRID_KINDS] + [
            block_instance(f"block{d}-r{r}-n{ns + nc}", d, r, ns, nc, s)
            for d, r, ns, nc, s in STRUCT_BLOCKS
        ]
    raise ValueError(f"unknown workload {workload!r}")


def build(workload: str, seed: int, inputs_dir, write_files: bool) -> list:
    """Jobs of one workload for one seed; writes their CSV inputs when asked."""
    files = []
    for idx, base in enumerate(_bases(workload)):
        rng = np.random.default_rng([seed, idx])
        inst = rotate_2d(base, rng) if base.rows.shape[1] == 2 else base
        labels = np.where(rng.integers(2, size=inst.rows.shape[0]) == 1, 1, -1)
        ds = Dataset(-labels[:, None] * inst.rows, labels)
        files.append((inst, ds, f"{inputs_dir}/{workload}-{base.name}.csv"))
    if workload == "structure":
        d, r, ns, nc, s = STRUCT_LP_FAULT
        base = block_instance(STRUCT_LP_FAULT_NAME, d, r, ns, nc, s)
        ds = Dataset(-base.rows, np.ones(base.rows.shape[0], dtype=np.int64))
        files.append((base, ds, f"{inputs_dir}/{workload}-{base.name}.csv"))
    if write_files:
        for _, ds, path in files:
            save_csv(ds, path)

    jobs = []
    if workload == "verify_grid":
        for inst, _, path in files:
            for loss in ("logistic", "exponential"):
                for sched in ("constant_one", "inv_sqrt"):
                    jobs.append(
                        Job(f"{inst.name}-{loss}-{sched}", "verify", inst, path, loss, sched, GRID_T)
                    )
    elif workload == "long_run":
        for (inst, _, path), (loss, sched) in zip(files, LONG_CASES):
            jobs.append(Job(inst.name, "run", inst, path, loss, sched, LONG_T))
    else:
        for k, (inst, _, path) in enumerate(files):
            loss = ("logistic", "exponential")[k % 2]
            jobs.append(
                Job(inst.name, "decompose", inst, path, loss,
                    expect_failure=inst.name == STRUCT_LP_FAULT_NAME)
            )
    return jobs
