"""Dataset ingestion, normalization, margin-matrix construction, synthetic generators."""

import csv
import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, ParseError, ValidationError

NORM_SLACK = 1e-12  # allowed overshoot of the unit-norm row bound

SYNTH_KINDS = ("separable", "overlap", "touching", "mixed")

# disc centers per generator kind; unit radius throughout
_CENTERS = {
    "separable": 1.5,
    "overlap": 0.5,
    "touching": 1.0,
    "mixed": 1.0,
}

# extra points on the vertical axis for the mixed generator: placed
# asymmetrically so the bounded optimum of the remainder is nonzero
_MIXED_AXIS = [((0.0, 0.5), 1), ((0.0, 0.5), 1), ((0.0, 0.9), -1)]


@dataclass(eq=False)
class Dataset:
    """Labeled feature vectors: (n, d) features and labels in {-1, +1}."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels)
        if self.features.ndim != 2 or self.features.shape[0] < 1 or self.features.shape[1] < 1:
            raise ValidationError("features must be a nonempty (n, d) array")
        if not np.all(np.isfinite(self.features)):
            raise ValidationError("every feature must be finite (no nan or inf)")
        if self.labels.shape != (self.features.shape[0],):
            raise ValidationError("labels must be a vector of length n")
        if not np.all(np.isin(self.labels, (-1, 1))):
            raise ValidationError("every label must be -1 or +1")
        self.labels = self.labels.astype(np.int64)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def digest(self) -> str:
        """Content hash used to tie reports to their inputs."""
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.features).tobytes())
        h.update(np.ascontiguousarray(self.labels).tobytes())
        return h.hexdigest()[:16]


@dataclass(eq=False)
class MarginMatrix:
    """Matrix whose i-th row is -labels[i] * features[i]; all solvers consume this.

    A predictor w classifies example i correctly exactly when (rows @ w)[i] < 0.
    """

    rows: np.ndarray

    def __post_init__(self):
        self.rows = np.ascontiguousarray(self.rows, dtype=float)
        if self.rows.ndim != 2 or self.rows.shape[0] < 1:
            raise ValidationError("rows must be a nonempty (n, d) array")
        norms = np.linalg.norm(self.rows, axis=1)
        if not norms.max() <= 1.0 + NORM_SLACK:  # a nan row fails this too
            raise ValidationError(
                f"row norms must not exceed 1 (got {norms.max():.17g}); normalize first"
            )

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]


def load_csv(path) -> Dataset:
    """Read a dataset from a CSV file with header f1,...,fd,label."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        header = [c.strip() for c in header]
        d = len(header) - 1
        expected = [f"f{i + 1}" for i in range(d)] + ["label"]
        if d < 1 or header != expected:
            raise ParseError(f"{path}: header must be f1,...,fd,label (got {header})")
        feats = []
        labels = []
        for rownum, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 1:
                raise ParseError(f"{path}: row {rownum}: expected {d + 1} fields, got {len(row)}")
            try:
                vals = [float(v) for v in row]
            except ValueError as exc:
                raise ParseError(f"{path}: row {rownum}: {exc}") from None
            lab = vals[-1]
            if lab not in (-1.0, 1.0):
                raise ValidationError(f"{path}: row {rownum}: label must be -1 or 1, got {row[-1]}")
            feats.append(vals[:-1])
            labels.append(int(lab))
    if not feats:
        raise ParseError(f"{path}: no data rows")
    return Dataset(np.array(feats, dtype=float), np.array(labels, dtype=np.int64))


def save_csv(ds: Dataset, path) -> None:
    """Write a dataset using the same f1,...,fd,label schema load_csv reads."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i + 1}" for i in range(ds.d)] + ["label"])
        for x, y in zip(ds.features, ds.labels):
            writer.writerow([f"{v:.17g}" for v in x] + [int(y)])


def _row_norms(x: np.ndarray) -> np.ndarray:
    """|x_i| of every row of x.  np.linalg.norm squares the entries, so past
    ~1e154 the norm overflows to inf and below ~1e-162 it can underflow to 0;
    only those rows are recomputed, divided by their largest entry first.  A
    norm past the float range stays inf."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(x, axis=1)
        off = np.isinf(norms) | ((norms == 0.0) & np.any(x != 0.0, axis=1))
        if off.any():
            scale = np.max(np.abs(x[off]), axis=1)
            norms[off] = scale * np.linalg.norm(x[off] / scale[:, None], axis=1)
    return norms


def normalize(ds: Dataset) -> Dataset:
    """Scale all features by one global factor so that max_i |x_i| <= 1.
    Where the largest norm itself passes the float range, the features are
    divided by their largest entry first."""
    x = ds.features
    top = _row_norms(x).max()
    if top == 0.0:
        raise DegenerateDataError("all feature vectors are zero")
    if top <= 1.0:
        return Dataset(x.copy(), ds.labels.copy())
    if top == np.inf:
        x = x / np.max(np.abs(x))
        top = _row_norms(x).max()
    return Dataset(x / top, ds.labels.copy())


def to_margin_matrix(ds: Dataset) -> MarginMatrix:
    """Margin matrix with rows -y_i x_i; expects a normalized dataset."""
    return MarginMatrix(-ds.labels[:, None].astype(float) * ds.features)


def _disc_points(rng, center_x: float, count: int) -> np.ndarray:
    radii = np.sqrt(rng.uniform(0.0, 1.0, size=count))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
    pts = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    pts[:, 0] += center_x
    return pts


def synth(kind: str, n_per_class: int, seed: int) -> Dataset:
    """Deterministic synthetic 2-D dataset: two unit discs of opposite labels.

    separable: disjoint discs; overlap: heavily intersecting discs;
    touching: discs tangent at the origin plus one example exactly there;
    mixed: tangent discs plus asymmetric points on the vertical axis.
    The result is already normalized.
    """
    if kind not in SYNTH_KINDS:
        raise ValidationError(f"unknown synth kind {kind!r}; choose from {SYNTH_KINDS}")
    if n_per_class < 1:
        raise ValidationError("n_per_class must be >= 1")
    rng = np.random.default_rng(seed)
    cx = _CENTERS[kind]
    pos = _disc_points(rng, +cx, n_per_class)
    neg = _disc_points(rng, -cx, n_per_class)
    feats = [pos, neg]
    labels = [np.ones(n_per_class, dtype=np.int64), -np.ones(n_per_class, dtype=np.int64)]
    if kind == "touching":
        feats.append(np.zeros((1, 2)))
        labels.append(np.array([1], dtype=np.int64))
    elif kind == "mixed":
        feats.append(np.array([p for p, _ in _MIXED_AXIS]))
        labels.append(np.array([y for _, y in _MIXED_AXIS], dtype=np.int64))
    ds = Dataset(np.vstack(feats), np.concatenate(labels))
    return normalize(ds)
