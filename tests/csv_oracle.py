"""Frozen reference for the CSV reader: optray's ``load_csv`` and its
row-by-row ``_read_rows`` as they stood before the reader converted every
field in one pass, kept verbatim so that tests can compare the current
reader with it.  Not used by the package.
"""

import csv

import numpy as np

from optray.dataset import Dataset
from optray.errors import ParseError, ValidationError


def load_csv(path) -> Dataset:
    """Read a dataset from a CSV file with header f1,...,fd,label."""
    try:
        with open(path, newline="") as fh:
            feats, labels = _read_rows(path, csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: not a CSV text file ({exc})") from None
    return Dataset(np.array(feats, dtype=float), np.array(labels, dtype=np.int64))


def _read_rows(path, reader) -> tuple:
    """The feature rows and labels of a CSV reader on path."""
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
    return feats, labels
