"""partition against an independent per-row LP oracle (scipy's HiGHS) on random
block instances whose split is fixed by construction."""

import numpy as np
import pytest
from hull_oracle import block_rows, margin_direction

from optray.dataset import MarginMatrix
from optray.decompose import partition, validate

scipy_opt = pytest.importorskip("scipy.optimize")
scipy_sparse = pytest.importorskip("scipy.sparse")

N_SEP, N_SC = 40, 30
# every rank of the remainder below d; 16 seeds each for d = 3-5, 32 for d = 6:
# 144 + 160 = 304 instances
BLOCK_CASES = [(d, r, s) for d in (3, 4, 5) for r in range(1, d) for s in range(1, 17)] + [
    (6, r, s) for r in range(1, 6) for s in range(1, 33)
]


def oracle_split(rows: np.ndarray) -> list:
    """Rows i for which HiGHS finds max s > 0 s.t. A u + s e_i <= 0, 0 <= s <= 1,
    |u|_inf <= 1.  The n per-row LPs share no variable, so they are solved as
    one block-diagonal LP (a third of the time of n linprog calls)."""
    n, d = rows.shape
    blocks = []
    for i in range(n):
        block = np.hstack([rows, np.zeros((n, 1))])
        block[i, d] = 1.0
        blocks.append(block)
    c = np.tile(np.r_[np.zeros(d), -1.0], n)  # linprog minimizes
    res = scipy_opt.linprog(
        c,
        A_ub=scipy_sparse.block_diag(blocks, format="csr"),
        b_ub=np.zeros(n * n),
        bounds=([(-1.0, 1.0)] * d + [(0.0, 1.0)]) * n,
        method="highs",
    )
    assert res.success, res.message
    return np.flatnonzero(res.x.reshape(n, d + 1)[:, d] > 1e-9).tolist()


def test_oracle_finds_the_constructed_split():
    # d = 4, remainder of rank 3, seed 3: the simplex-based partition reported
    # no separable row and rank_s = 4 here
    rows = block_rows(4, 3, N_SEP, N_SC, 3)
    assert oracle_split(rows) == list(range(N_SEP))
    dec = partition(MarginMatrix(rows))
    assert dec.sep_rows.tolist() == list(range(N_SEP))
    assert dec.rank_s == 3


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_partition_matches_highs_oracle_on_block_instances(d):
    wrong = []
    for dd, r, s in BLOCK_CASES:
        if dd != d:
            continue
        rows = block_rows(d, r, N_SEP, N_SC, s)
        A = MarginMatrix(rows)
        dec = partition(A)
        oracle = oracle_split(rows)
        assert oracle == list(range(N_SEP)), (d, r, s)
        if dec.sep_rows.tolist() != oracle or dec.rank_s != r or not validate(dec, A, margin_direction(dec)).ok:
            wrong.append((r, s))
    assert not wrong, f"d = {d}: partition differs from the oracle at (rank, seed) {wrong}"
