"""Benchmark the descent kernel: numba-compiled vs interpreted numpy.

The compiled entry points live next to their interpreted originals
(`gd_loop` vs `gd_loop_py`, ...), so both paths run in one process.  When
numba is disabled (OPTRAY_NO_NUMBA=1 or not installed) only the numpy path
is timed.  Also cross-checks that both paths agree numerically.

Run: python benchmarks/bench_kernels.py [steps]
"""

import sys
import time

import numpy as np

from optray import _kernels as K
from optray.dataset import synth, to_margin_matrix
from optray.decompose import partition


def time_call(fn, *args, repeat=3):
    best = np.inf
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench_gd_loop(T):
    A = to_margin_matrix(synth("mixed", 20, 1))
    dec = partition(A)
    rows = A.rows
    bs = dec.basis_s.columns
    args = (
        rows,
        np.ascontiguousarray(rows.T),
        np.ascontiguousarray(rows[dec.sep_rows].T),
        dec.sep_rows,
        np.ascontiguousarray(bs),
        np.ascontiguousarray(bs.T),
        K.LOGISTIC,
        K.INV_SQRT,
        T,
        np.array([1, 10, 100, T], dtype=np.int64),
    )
    if K.USE_NUMBA:
        K.gd_loop(*args)  # warm up the JIT before timing
    t_fast, out_fast = time_call(K.gd_loop, *args)
    t_py, out_py = time_call(K.gd_loop_py, *args, repeat=1)
    drift = float(np.max(np.abs(out_fast[2] - out_py[2])))
    return t_fast, t_py, drift


def main():
    T = int(sys.argv[1]) if len(sys.argv) > 1 else 100_000
    print(f"kernel path: {'numba' if K.USE_NUMBA else 'numpy (fallback)'}")
    print(f"{'kernel':<12} {'selected':>10} {'interpreted':>12} {'speedup':>8}  max|drift|")
    t_fast, t_py, drift = bench_gd_loop(T)
    print(f"{'gd_loop':<12} {t_fast:>9.3f}s {t_py:>11.3f}s {t_py / t_fast:>7.1f}x  {drift:.2e}")


if __name__ == "__main__":
    main()
