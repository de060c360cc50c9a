"""Kernel-level checks: compiled/interpreted equivalence and the env switch."""

import os
import subprocess
import sys

import numpy as np
import pytest

from optray import _kernels as K
from optray.dataset import synth, to_margin_matrix
from optray.decompose import partition


def _loop_args(T=500):
    A = to_margin_matrix(synth("mixed", 6, 1))
    dec = partition(A)
    rows = A.rows
    bs = dec.basis_s.columns
    return (
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


@pytest.mark.skipif(not K.USE_NUMBA, reason="numba path not active")
def test_gd_loop_compiled_matches_interpreted():
    args = _loop_args()
    fast = K.gd_loop(*args)
    slow = K.gd_loop_py(*args)
    assert fast[0] == slow[0] and fast[1] == slow[1]
    for a, b in zip(fast[2:13], slow[2:13]):
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-14)


def test_env_flag_selects_numpy_path():
    env = dict(os.environ, OPTRAY_NO_NUMBA="1")
    out = subprocess.run(
        [sys.executable, "-c", "from optray import _kernels as K; print(K.USE_NUMBA)"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "False"


def test_overflow_status_from_oversized_rows():
    # one huge row makes the very first step jump past the float64 range
    A = np.array([[-40.0]])
    out = K.gd_loop(
        A,
        np.ascontiguousarray(A.T),
        np.ascontiguousarray(A.T),
        np.array([0], dtype=np.int64),
        np.zeros((1, 0)),
        np.zeros((0, 1)),
        K.EXPONENTIAL,
        K.CONSTANT_ONE,
        100,
        np.array([1, 100], dtype=np.int64),
    )
    assert out[0] == K.STATUS_OVERFLOW


def test_step_assert_on_denormalized_rows():
    # rows above unit norm break the effective-step contract eta*risk <= 1
    A = np.array([[-1.0], [2.0]])
    out = K.gd_loop(
        A,
        np.ascontiguousarray(A.T),
        np.ascontiguousarray(A.T),
        np.array([0, 1], dtype=np.int64),
        np.zeros((1, 0)),
        np.zeros((0, 1)),
        K.EXPONENTIAL,
        K.CONSTANT_ONE,
        100,
        np.array([1, 100], dtype=np.int64),
    )
    assert out[0] == K.STATUS_STEP_ASSERT
