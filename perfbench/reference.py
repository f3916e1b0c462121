"""A fixed reference kernel that times the host, not oddflow.

The host this benchmark runs on is shared, and its speed drifts by tens
of percent over tens of seconds.  The kernel is timed right after each
set-up and between solves, so a run records how fast the host was
around every timing.  `scale` turns a time into seconds on a nominal
host, on which the kernel takes NOMINAL_S.  The kernel uses only numpy
and scipy, in the mix the workloads use: 2D transforms of small planes,
elementwise work on large arrays and a sparse LU factorization.  No
change to oddflow moves it.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# The kernel's time on a nominal host: about its median on a 2-core
# Xeon VM (numpy 2.4.6, scipy 1.17.1).
NOMINAL_S = 0.060


def inputs():
    """The kernel's arrays, built once per process and outside its timing."""
    rng = np.random.default_rng(0)
    n = 48
    lap1 = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1])
    eye = sp.identity(n)
    lap = (sp.kron(lap1, eye) + sp.kron(eye, lap1)).tocsc()
    return (rng.standard_normal((4, 64, 64)), rng.standard_normal((2, 256, 256)),
            lap @ lap + sp.identity(n * n, format="csc"), rng.standard_normal(n * n))


def timed(data):
    """Seconds one run of the kernel on `inputs()` takes.  The result is
    used, so that nothing is skipped."""
    planes, big, matrix, rhs = data
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(40):
        acc += float(np.fft.irfft2(np.fft.rfft2(planes) * 0.5, s=planes.shape[-2:])[0, 0, 0])
    for _ in range(20):
        acc += float((np.sin(big) * big + big)[0, 0, 0])
    acc += float(spla.splu(matrix).solve(rhs)[0])
    elapsed = time.perf_counter() - t0
    if not np.isfinite(acc):
        raise FloatingPointError("reference kernel result is not finite")
    return elapsed


def scale(seconds, ref_s):
    """`seconds` measured where the kernel took `ref_s`, in seconds on
    the nominal host."""
    return seconds * NOMINAL_S / ref_s
