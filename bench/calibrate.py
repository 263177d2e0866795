"""Machine-speed probe timed beside every call.

On a host shared with other tenants the speed of one core drifts by 15-30%
over minutes, so raw wall times of the same code differ between runs by
more than any useful regression bound.  ``kernel`` is a fixed mix of the
work the workloads do (interpreter loops, small numpy vector operations,
a sparse LU factorization and solve) that uses no chbs code.  The child
times it just before and just after each call, and the benchmark reports
the call's wall time over the kernel's time: the drift cancels, while a
change to chbs moves the ratio as it moves the wall time.
"""

import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

_N = 40
_ROUNDS = 12
_LAPLACIAN = (sp.kron(sp.identity(_N), sp.diags([-1, 4, -1], [-1, 0, 1], (_N, _N), dtype=float))
              + sp.kron(sp.diags([-1, -1], [-1, 1], (_N, _N), dtype=float),
                        sp.identity(_N))).tocsc()


def kernel():
    """Run the probe once; return its wall time in seconds."""
    start = time.perf_counter()
    for _ in range(_ROUNDS):
        acc = 0
        for i in range(60_000):
            acc += i * i
        a = np.linspace(0.0, 1.0, 300)
        for _ in range(1000):
            a = np.sqrt(a * a + 1e-3) * 0.999
        splu(_LAPLACIAN).solve(np.ones(_N * _N))
    return time.perf_counter() - start
