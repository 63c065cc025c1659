"""A fixed reference kernel that measures how fast the machine is right now.

The machine this benchmark was built on shares its cores with other
tenants, and the same computation ran anywhere from 1.46 s to 2.29 s
depending on their load, in swings that last minutes.  The reference
kernel runs before and after every repeat.  Its time tracks those swings
(correlation 0.85 with the selection workload's repeat times), so each
repeat's timings are rescaled to the speed at which the kernel takes
``REFERENCE_KERNEL_S``.

The kernel uses NumPy and plain Python only, never the package, so a change
to the package cannot move it.  It mixes the three kinds of work the
pipeline does: a scalar coordinate-descent loop, many small Gaussian-process
likelihood solves, and dense LAPACK solves.
"""

import math
import time

import numpy as np

# Kernel time, in seconds, on this machine when it is not contended; the
# scale that normalized figures are reported in.
REFERENCE_KERNEL_S = 0.2


def reference_kernel() -> float:
    """Run the fixed kernel once and return its wall time in seconds."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    u = [0.1 * (i % 13) for i in range(40)]
    r = [0.0] * 40
    for _ in range(500):
        for k in range(40):
            z = u[k] - 0.5 * r[k]
            r[k] = math.copysign(max(abs(z) - 0.01, 0.0), z) / 1.5
    x = rng.random((75, 1))
    y = rng.random(75)
    for _ in range(200):
        k = np.exp(-0.5 * (x - x.T) ** 2 / 0.1) + 0.05 * np.eye(75)
        low = np.linalg.cholesky(k)
        np.linalg.solve(k, np.column_stack([y, np.eye(75)]))
        float(np.sum(np.log(np.diagonal(low))))
    b = rng.random((500, 500))
    b = b @ b.T + 500 * np.eye(500)
    for _ in range(3):
        np.linalg.solve(b, np.eye(500))
    return time.perf_counter() - t0
