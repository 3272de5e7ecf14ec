"""A fixed reference computation that gauges how fast the machine runs now.

On a shared host the speed of one core drifts by 20% and more over minutes,
and the program's round times drift with it. The benchmark times this kernel
right before every case and reports each case's time as a multiple of it
(run.py), so a slow phase of the host slows both and cancels out.

The kernel imitates the program's mix: an explicit integration loop in
Python whose right-hand side factors and solves a 5x5 system on lists of
floats and does a few small numpy array operations. It imports nothing
from bentswimmer, so a change to the program never changes it. Do not edit
it either: every `*_ref` metric is measured in its units.
"""
from __future__ import annotations

import math
import time

import numpy as np

STEPS = 600


def _solve5(a: list[list[float]], b: list[float]) -> list[float]:
    """Gaussian elimination with partial pivoting on a copy of a 5x5 system."""
    a = [row[:] + [b[i]] for i, row in enumerate(a)]
    n = len(a)
    for k in range(n):
        p = max(range(k, n), key=lambda r: abs(a[r][k]))
        a[k], a[p] = a[p], a[k]
        inv = 1.0 / a[k][k]
        for r in range(k + 1, n):
            lam = a[r][k] * inv
            for c in range(k, n + 1):
                a[r][c] -= lam * a[k][c]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        s = a[r][n] - sum(a[r][c] * x[c] for c in range(r + 1, n))
        x[r] = s / a[r][r]
    return x


def _rhs(y: np.ndarray) -> np.ndarray:
    c, s = math.cos(y[3]), math.sin(y[4])
    a = [[4.0 + c, 0.3, 0.1 * s, 0.0, 0.2],
         [0.3, 3.0 + s * s, 0.2, 0.1 * c, 0.0],
         [0.1, 0.2, 5.0, 0.3, 0.1 * c],
         [0.0, 0.1 * s, 0.3, 2.0 + c * c, 0.2],
         [0.2, 0.0, 0.1, 0.2, 3.0]]
    v = np.array(_solve5(a, [float(t) for t in y]))
    return np.concatenate((v[:3] - 0.1 * y[:3], [0.5 * v[3] - y[3], -0.5 * y[4]]))


def run(steps: int = STEPS) -> np.ndarray:
    """RK4 on a 5-state system; returns the final state."""
    y = np.array([1.0, -0.5, 0.25, 0.3, -0.2])
    h = 1e-3
    for _ in range(steps):
        k1 = _rhs(y)
        k2 = _rhs(y + 0.5 * h * k1)
        k3 = _rhs(y + 0.5 * h * k2)
        k4 = _rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def timed() -> tuple[float, float]:
    """(wall_s, cpu_s) of one run of the kernel."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    run()
    return time.perf_counter() - t0, time.process_time() - c0
