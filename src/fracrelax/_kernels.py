"""The explicit scheme recurrence, the hot O(n^2) kernel of every solve.

The history convolution inside the time-stepping recurrence dominates the
runtime of every convergence sweep.  Each step forms its history sum with
``np.dot``.
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the recurrence implementation; there is a single numpy one."""
    return "numpy"


def recurrence(
    forcing: np.ndarray,
    weights: np.ndarray,
    corr: np.ndarray,
    startup_zeros: int,
    gamma_alpha: float,
    h_alpha: float,
) -> np.ndarray:
    """Explicit scheme recurrence; history sums via np.dot.

    forcing: F_0..F_n; weights[k] = k^(alpha-1) (weights[0] unused);
    corr[0] enters the denominator, corr[1:] multiply u_{m-1}, u_{m-2}, ...
    """
    n = forcing.shape[0] - 1
    u = np.zeros(n + 1)
    denom = gamma_alpha + corr[0] * h_alpha
    for m in range(startup_zeros + 1, n + 1):
        s = float(np.dot(u[m - 1:0:-1], weights[1:m]))
        for j in range(1, corr.shape[0]):
            s += corr[j] * u[m - j]
        u[m] = (gamma_alpha * forcing[m] - h_alpha * s) / denom
    return u
