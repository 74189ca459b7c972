"""Time-stepping schemes for the integral equation y + I^alpha y = F and the
stability-bound evaluators that accompany them.

Five schemes are available, tagged A, A1, A2, A3, A4 with nominal convergence
orders alpha, 1+alpha, 2+alpha, 3+alpha, 4+alpha.  Each is the same explicit
causal recurrence with its own end-correction weights, a lower-triangular
Toeplitz system that fracrelax._kernels solves with FFTs in O(n log n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels
from .fracint import SchemeCoefficients, UniformGrid, power_weights, scheme_coefficients
from .specfun import gamma

__all__ = [
    "StabilityConstants",
    "solve",
    "solve_with_coefficients",
    "max_error",
    "theorem6_bound",
    "theorem11_constants",
    "claim5_partial_sum_check",
    "claim8_window_check",
]


class DegenerateDenominatorError(ArithmeticError):
    """Gamma(alpha) + c_0 h^alpha vanished; the recurrence cannot be formed."""


def solve_with_coefficients(
    forcing: Callable,
    coeffs: SchemeCoefficients,
    n: int,
    X: float = 1.0,
) -> UniformGrid:
    """Run the explicit recurrence with an arbitrary coefficient set."""
    startup_zeros = coeffs.startup_zeros
    if n < startup_zeros + 2:
        raise ValueError(f"n={n} too small for startup_zeros={startup_zeros}")
    alpha = coeffs.alpha
    h = X / n
    gam = gamma(alpha)
    h_alpha = h**alpha
    c0 = coeffs.c[0] if coeffs.c else 0.0
    if abs(gam + c0 * h_alpha) <= 1e-12:
        raise DegenerateDenominatorError(
            f"Gamma(alpha) + c_0 h^alpha degenerate for alpha={alpha}, h={h}"
        )
    F = np.asarray(forcing(np.linspace(0.0, X, n + 1)), dtype=float)
    w = power_weights(alpha, n)
    corr = np.asarray(coeffs.c, dtype=float)
    u = _kernels.recurrence(F, w, corr, startup_zeros, gam, h_alpha)
    return UniformGrid(X=X, n=n, values=u)


def solve(problem, scheme: str, n: int) -> UniformGrid:
    """Numerical solution u_0..u_n of problem.forcing's integral equation on
    [0, problem.X] by the scheme with tag `scheme` (one of fracint.ORDER_TAGS);
    u_0 = 0 and the scheme's startup values are prescribed zero.
    """
    coeffs = scheme_coefficients(problem.alpha, scheme)
    return solve_with_coefficients(problem.forcing, coeffs, n, X=problem.X)


def max_error(numeric: UniformGrid, exact: Callable, skip: int = 0) -> float:
    """max over m >= 1 + skip of |u_m - y(x_m)|.

    skip > 0 excludes prescribed startup nodes, whose error is the exact
    solution value itself rather than a property of the recurrence.
    """
    lo = 1 + skip
    x = numeric.nodes[lo:]
    return float(np.max(np.abs(numeric.values[lo:] - np.asarray(exact(x), dtype=float))))


@dataclass(frozen=True)
class StabilityConstants:
    """Error-bound constants for the order-alpha scheme, 0 < alpha < 1."""

    alpha: float
    A: float
    C0: float
    C1: float
    C2: float

    def __post_init__(self):
        if not self.C0 > 0.0:
            raise ValueError("C0 must be positive")
        if not (self.C2 > self.C0 and self.C2 > self.C1):
            raise ValueError("C2 must exceed max(C0, C1)")


def theorem6_bound(alpha: float, A: float) -> float:
    """Bound constant Gamma(alpha+1) A / (Gamma(alpha+1) - 1) for 1 < alpha < 2.

    The order-alpha scheme error satisfies |e_m| < bound * h^alpha.
    """
    if not (1.0 < alpha < 2.0):
        raise ValueError("theorem6_bound requires 1 < alpha < 2")
    if A <= 0.0:
        raise ValueError("A must be positive")
    g = gamma(alpha + 1.0)
    return g * A / (g - 1.0)


def theorem11_constants(alpha: float, A: float) -> StabilityConstants:
    """Constants C0, C1, C2 bounding the order-alpha scheme error, 0 < alpha < 1."""
    if not (0.0 < alpha < 1.0):
        raise ValueError("theorem11_constants requires 0 < alpha < 1")
    if A <= 0.0:
        raise ValueError("A must be positive")
    g1 = 2.0**alpha * gamma(1.0 + alpha)
    C0 = g1 * A / (g1 - 1.0)
    C1 = (2.0 ** (1.0 - alpha) * C0 + gamma(alpha) * A) / gamma(alpha)
    C2 = (C0 + g1 * C1) / (g1 - 1.0)
    return StabilityConstants(alpha=alpha, A=A, C0=C0, C1=C1, C2=C2)


def claim5_partial_sum_check(alpha: float, m: int) -> bool:
    """Direct check of 1 + 2^(alpha-1) + ... + (m-1)^(alpha-1) < m^alpha / alpha."""
    if m < 2:
        raise ValueError("m must be >= 2")
    k = np.arange(1, m, dtype=float)
    return float(np.sum(k ** (alpha - 1.0))) < m**alpha / alpha


def claim8_window_check(alpha: float, m: int, n: int) -> bool:
    """Direct check of m^(alpha-1) + ... + n^(alpha-1) < (n^alpha - (m-1)^alpha)/alpha
    for 0 < alpha < 1 and 2 <= m <= n.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("claim8 window check requires 0 < alpha < 1")
    if m < 2 or n < m:
        raise ValueError("need 2 <= m <= n")
    k = np.arange(m, n + 1, dtype=float)
    lhs = float(np.sum(k ** (alpha - 1.0)))
    return lhs < (n**alpha - (m - 1.0) ** alpha) / alpha


def local_truncation_coefficients(problem, n: int) -> np.ndarray:
    """a_m values of the order-alpha scheme: the residual of the exact solution
    in the recurrence, divided by h^alpha.  a_0 is set to 0.
    """
    h = problem.X / n
    x = np.linspace(0.0, problem.X, n + 1)
    y = np.asarray(problem.exact(x), dtype=float)
    F = np.asarray(problem.forcing(x), dtype=float)
    alpha = problem.alpha
    w = power_weights(alpha, n)
    gam = gamma(alpha)
    h_alpha = h**alpha
    # hist_m = sum_{k=1}^{m-1} w_k y_{m-k}; the full convolution adds w_m y_0.
    hist = np.convolve(y, w)[: n + 1] - w * y[0]
    a = (y + h_alpha / gam * hist - F) / h_alpha
    a[0] = 0.0
    return a
