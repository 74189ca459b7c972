"""Quadrature approximations of the fractional integrals I^alpha and K^alpha
on uniform grids, with zeta-coefficient end corrections of orders alpha
through 4+alpha, plus the fourth- and sixth-order corrected trapezoid rules.

Conventions follow the singular-kernel trapezoid sum: the node at t=0 enters
through the y(0) h / (2 x^(1-alpha)) term and the k=0 node (t=x, where the
kernel is singular) is omitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .specfun import bernoulli_numbers, gamma, gamma_ratio, zeta

__all__ = [
    "UniformGrid",
    "EndpointDerivatives",
    "SchemeCoefficients",
    "STARTUP_ZEROS",
    "frac_integral_exact_power",
    "trapezoid_K",
    "corrected_trapezoid_K",
    "riemann_left_I",
    "alpha_in_range",
    "scheme_coefficients",
    "corrected_sum_I",
    "sum_of_powers",
    "power_weights",
]

# Scheme tags with the number of prescribed zero values beyond u_0 in each
# matching time-stepping scheme (A3 prescribes u_1 = 0, A4 u_1 = u_2 = 0).
STARTUP_ZEROS = {"A": 0, "A1": 0, "A2": 0, "A3": 1, "A4": 2}
ORDER_TAGS = tuple(STARTUP_ZEROS)


@dataclass(frozen=True)
class UniformGrid:
    """Samples y_k = y(k h) on [0, X] with h = X/n."""

    X: float
    n: int
    values: np.ndarray

    def __post_init__(self):
        if self.X <= 0.0:
            raise ValueError("X must be positive")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.n + 1,):
            raise ValueError(f"expected {self.n + 1} samples, got {vals.shape}")
        object.__setattr__(self, "values", vals)

    @property
    def h(self) -> float:
        return self.X / self.n

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.X, self.n + 1)

    @classmethod
    def sample(cls, f: Callable[[np.ndarray], np.ndarray], X: float, n: int) -> "UniformGrid":
        x = np.linspace(0.0, X, n + 1)
        return cls(X=X, n=n, values=np.asarray(f(x), dtype=float))


@dataclass(frozen=True)
class EndpointDerivatives:
    """Analytic derivative values at the two endpoints.

    at_zero holds (y(0), y'(0), y''(0), y'''(0)); at_x holds
    (y(x), y'(x), ..., y^(5)(x)).  Only the leading entries demanded by the
    requested correction order need be present.
    """

    at_zero: tuple[float, ...]
    at_x: tuple[float, ...]

    def require(self, n_zero: int, n_x: int) -> None:
        if len(self.at_zero) < n_zero or len(self.at_x) < n_x:
            raise ValueError(
                f"need {n_zero} derivatives at 0 and {n_x} at x, "
                f"got {len(self.at_zero)} and {len(self.at_x)}"
            )


def power_weights(alpha: float, n: int) -> np.ndarray:
    """Weights w_k = k^(alpha-1) for k = 0..n (w_0 set to 0)."""
    w = np.arange(n + 1, dtype=float)
    with np.errstate(divide="ignore"):
        w = w ** (alpha - 1.0)
    w[0] = 0.0
    return w


def frac_integral_exact_power(p: float, alpha: float, x: float) -> float:
    """I^alpha x^p = Gamma(p+1)/Gamma(p+alpha+1) x^(p+alpha)."""
    if p <= -1.0:
        raise ValueError("power rule requires p > -1")
    if x == 0.0:
        return 0.0
    return gamma_ratio(p + 1.0, p + alpha + 1.0) * x ** (p + alpha)


def trapezoid_K(grid: UniformGrid, alpha: float) -> float:
    """Singular-kernel trapezoid sum for K^alpha y(x) = int_0^x y/(x-t)^(1-alpha) dt.

    h^alpha sum_{k=1}^{n-1} y(x-kh)/k^(1-alpha) + y(0) h / (2 x^(1-alpha));
    leading error is zeta(1-alpha) y(x) h^alpha.
    """
    if grid.n < 2:
        raise ValueError("trapezoid_K needs n >= 2")
    y = grid.values
    n, h, x = grid.n, grid.h, grid.X
    w = power_weights(alpha, n)
    hist = float(np.dot(y[n - 1:0:-1], w[1:n]))
    return h**alpha * hist + y[0] * h / (2.0 * x ** (1.0 - alpha))


def corrected_trapezoid_K(
    grid: UniformGrid, alpha: float, deriv: EndpointDerivatives, order: int
) -> float:
    """End-corrected trapezoid approximation of K^alpha y(x), order 4 or 6."""
    if order not in (4, 6):
        raise ValueError("order must be 4 or 6")
    if order == 4:
        deriv.require(2, 4)
    else:
        deriv.require(4, 6)
    h, x = grid.h, grid.X
    y0 = deriv.at_zero
    yx = deriv.at_x
    ha = h**alpha

    corr = (alpha - 1.0) * x ** (alpha - 2.0) * y0[0] * h * h / 12.0
    if len(y0) > 1:
        corr -= x ** (alpha - 1.0) * y0[1] * h * h / 12.0
    corr += zeta(1.0 - alpha) * yx[0] * ha
    corr -= zeta(-alpha) * yx[1] * h * ha
    corr += zeta(-1.0 - alpha) * yx[2] / 2.0 * h**2 * ha
    corr -= zeta(-2.0 - alpha) * yx[3] / 6.0 * h**3 * ha
    if order == 6:
        corr += zeta(-3.0 - alpha) * yx[4] / 24.0 * h**4 * ha
        corr -= zeta(-4.0 - alpha) * yx[5] / 120.0 * h**5 * ha
        corr += (
            (3.0 - alpha) * (2.0 - alpha) * (1.0 - alpha) * x ** (alpha - 4.0) * y0[0]
            + 3.0 * (2.0 - alpha) * (1.0 - alpha) * x ** (alpha - 3.0) * y0[1]
            + 3.0 * (1.0 - alpha) * x ** (alpha - 2.0) * y0[2]
            + x ** (alpha - 1.0) * y0[3]
        ) * h**4 / 720.0
    return trapezoid_K(grid, alpha) - corr


def riemann_left_I(grid: UniformGrid, alpha: float) -> float:
    """Left Riemann sum (h^alpha/Gamma(alpha)) sum_{k=1}^n y_{n-k}/k^(1-alpha).

    Approximates I^alpha y(x) with accuracy O(h^alpha) when y(0)=y'(0)=0.
    """
    y = grid.values
    n = grid.n
    w = power_weights(alpha, n)
    hist = float(np.dot(y[n - 1:: -1], w[1: n + 1]))
    return grid.h**alpha / gamma(alpha) * hist


@dataclass(frozen=True)
class SchemeCoefficients:
    """End-correction weights c_0..c_j for one approximation order.

    order_tag A carries no corrections (plain left Riemann history); A1..A4
    carry 1..4 weights built from zeta(1-alpha)..zeta(-2-alpha).
    """

    alpha: float
    order_tag: str
    c: tuple[float, ...]

    @property
    def nominal_order(self) -> float:
        return self.alpha + ORDER_TAGS.index(self.order_tag)

    @property
    def startup_zeros(self) -> int:
        return STARTUP_ZEROS[self.order_tag]


def alpha_in_range(alpha: float) -> bool:
    """True when alpha lies in (0,1) or (1,2), where the schemes are defined,
    and 1 - alpha does not round to 1, the pole of the end corrections' zeta."""
    return 0.0 < alpha < 2.0 and alpha != 1.0 and 1.0 - alpha != 1.0


def scheme_coefficients(alpha: float, order_tag: str) -> SchemeCoefficients:
    """Correction weights for the approximation of order alpha + tag index.

    Note: the closed form of c_1 for tag A3 is -2 zeta(-alpha) + zeta(-1-alpha);
    this is forced by the backward-difference substitution and by the
    telescoping identity sum_j c_j = -zeta(1-alpha).
    """
    if order_tag not in ORDER_TAGS:
        raise ValueError(f"order_tag must be one of {ORDER_TAGS}")
    if not alpha_in_range(alpha):
        raise ValueError("alpha must lie in (0,1) or (1,2), with 1 - alpha != 1")
    z1 = zeta(1.0 - alpha)
    z0 = zeta(-alpha)
    zm1 = zeta(-1.0 - alpha)
    zm2 = zeta(-2.0 - alpha)
    if order_tag == "A":
        c: tuple[float, ...] = ()
    elif order_tag == "A1":
        c = (-z1,)
    elif order_tag == "A2":
        c = (z0 - z1, -z0)
    elif order_tag == "A3":
        c = (
            1.5 * z0 - 0.5 * zm1 - z1,
            -2.0 * z0 + zm1,
            0.5 * z0 - 0.5 * zm1,
        )
    else:  # A4
        c = (
            11.0 / 6.0 * z0 - zm1 + zm2 / 6.0 - z1,
            -3.0 * z0 + 2.5 * zm1 - 0.5 * zm2,
            1.5 * z0 - 2.0 * zm1 + 0.5 * zm2,
            -z0 / 3.0 + 0.5 * zm1 - zm2 / 6.0,
        )
    return SchemeCoefficients(alpha=alpha, order_tag=order_tag, c=c)


def corrected_sum_I(grid: UniformGrid, coeffs: SchemeCoefficients) -> float:
    """(h^alpha/Gamma(alpha)) (sum_j c_j y_{n-j} + sum_{k=1}^{n-1} y_{n-k}/k^(1-alpha)).

    Approximates I^alpha y(x_n) with error O(h^(alpha + tag index)) under the
    matching vanishing-derivative conditions at t=0.
    """
    y = grid.values
    n = grid.n
    if n <= len(coeffs.c):
        raise ValueError(f"grid too short for {coeffs.order_tag}: n={n}")
    alpha = coeffs.alpha
    w = power_weights(alpha, n)
    hist = float(np.dot(y[n - 1:0:-1], w[1:n]))
    for j, cj in enumerate(coeffs.c):
        hist += cj * y[n - j]
    return grid.h**alpha / gamma(alpha) * hist


def sum_of_powers(alpha: float, n: int, m_terms: int) -> float:
    """Asymptotic value of sum_{k=1}^{n-1} k^alpha.

    zeta(-alpha) + n^(1+alpha)/(1+alpha) sum_{m=0}^{m_terms} C(1+alpha,m) B_m / n^m,
    with first-kind Bernoulli numbers (B_1 = -1/2).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if m_terms > 10:
        raise ValueError("m_terms capped at 10")
    bern = [float(b) for b in bernoulli_numbers(m_terms)]
    acc = 0.0
    binom = 1.0
    for m in range(m_terms + 1):
        acc += binom * bern[m] / n**m
        binom *= (1.0 + alpha - m) / (m + 1.0)
    return zeta(-alpha) + n ** (1.0 + alpha) / (1.0 + alpha) * acc
