"""Quadrature approximations of the fractional integrals I^alpha and K^alpha
on uniform grids, with zeta-coefficient end corrections of orders alpha
through 4+alpha, plus the fourth- and sixth-order corrected trapezoid rules.

Conventions follow the singular-kernel trapezoid sum: the node at t=0 enters
through the y(0) h / (2 x^(1-alpha)) term and the k=0 node (t=x, where the
kernel is singular) is omitted.

Every end correction comes from one expansion: at the singular end t = x,
the sum's error has the terms zeta_j h^(alpha+j) y^(j)(x), with
zeta_j = (-1)^j zeta(1-alpha-j)/j!.  The scheme weights take h^j y^(j) from
backward differences, hD = -log(1 - nabla).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .specfun import _zeta_em, bernoulli_numbers, gamma, gamma_ratio, zeta

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
    """End-corrected trapezoid approximation of K^alpha y(x), order 4 or 6: it
    subtracts the first `order` terms of the expansion at t = x and the
    Euler-Maclaurin terms B_2j/(2j)! h^2j g^(2j-1)(0), 2j < order, of
    g(t) = y(t) (x-t)^(alpha-1) at t = 0."""
    if order not in (4, 6):
        raise ValueError("order must be 4 or 6")
    deriv.require(order - 2, order)
    h, x = grid.h, grid.X
    zs = _zeta_coefficients(alpha, order)
    at_x = sum(z * h**j * d for j, (z, d) in enumerate(zip(zs, deriv.at_x)))
    # g^(r)(0) by Leibniz; d^i/dt^i (x-t)^(alpha-1) = (1-alpha)...(i-alpha) x^(alpha-1-i) at 0
    bern = bernoulli_numbers(order - 2)
    at_zero = 0.0
    for r in range(1, order - 2, 2):
        g_r = sum(math.comb(r, m) * deriv.at_zero[m] * x ** (alpha - 1 - r + m)
                  * math.prod(i - alpha for i in range(1, r - m + 1)) for m in range(r + 1))
        at_zero += float(bern[r + 1] / math.factorial(r + 1)) * h ** (r + 1) * g_r
    return trapezoid_K(grid, alpha) - (h**alpha * at_x - at_zero)


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
    """End-correction weights c_0..c_{k-1} for one approximation order.

    order_tag A carries no corrections (plain left Riemann history); A1..A4
    carry k = 1..4 weights: sum_l c_l y_{n-l} = -sum_{j<k} zeta_j (hD)^j y_n,
    the expansion's first k terms (module docstring), hD cut after nabla^(k-1).
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


def _zeta_coefficients(alpha: float, k: int) -> list[float]:
    """[zeta_j for j < k]; zeta(1-alpha) is summed from alpha itself, so that
    it keeps its relative accuracy at tiny alpha."""
    zs = (_zeta_em(1.0 - alpha, -alpha) if j == 0 and 1.0 - alpha >= -0.5
          else zeta((1.0 - j) - alpha) for j in range(k))
    return [(-1) ** j * z / math.factorial(j) for j, z in enumerate(zs)]


def _correction_weights(alpha: float, k: int) -> tuple[float, ...]:
    """c_0..c_{k-1} with sum_l c_l y_{n-l} = -sum_{j<k} zeta_j (hD)^j y_n."""
    # -sum_j zeta_j (hD)^j in powers of nabla; hD = sum_{i>=1} nabla^i / i
    in_nabla, hd_power = [0.0] * k, [1.0] + [0.0] * (k - 1)
    for z in _zeta_coefficients(alpha, k):
        in_nabla = [a - z * p for a, p in zip(in_nabla, hd_power)]
        hd_power = [sum(hd_power[m] / (i - m) for m in range(i)) for i in range(k)]
    # nabla^i y_n = sum_l (-1)^l C(i, l) y_{n-l}
    return tuple((-1) ** l * sum(math.comb(i, l) * a for i, a in enumerate(in_nabla))
                 for l in range(k))


def scheme_coefficients(alpha: float, order_tag: str) -> SchemeCoefficients:
    """Correction weights for the approximation of order alpha + k, k the tag
    index, from the expansion's first k terms (see SchemeCoefficients)."""
    if order_tag not in ORDER_TAGS:
        raise ValueError(f"order_tag must be one of {ORDER_TAGS}")
    if not alpha_in_range(alpha):
        raise ValueError("alpha must lie in (0,1) or (1,2), with 1 - alpha != 1")
    c = _correction_weights(alpha, ORDER_TAGS.index(order_tag))
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
