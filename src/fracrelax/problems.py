"""Closed-form benchmark integral equations y + I^alpha y = F.

Three families:

* power:  y = x^p with polynomial-plus-power forcing,
* exp:    y = e^x minus its Taylor polynomial of degree m,
* ml:     y = the Mittag-Leffler tail remainder of E_alpha(-x^alpha) past its
          fractional Taylor polynomial of degree m.

Each factory returns an immutable problem with vectorized forcing/exact
evaluators, and make_problem builds one by its kind's name; residual_check
validates the (F, y) pair against a high-resolution end-corrected quadrature.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fracint import UniformGrid, corrected_sum_I, scheme_coefficients
from .specfun import gamma, mittag_leffler, power_rule_coefficient

__all__ = [
    "BenchmarkProblem",
    "make_power_problem",
    "make_exp_problem",
    "make_ml_problem",
    "PROBLEM_KINDS",
    "make_problem",
    "residual_check",
]


@dataclass(frozen=True)
class BenchmarkProblem:
    """An integral equation y + I^alpha y = F with known exact solution.

    vanishing_order counts how many derivatives of y vanish at 0 (y(0)=0
    always holds; vanishing_order=1 additionally means y'(0)=0, etc.).
    """

    alpha: float
    X: float
    forcing: Callable[[np.ndarray], np.ndarray]
    exact: Callable[[np.ndarray], np.ndarray]
    label: str
    vanishing_order: int


# The exp problem's forcing e^x + I^alpha e^x approaches 2 e^x; a factor e
# below the largest double keeps it finite on [0, X].
_EXP_X_MAX = math.log(sys.float_info.max) - 1.0


def _require_finite_positive(kind: str, **values: float) -> None:
    """Refuse any of the kind's named values that is not finite and positive."""
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{kind} problem requires a finite positive {name}, got {value:g}")


def make_power_problem(p: float, alpha: float, X: float = 1.0) -> BenchmarkProblem:
    """y = x^p, F = x^p + Gamma(p+1)/Gamma(p+alpha+1) x^(p+alpha)."""
    if p <= 0.0:
        raise ValueError("power problem requires p > 0")
    _require_finite_positive("power", p=p, alpha=alpha, X=X)
    try:
        coef = power_rule_coefficient(p, alpha)
    except OverflowError:
        raise ValueError(f"power problem's Gamma(p+1)/Gamma(p+alpha+1) leaves the double "
                         f"range at p={p:g}") from None

    def exact(x):
        x = np.asarray(x, dtype=float)
        return x**p

    def forcing(x):
        x = np.asarray(x, dtype=float)
        return x**p + coef * x ** (p + alpha)

    vanish = int(p) - 1 if float(p).is_integer() else math.ceil(p) - 1
    return BenchmarkProblem(
        alpha=alpha,
        X=X,
        forcing=forcing,
        exact=exact,
        label=f"power[p={p:g}]",
        vanishing_order=vanish,
    )


def make_exp_problem(m: int, alpha: float, X: float = 1.0) -> BenchmarkProblem:
    """y = e^x - sum_{k=0}^m x^k/k!  (the degree-m Taylor remainder of e^x)."""
    if not 0 <= m <= 12:
        raise ValueError("exp problem requires 0 <= m <= 12")
    if X > _EXP_X_MAX:
        raise ValueError(
            f"exp problem requires X <= {_EXP_X_MAX:.2f}, got {X:g}: "
            "its forcing overflows a double"
        )
    _require_finite_positive("exp", alpha=alpha, X=X)
    try:
        gammas = [gamma(k + 1.0 + alpha) for k in range(m + 1)]
    except OverflowError:
        raise ValueError(f"exp problem requires Gamma(m+1+alpha) within the double range, "
                         f"got m={m}, alpha={alpha:g}") from None

    def exact(x):
        x = np.asarray(x, dtype=float)
        out = np.exp(x)
        for k in range(m + 1):
            out = out - x**k / math.factorial(k)
        return out

    def forcing(x):
        x = np.asarray(x, dtype=float)
        out = np.exp(x) + x**alpha * mittag_leffler(1.0, 1.0 + alpha, x)
        for k in range(m + 1):
            out = out - x ** (k + alpha) / gammas[k] - x**k / math.factorial(k)
        return out

    return BenchmarkProblem(
        alpha=alpha,
        X=X,
        forcing=forcing,
        exact=exact,
        label=f"exp[m={m}]",
        vanishing_order=m,
    )


def make_ml_problem(m: int, alpha: float, X: float = 1.0) -> BenchmarkProblem:
    """y = E_alpha(-x^alpha) + Gamma(1+2a) x^(3a) E_{a,1+3a}(-x^a) minus its
    fractional Taylor polynomial of degree m; the forcing is a single power.

    Since E_a(z) = 1 + z/Gamma(1+a) + z^2/Gamma(1+2a) + z^3 E_{a,1+3a}(z),
    y = (Gamma(1+2a) - 1) (x^(3a) E_{a,1+3a}(-x^a) + sum_{k=3..m} (-1)^k
    x^(ka) / Gamma(1+ka)), which exact evaluates with one Mittag-Leffler call
    and without the O(1) terms that cancel in the first form.
    """
    if m < 2:
        raise ValueError("ml problem requires m >= 2")
    _require_finite_positive("ml", alpha=alpha, X=X)
    try:
        g2 = gamma(1.0 + 2.0 * alpha)
        fcoef = (-1.0) ** m * (g2 - 1.0) / gamma(1.0 + (m + 1.0) * alpha)
    except OverflowError:
        raise ValueError(
            f"ml problem requires Gamma(1 + (m+1)*alpha) within the double range, "
            f"got m={m}, alpha={alpha:g}"
        ) from None
    if abs(g2 - 1.0) < 1e-8:
        raise ValueError(f"ml problem's forcing is 0: Gamma(1+2*alpha) = 1 at alpha={alpha:g}")

    def forcing(x):
        x = np.asarray(x, dtype=float)
        return fcoef * x ** ((m + 1.0) * alpha)

    def exact(x):
        x = np.asarray(x, dtype=float)
        out = x ** (3.0 * alpha) * mittag_leffler(alpha, 1.0 + 3.0 * alpha, -(x**alpha))
        for k in range(3, m + 1):
            out = out + (-1.0) ** k * x ** (k * alpha) / gamma(1.0 + k * alpha)
        return (g2 - 1.0) * out

    vanish = math.ceil((m + 1) * alpha) - 1
    return BenchmarkProblem(
        alpha=alpha,
        X=X,
        forcing=forcing,
        exact=exact,
        label=f"ml[m={m}]",
        vanishing_order=vanish,
    )


# the kinds of make_problem, each built by its factory make_<kind>_problem
PROBLEM_KINDS = ("power", "exp", "ml")


def make_problem(kind: str, param: float, alpha: float, X: float = 1.0) -> BenchmarkProblem:
    """The problem of a kind in PROBLEM_KINDS: make_<kind>_problem(param,
    alpha, X), param being p for power and the integer m for exp and ml.  The
    factory is looked up at each call, so a wrapper bound in its place (such
    as a profiler's) sees every problem made."""
    if kind not in PROBLEM_KINDS:
        raise ValueError(f"unknown problem kind {kind!r}")
    return globals()[f"make_{kind}_problem"](param, alpha, X=X)


def residual_check(problem: BenchmarkProblem, samples: int = 20, n: int = 4096) -> float:
    """max over sample points of |y(x) + Q(x) - F(x)| with Q a high-resolution
    end-corrected (order 4+alpha) quadrature of I^alpha y.  Raises ValueError
    when y or F is not finite on the points it is evaluated at, or Q is not
    finite.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    x = np.linspace(0.0, problem.X, n + 1)
    ms = [(j * n) // samples for j in range(1, samples + 1)]
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.asarray(problem.exact(x), dtype=float)
        f = np.asarray(problem.forcing(x[ms]), dtype=float)
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(f))):
        raise ValueError(f"forcing or exact solution is not finite on [0, {problem.X:g}]")
    coeffs = scheme_coefficients(problem.alpha, "A4")
    worst = 0.0
    for m, f_m in zip(ms, f):
        grid = UniformGrid(X=x[m], n=m, values=y[: m + 1])
        with np.errstate(over="ignore", invalid="ignore"):
            q = corrected_sum_I(grid, coeffs)
        if not math.isfinite(q):
            raise ValueError(f"quadrature of I^alpha y is not finite on "
                             f"[0, {problem.X:g}] at n={n}")
        worst = max(worst, abs(y[m] + q - float(f_m)))
    return worst
