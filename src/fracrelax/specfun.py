"""Real-argument special functions: Gamma, digamma, Riemann zeta, Bernoulli
numbers, the two-parameter Mittag-Leffler function and the polylogarithm.

All functions are pure and operate on ordinary Python floats.  Precomputed
tables (Lanczos coefficients, Borwein weights) are built once at import time
and never mutated, so every entry point is safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "EULER_GAMMA",
    "BernoulliTable",
    "gamma",
    "digamma",
    "zeta",
    "bernoulli_numbers",
    "mittag_leffler",
    "polylog",
]

EULER_GAMMA = 0.5772156649015328606


class SpecialFunctionError(ValueError):
    """Raised for pole/domain violations and non-convergent series."""


class PoleError(SpecialFunctionError):
    pass


class ConvergenceError(SpecialFunctionError):
    pass


# ---------------------------------------------------------------------------
# Gamma and digamma
# ---------------------------------------------------------------------------

# Lanczos approximation, g = 7, 9 coefficients.  Relative accuracy is a few
# ulps on the positive axis; the reflection formula covers x < 0.5.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def gamma(x: float) -> float:
    """Gamma function for real x, poles excluded."""
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at x={x}")
    if x < 0.5:
        # reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x)
        return math.pi / (math.sin(math.pi * x) * gamma(1.0 - x))
    z = x - 1.0
    acc = _LANCZOS_COEF[0]
    for i in range(1, len(_LANCZOS_COEF)):
        acc += _LANCZOS_COEF[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * acc


# Asymptotic series coefficients B_{2n}/(2n) for digamma, n = 1..7.
_DIGAMMA_ASYMP = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


def digamma(x: float) -> float:
    """Digamma function Psi(x) for real x, poles excluded."""
    if _is_nonpositive_integer(x):
        raise PoleError(f"digamma pole at x={x}")
    if x < 0.0:
        # reflection: Psi(1-x) - Psi(x) = pi cot(pi x)
        return digamma(1.0 - x) - math.pi / math.tan(math.pi * x)
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = 0.0
    power = inv2
    for coef in _DIGAMMA_ASYMP:
        series += coef * power
        power *= inv2
    return acc + math.log(x) - 0.5 / x - series


# ---------------------------------------------------------------------------
# Riemann zeta
# ---------------------------------------------------------------------------

_BORWEIN_N = 30


def _borwein_weights(n: int) -> tuple[float, ...]:
    d = [Fraction(0)] * (n + 1)
    acc = Fraction(0)
    for i in range(n + 1):
        acc += Fraction(
            math.factorial(n + i - 1) * 4**i,
            math.factorial(n - i) * math.factorial(2 * i),
        )
        d[i] = n * acc
    return tuple(float(v) for v in d)


_BORWEIN_D = _borwein_weights(_BORWEIN_N)


def _eta(s: float) -> float:
    """Dirichlet eta via Borwein's fixed 30-term acceleration (s > 0)."""
    n = _BORWEIN_N
    dn = _BORWEIN_D[n]
    acc = 0.0
    sign = 1.0
    for k in range(n):
        acc += sign * (_BORWEIN_D[k] - dn) / (k + 1) ** s
        sign = -sign
    return -acc / dn


def zeta(s: float) -> float:
    """Riemann zeta function on the real line, s != 1."""
    if s == 1.0:
        raise PoleError("zeta pole at s=1")
    if s >= 0.0:
        return _eta(s) / (1.0 - 2.0 ** (1.0 - s))
    # functional equation: zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s)
    return (
        2.0**s
        * math.pi ** (s - 1.0)
        * math.sin(math.pi * s / 2.0)
        * gamma(1.0 - s)
        * zeta(1.0 - s)
    )


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BernoulliTable:
    """Bernoulli numbers B_0..B_n as exact rationals.

    kind "first" has B_1 = -1/2, kind "second" has B_1 = +1/2; all other
    entries coincide.
    """

    kind: str
    values: tuple[Fraction, ...]

    def __getitem__(self, n: int) -> Fraction:
        return self.values[n]

    def __len__(self) -> int:
        return len(self.values)

    def as_floats(self) -> list[float]:
        return [float(v) for v in self.values]


_BERNOULLI_MAX = 60


def bernoulli_numbers(n_max: int, kind: str = "first") -> BernoulliTable:
    """Bernoulli numbers B_0..B_n_max from the exact convolution recurrence."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max > _BERNOULLI_MAX:
        raise OverflowError(f"Bernoulli table capped at n={_BERNOULLI_MAX}")
    if kind not in ("first", "second"):
        raise ValueError(f"unknown Bernoulli kind {kind!r}")
    b: list[Fraction] = [Fraction(1)]
    for n in range(1, n_max + 1):
        # sum_{k=0}^{n} C(n+1, k) B_k = 0  solved for B_n
        acc = Fraction(0)
        for k in range(n):
            acc += math.comb(n + 1, k) * b[k]
        b.append(-acc / (n + 1))
    if kind == "second" and n_max >= 1:
        b[1] = -b[1]
    return BernoulliTable(kind=kind, values=tuple(b))


# ---------------------------------------------------------------------------
# Mittag-Leffler and polylogarithm
# ---------------------------------------------------------------------------

_ML_MAX_TERMS = 10_000
_ML_RTOL = 1e-16


def mittag_leffler(alpha: float, beta: float, z: float) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z).

    Direct series with compensated (Kahan) accumulation; terms with a gamma
    argument past the double-precision range are evaluated in log space.
    Raises ConvergenceError if the term-magnitude guard is not met within
    10,000 terms.
    """
    if alpha <= 0.0:
        raise ValueError("mittag_leffler requires alpha > 0")
    total = 0.0
    comp = 0.0
    zn = 1.0
    logabsz = math.log(abs(z)) if z != 0.0 else -math.inf
    for n in range(_ML_MAX_TERMS):
        arg = alpha * n + beta
        if arg > 170.0 or n * logabsz > 690.0:
            # gamma(arg) or z^n would overflow a double; work in log space
            sign = -1.0 if (z < 0.0 and n % 2) else 1.0
            log_term = n * logabsz - math.lgamma(arg)
            term = 0.0 if log_term < -600.0 else sign * math.exp(log_term)
        else:
            term = zn / gamma(arg)
            zn *= z
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(term) < _ML_RTOL * (1.0 + abs(total)):
            return total
    raise ConvergenceError(
        f"mittag_leffler series did not converge for alpha={alpha}, beta={beta}, z={z}"
    )


_POLYLOG_MAX_TERMS = 1_000_000


def polylog(alpha: float, x: float) -> float:
    """Polylogarithm Li_alpha(x) for |x| < 1, or x = 1 with alpha > 1."""
    if x == 1.0:
        if alpha <= 1.0:
            raise SpecialFunctionError("polylog diverges at x=1 for alpha <= 1")
        return zeta(alpha)
    if abs(x) >= 1.0:
        raise SpecialFunctionError(f"polylog domain is |x| < 1, got x={x}")
    if x == 0.0:
        return 0.0
    total = 0.0
    comp = 0.0
    xn = x
    ax = abs(x)
    for n in range(1, _POLYLOG_MAX_TERMS + 1):
        term = xn / n**alpha
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        # geometric tail bound: |tail| <= |x|^(n+1) / ((n+1)^alpha (1-|x|))
        if abs(xn) * ax / ((n + 1) ** alpha * (1.0 - ax)) < 1e-16 * (1.0 + abs(total)):
            return total
        xn *= x
    raise ConvergenceError(f"polylog series did not converge for alpha={alpha}, x={x}")
