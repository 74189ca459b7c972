"""Real-argument special functions: Gamma, digamma, Riemann zeta, Bernoulli
numbers and the two-parameter Mittag-Leffler function.

All functions are pure and operate on ordinary Python floats.  Gamma is
``math.gamma`` with a pole guard.  The one precomputed table (Borwein
weights) is built once at import time and never mutated, so every entry
point is safe to call concurrently.
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

def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def gamma(x: float) -> float:
    """Gamma function for real x, poles excluded."""
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at x={x}")
    return math.gamma(x)


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
# Mittag-Leffler
# ---------------------------------------------------------------------------

_ML_MAX_TERMS = 10_000
_ML_RTOL = 1e-16
# an alternating series loses about (largest term) * eps to cancellation;
# past this absolute error, scaled by max(1, |E|), the sum is refused
_ML_ATOL = 1e-10


def mittag_leffler(alpha: float, beta: float, z: float) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z).

    Direct series with compensated (Kahan) accumulation; terms with a gamma
    argument past the double-precision range are evaluated in log space.
    Raises ConvergenceError if the term-magnitude guard is not met within
    10,000 terms, or if cancellation between the largest term and the sum
    could leave an error above 1e-10 * max(1, |E|).
    """
    if alpha <= 0.0:
        raise ValueError("mittag_leffler requires alpha > 0")
    total = 0.0
    comp = 0.0
    zn = 1.0
    largest = 0.0
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
        largest = max(largest, abs(term))
        if abs(term) < _ML_RTOL * (1.0 + abs(total)):
            if largest * 2.0**-52 > _ML_ATOL * max(1.0, abs(total)):
                raise ConvergenceError(
                    f"mittag_leffler series loses accuracy to cancellation for "
                    f"alpha={alpha}, beta={beta}, z={z}; |z| is too large"
                )
            return total
    raise ConvergenceError(
        f"mittag_leffler series did not converge for alpha={alpha}, beta={beta}, z={z}"
    )
