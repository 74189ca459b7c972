"""Real-argument special functions: Gamma, digamma, Riemann zeta, Bernoulli
numbers and the two-parameter Mittag-Leffler function.

All functions are pure.  They take and return Python floats, except
``mittag_leffler``, which also takes an array ``z`` and then returns an
array of its shape.  Gamma is ``math.gamma`` with a pole guard.  The one
precomputed table (Borwein weights) is built once at import time and never
mutated, so every entry point is safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "EULER_GAMMA",
    "BernoulliTable",
    "gamma",
    "gamma_ratio",
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


def gamma_ratio(a: float, b: float) -> float:
    """Gamma(a)/Gamma(b) for a, b > 0, through lgamma: finite wherever the
    ratio is, also past 171.6, where each gamma alone overflows.  Its relative
    error grows like 1e-16 * lgamma(max(a, b)), about 1e-13 at a = 200."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("gamma_ratio requires a > 0 and b > 0")
    return math.exp(math.lgamma(a) - math.lgamma(b))


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
# why a point is refused, by its code in mittag_leffler's ``refused`` array
_ML_REFUSALS = (
    "",  # 0: not refused
    "loses accuracy to cancellation",
    "overflows a double",
    "did not converge",
    "is undefined",  # 4: z is nan
)


def _ml_refusal(
    alpha: float, beta: float, zs: np.ndarray, refused: np.ndarray
) -> ConvergenceError:
    """ConvergenceError naming the lowest-index refused point of zs."""
    first = int(np.flatnonzero(refused)[0])
    tail = "; |z| is too large" if refused[first] in (1, 2) else ""
    return ConvergenceError(
        f"mittag_leffler series {_ML_REFUSALS[refused[first]]} for alpha={alpha}, "
        f"beta={beta}, z={float(zs.flat[first])}{tail}"
    )


def mittag_leffler(alpha: float, beta: float, z: float | np.ndarray) -> float | np.ndarray:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z).

    ``z`` is a float or an array: a float (or a 0-d array) gives a float, an
    array gives an array of its shape.  Direct series with compensated (Kahan)
    accumulation, summed over all points at once: Gamma(alpha n + beta) is
    computed once per term, each point keeps its own z^n, largest term and
    sum, and leaves the sum at the term where its own series has converged,
    so each value is the one a single-point call gives.  Terms with a gamma
    argument or a power past the double-precision range are evaluated in log
    space.

    Raises ConvergenceError, naming the lowest-index refused z, if a point's
    term-magnitude guard is not met within 10,000 terms, if cancellation
    between its largest term and its sum could leave an error above
    1e-10 * max(1, |E|), or if a term or the sum overflows a double.  An
    infinite or nan z is refused before any term is summed.
    """
    if alpha <= 0.0:
        raise ValueError("mittag_leffler requires alpha > 0")
    zs = np.asarray(z, dtype=float)
    zv = zs.ravel()
    # per point, an index into _ML_REFUSALS
    refused = (2 * np.isinf(zv) + 4 * np.isnan(zv)).astype(np.int8)
    if refused.any():
        raise _ml_refusal(alpha, beta, zs, refused)
    out = np.empty(zs.size)
    # the points whose series is still being summed, and their state
    idx = np.arange(zs.size)
    logabsz = np.full(zs.size, -np.inf)
    np.log(np.abs(zv), out=logabsz, where=zv != 0.0)
    zn = np.ones(zs.size)
    total = np.zeros(zs.size)
    comp = np.zeros(zs.size)
    largest = np.zeros(zs.size)
    # z^(n+1) overflows only where the next term is due in log space, which
    # never reads it; a term or sum that overflows (and the nan its Kahan
    # compensation then takes) is refused below; 0 * log|0| at n = 0 is nan,
    # which compares False
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(_ML_MAX_TERMS):
            if idx.size == 0:
                break
            arg = alpha * n + beta
            # gamma(arg) or z^n would overflow a double; work in log space
            if arg > 170.0:
                in_log = np.ones(idx.size, dtype=bool)
                term = np.empty(idx.size)
            else:
                in_log = n * logabsz > 690.0
                term = zn / gamma(arg)
                zn *= zv
            if in_log.any():
                log_term = n * logabsz[in_log] - math.lgamma(arg)
                sign = np.where(zv[in_log] < 0.0, -1.0, 1.0) if n % 2 else 1.0
                term[in_log] = np.where(log_term < -600.0, 0.0, sign * np.exp(log_term))
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
            largest = np.maximum(largest, np.abs(term))
            done = np.abs(term) < _ML_RTOL * (1.0 + np.abs(total))
            overflow = np.isinf(total)
            finished = done | overflow
            if not finished.any():
                continue
            out[idx[finished]] = total[finished]
            cancel = done & (largest * 2.0**-52 > _ML_ATOL * np.maximum(1.0, np.abs(total)))
            refused[idx[cancel]] = 1
            refused[idx[overflow]] = 2
            keep = ~finished
            idx, zv, logabsz, zn, total, comp, largest = (
                a[keep] for a in (idx, zv, logabsz, zn, total, comp, largest))
    refused[idx] = 3
    if refused.any():
        raise _ml_refusal(alpha, beta, zs, refused)
    if zs.ndim == 0:
        return float(out[0])
    return out.reshape(zs.shape)
