"""Real-argument special functions: Gamma, Riemann zeta, Bernoulli numbers
and the two-parameter Mittag-Leffler function.

All functions are pure.  They take and return Python floats, except
``mittag_leffler``, which also takes an array ``z`` and then returns an
array of its shape.  Gamma is ``math.gamma`` with a pole guard.  The one
precomputed table (zeta's Euler-Maclaurin coefficients B_2j/(2j)!) is built
once at import time and never mutated, so every entry point is safe to call
concurrently.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

__all__ = [
    "gamma",
    "gamma_ratio",
    "zeta",
    "bernoulli_numbers",
    "mittag_leffler",
]


class SpecialFunctionError(ValueError):
    """Raised for pole/domain violations and non-convergent series."""


class PoleError(SpecialFunctionError):
    pass


class ConvergenceError(SpecialFunctionError):
    pass


# ---------------------------------------------------------------------------
# Gamma
# ---------------------------------------------------------------------------

def gamma(x: float) -> float:
    """Gamma function for real x, poles excluded."""
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"gamma pole at x={x}")
    return math.gamma(x)


def gamma_ratio(a: float, b: float) -> float:
    """Gamma(a)/Gamma(b) for a, b > 0, through lgamma: finite wherever the
    ratio is, also past 171.6, where each gamma alone overflows.  Its relative
    error grows like 1e-16 * lgamma(max(a, b)), about 1e-13 at a = 200."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("gamma_ratio requires a > 0 and b > 0")
    return math.exp(math.lgamma(a) - math.lgamma(b))


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

_BERNOULLI_MAX = 60


def bernoulli_numbers(n_max: int) -> tuple[Fraction, ...]:
    """Bernoulli numbers B_0..B_n_max (B_1 = -1/2) as exact rationals, from
    the convolution recurrence."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max > _BERNOULLI_MAX:
        raise OverflowError(f"Bernoulli table capped at n={_BERNOULLI_MAX}")
    b: list[Fraction] = [Fraction(1)]
    for n in range(1, n_max + 1):
        # sum_{k=0}^{n} C(n+1, k) B_k = 0  solved for B_n
        acc = Fraction(0)
        for k in range(n):
            acc += math.comb(n + 1, k) * b[k]
        b.append(-acc / (n + 1))
    return tuple(b)


# ---------------------------------------------------------------------------
# Riemann zeta
# ---------------------------------------------------------------------------

# Euler-Maclaurin summation for s >= -1/2: _EM_N terms summed directly, then
# _EM_M Bernoulli corrections of the tail.  With M = 6 the relative error on
# [-6.5, 15] has a median of 3e-16 and a maximum of 3e-14, next to s = -1/2,
# where the direct terms cancel; M = 5 has a median of 5e-15
_EM_N = 10
_EM_M = 6
# B_2j/(2j)!, j = 1.._EM_M
_EM_COEF = tuple(
    float(b / math.factorial(2 * j))
    for j, b in enumerate(bernoulli_numbers(2 * _EM_M)[2::2], start=1)
)


def zeta(s: float) -> float:
    """Riemann zeta function on the real line, s != 1."""
    if s == 1.0:
        raise PoleError("zeta pole at s=1")
    if s < -0.5:
        # functional equation: zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s),
        # with s/2 reduced by its nearest integer q so that sin keeps its
        # relative accuracy next to the trivial zeros s = 2q
        q = round(s / 2.0)
        return (
            2.0**s
            * math.pi ** (s - 1.0)
            * (-1.0) ** q * math.sin(math.pi * (s / 2.0 - q))
            * gamma(1.0 - s)
            * zeta(1.0 - s)
        )
    return _zeta_em(s, s - 1.0)


def _zeta_em(s: float, s_minus_1: float) -> float:
    """zeta(s) for s >= -1/2 by Euler-Maclaurin summation, given s and s - 1."""
    # zeta(s) = sum_{k<N} k^-s + N^(1-s)/(s-1) + N^-s/2
    #           + sum_{j<=M} B_2j/(2j)! s(s+1)...(s+2j-2) N^(-s-2j+1);
    # s - 1 is exact next to the pole (zeta(1 - alpha) passes -alpha itself),
    # and fsum adds the terms, which cancel next to s = 0, with no rounding
    # beyond their own
    n = float(_EM_N)
    terms = [k**-s for k in range(1, _EM_N)]
    terms += [n**-s_minus_1 / s_minus_1, 0.5 * n**-s]
    rising = s
    power = n ** (-s - 1.0)
    for j, coef in enumerate(_EM_COEF, start=1):
        terms.append(coef * rising * power)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        power /= n * n
    return math.fsum(terms)


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
