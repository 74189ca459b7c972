"""Real-argument special functions: Gamma, Riemann zeta, Bernoulli numbers
and the two-parameter Mittag-Leffler function.

All functions are pure.  They take and return Python floats, except
``mittag_leffler``, which also takes an array ``z`` and then returns an
array of its shape.  Gamma is ``math.gamma`` with a pole guard.  The one
precomputed table (zeta's Euler-Maclaurin coefficients B_2j/(2j)!) is a
constant, so every entry point is safe to call concurrently.

``mittag_leffler`` routes each point of ``z`` on its own, by (alpha, beta,
z) alone, and evaluates it once, by one method, so each element of an array
call equals its one-point call:

* The power series (``_ml_series``) takes every point when alpha >= 2, a z
  whose series is short, and a z > 0 whose pole lies near the contour.  It
  is summed over all of its points at once, a block of up to 16 terms at a
  time, with one term formula, z^n / Gamma(alpha n + beta): Python loops over
  the terms of a block with a few whole-row numpy calls each, and tests
  convergence once per block.  A block holds at most 2^18 values per array
  (one term row, if that is more), so a call on many points needs no more
  memory than a term-at-a-time sum.
* For 0 < alpha < 2, a z goes to the contour (``_ml_contour``) when its
  term |z|^n / Gamma(alpha n + beta) at n = 34 is still above the series'
  tolerance 1e-16 (its series would take more than 34 terms), when a
  Stirling bound on its largest term lets the series lose more than 1e-10 to
  cancellation, which covers every z < 0 the series would refuse, or, for
  z > 0, when its first term is below the tolerance and that bound is not
  (the series would stop at its first term).  All are predicted from
  n log|z| - lgamma(alpha n + beta), with no term summed.  The crossover was
  measured: from about 32 terms on, the contour is the more accurate of the
  two at most points, and for alpha <= 1 it is the faster at every length
  (21 nodes against at least 16 series terms); the series keeps z = -2 at
  alpha = 0.75, beta = 1.5 (34 terms), and no point of tables 1-10 reaches
  the contour.  A z > 0 goes there only where its pole is far from the
  contour, from about z^(1/alpha) = 16 on; nearer, the series is cheaper.
* The contour is Garrappa's (SIAM J. Numer. Anal. 53(3), 2015) after
  Weideman & Trefethen (Math. Comp. 76, 2007): E_{alpha,beta}(z) is the
  inverse Laplace transform of s^(alpha-beta) / (s^alpha - z) at t = 1, and
  the trapezoidal rule with step h = 0.14 on the parabola
  s(u) = 4.5 (1 + iu)^2, u = 0, h, .., 20h (conjugate symmetry gives u < 0),
  sums it as one (points x nodes) real array, in chunks of at most 2^18
  values.  The parameters were picked on an mpmath grid: the error is
  e^mu * eps from rounding and below that from the rule.  The transform
  has the pole s = z^(1/alpha) for z > 0 and, for 1 < alpha < 2, the poles
  s = |z|^(1/alpha) e^(+-i pi/alpha) for z < 0; the residues (1/alpha)
  s^(1-beta) e^s of those the contour leaves out are added.  A pole near the
  contour would spoil the rule (errors up to 0.1 at alpha = 1.94), so there
  its principal parts are subtracted from the integrand and its residues
  added; a point whose pole lies near a node takes the nodes shifted by half
  a step.  One contour thus serves every point, and against mpmath the
  error stays within about 4e-13 * max(1, |E|) on z = -x^alpha, x in
  [0, 100], for beta in [0.5, 5] (1e-11 for beta up to 20), and within
  3e-13 on z = x^alpha past x = 16 and on E_{1,1+alpha}(x) up to x = 708.

Still refused, by ``mittag_leffler`` alone: a z whose value overflows a
double (for z > 0, E grows like exp(z^(1/alpha))), whichever method takes
it; for alpha >= 2, a z whose series cancels or has a term past the double
range (E_{2,1}(1e4) = cosh(100) is one); and an infinite or nan z.
"""

from __future__ import annotations

import math
import sys
from itertools import chain

import numpy as np

__all__ = [
    "gamma",
    "gamma_ratio",
    "power_rule_coefficient",
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
    """Gamma function for real x, poles excluded; OverflowError past the
    double range, from x = 171.62 on."""
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"gamma pole at x={x}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise OverflowError(f"gamma({x:g}) overflows a double") from None


# gamma_ratio takes Stirling's series once an argument reaches this; its
# first omitted term, B_16 / (240 z^15), is below 3e-17 there.
_STIRLING_MIN = 10.0
# B_2k / (2k (2k - 1)) for k = 1..7: log Gamma(z) = (z - 1/2) log z - z
# + log(2 pi) / 2 + sum_k c_k / z^(2k - 1).
_STIRLING_COEF = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def gamma_ratio(a: float, b: float) -> float:
    """Gamma(a)/Gamma(b) for a, b > 0: finite wherever the ratio is, also
    past 171.6, where each gamma alone overflows; OverflowError where the
    ratio does.  Below 10 it is exp(lgamma(a) - lgamma(b)).  From there on
    it is the difference of the two Stirling series, with log(a/b) taken as
    log1p((a - b)/b) when a is near b, so lgamma's large values never
    cancel; an argument below 10 is first raised past it by
    Gamma(z) = Gamma(z + 1)/z.  Against mpmath, for a and b from 1 to 1e300,
    the relative error stays below 4e-16 (|log ratio| + 30); an argument
    z below 1 adds 4e-16 |log z| to the bound.  An infinite argument gives
    the limit through lgamma: 0.0 for b = inf, inf for a = inf, and nan
    for both."""
    return _gamma_ratio(a, b, a - b)


def power_rule_coefficient(p: float, alpha: float) -> float:
    """Gamma(p+1)/Gamma(p+alpha+1), the coefficient c of the power rule
    I^alpha x^p = c x^(p+alpha), p > -1.  gamma_ratio(p + 1, p + alpha + 1)
    with the shift alpha taken exactly: where p + 1 and p + alpha + 1 round
    (p = 1e300 leaves them equal), the ratio is still p^-alpha to rounding."""
    return _gamma_ratio(p + 1.0, p + alpha + 1.0, -alpha)


def _gamma_ratio(a: float, b: float, d: float) -> float:
    """Gamma(a)/Gamma(b), given d = a - b (exact for the series' log1p)."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError("gamma_ratio requires a > 0 and b > 0")
    if max(a, b) < _STIRLING_MIN or max(a, b) == math.inf:
        return math.exp(math.lgamma(a) - math.lgamma(b))
    log_ratio = 0.0
    while a < _STIRLING_MIN:
        log_ratio -= math.log(a)
        a, d = a + 1.0, d + 1.0
    while b < _STIRLING_MIN:
        log_ratio += math.log(b)
        b, d = b + 1.0, d - 1.0
    # (a - 1/2) log a - (b - 1/2) log b - d, with log a = log b + log(a/b)
    log_ab = math.log1p(d / b) if abs(d) < 0.5 * b else math.log(a / b)
    log_ratio += d * (math.log(b) - 1.0) + (a - 0.5) * log_ab
    if log_ratio == math.inf:
        raise OverflowError("gamma_ratio overflows a double")
    ra, rb = 1.0 / (a * a), 1.0 / (b * b)
    ta = tb = 0.0
    for c in reversed(_STIRLING_COEF):
        ta, tb = ta * ra + c, tb * rb + c
    return math.exp(log_ratio + ta / a - tb / b)


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

_BERNOULLI_MAX = 60


def bernoulli_numbers(n_max: int) -> tuple:
    """Bernoulli numbers B_0..B_n_max (B_1 = -1/2) as exact rationals
    (``fractions.Fraction``), from the convolution recurrence."""
    from fractions import Fraction  # on call: it and decimal cost an import 3-4 ms
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max > _BERNOULLI_MAX:
        raise OverflowError(f"Bernoulli table capped at n={_BERNOULLI_MAX}")
    b = [Fraction(1)]
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
# M Bernoulli corrections of the tail.  With M = 6 the relative error on
# [-6.5, 15] has a median of 3e-16 and a maximum of 3e-14, next to s = -1/2,
# where the direct terms cancel; M = 5 has a median of 5e-15
_EM_N = 10
# B_2j/(2j)!, j = 1..M, each rounded once (the float of bernoulli_numbers'
# exact quotient); fracint's corrected trapezoid rule reads the first two
_EM_COEF = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
            -691 / 1307674368000)


# math.gamma(x) is finite up to x = 171.624
_GAMMA_MAX_ARG = 171.6


def zeta(s: float) -> float:
    """Riemann zeta function on the real line, s != 1.

    Raises SpecialFunctionError for s = nan and where |zeta(s)| passes the
    largest double, first at s = -260.17 (the trivial zeros below it stay 0);
    zeta(s) is 1 for s > 64, zeta(inf) included.
    """
    if s == 1.0:
        raise PoleError("zeta pole at s=1")
    if math.isnan(s):
        raise SpecialFunctionError("zeta is undefined at s=nan")
    if s > 64.0:
        # 1 + 2^-s + ... rounds to 1 from s = 54 on; the Euler-Maclaurin
        # terms would take inf * 0 from s = 1e28
        return 1.0
    if s == -math.inf:
        raise SpecialFunctionError("zeta(-inf) overflows a double")
    if s < -0.5:
        # functional equation: zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s),
        # with s/2 reduced by its nearest integer q so that sin keeps its
        # relative accuracy next to the trivial zeros s = 2q
        q = round(s / 2.0)
        sine = (-1.0) ** q * math.sin(math.pi * (s / 2.0 - q))
        if 1.0 - s <= _GAMMA_MAX_ARG:
            return 2.0**s * math.pi ** (s - 1.0) * sine * gamma(1.0 - s) * zeta(1.0 - s)
        # Gamma(1 - s) alone overflows: the factors are taken in log space
        if sine == 0.0:
            return sine
        try:
            scale = math.exp(s * math.log(2.0) + (s - 1.0) * math.log(math.pi)
                             + math.lgamma(1.0 - s) + math.log(abs(sine)))
        except OverflowError:
            raise SpecialFunctionError(f"zeta({s}) overflows a double") from None
        return math.copysign(scale, sine) * zeta(1.0 - s)
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
# rows (terms) of one block of the series' running sums, and the most values
# one block array of the series, or one (points x nodes) chunk of the
# contour, holds
_ML_BLOCK_ROWS = 16
_ML_CHUNK = 2**18
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
# a z < 0 (0 < alpha < 2) whose series would run past this many terms goes
# to the contour; its term there is above exp(_ML_LOG_RTOL) = 1e-16
_ML_CROSSOVER = 34
_ML_LOG_RTOL = math.log(_ML_RTOL)
# or whose largest term may pass the cancellation limit
_ML_LOG_PEAK = math.log(_ML_ATOL * 2.0**52)
# the contour s(u) = mu (1 + iu)^2 and its trapezoidal rule: nodes u = k h,
# k = 0 .. _MLC_NODES - 1 (or shifted by h/2)
_MLC_MU = 4.5
_MLC_STEP = 0.14
_MLC_NODES = 21
# a pole whose trapezoidal error may pass exp(-40) = 4e-18 is subtracted
_MLC_LOG_POLE = -40.0


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
    array gives an array of its shape.  Each point is evaluated once, on its
    own, by one method: the power series (``_ml_series``) or, for
    0 < alpha < 2 and a z past the series' reach, the trapezoidal rule on a
    parabolic contour (``_ml_contour``), so each value is the one a
    single-point call gives.  ``_ml_routes_to_contour`` chooses, with no term
    summed (module docstring); every z < 0 that the series would refuse goes
    to the contour.

    Raises ConvergenceError, naming the lowest-index refused z, for an
    infinite or nan z (before any term is summed), for a point whose contour
    value overflows a double, and for a point that the series refuses: its
    term-magnitude guard is not met within 10,000 terms, cancellation
    between its largest term and its sum could leave an error above
    1e-10 * max(1, |E|), or a term or the sum overflows a double.  The
    refused points are thus a z > 0 whose value overflows and, for
    alpha >= 2, a large z.  A non-positive, infinite or nan alpha and an
    infinite or nan beta raise ValueError before any term.

    For beta < 0 the contour loses accuracy: against an mpmath sum, the error
    is 5.9e-11 * max(1, |E|) at E_{0.5,-3}(-2.5), 2.0e-11 at E_{0.5,-3}(-7)
    and 8.5e-12 at E_{1.5,-3}(-50).  No CLI problem takes a beta below 1.
    """
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"mittag_leffler requires 0 < alpha < inf, got alpha={alpha}")
    if not math.isfinite(beta):
        raise ValueError(f"mittag_leffler requires a finite beta, got beta={beta}")
    zs = np.asarray(z, dtype=float)
    zv = zs.ravel()
    out = np.empty(zs.size)
    # per point, an index into _ML_REFUSALS; an infinite or nan z is refused
    # before any term
    refused = (2 * np.isinf(zv) + 4 * np.isnan(zv)).astype(np.int8)
    if not refused.any():
        with np.errstate(over="ignore", invalid="ignore"):
            contour = _ml_routes_to_contour(alpha, beta, zv)
            idx = np.flatnonzero(contour)
            if idx.size:
                out[idx] = _ml_contour(alpha, beta, zv[idx])
                refused[idx[~np.isfinite(out[idx])]] = 2
        _ml_series(alpha, beta, zv, np.flatnonzero(~contour), out, refused)
    if refused.any():
        raise _ml_refusal(alpha, beta, zs, refused)
    return float(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)


def _ml_routes_to_contour(alpha: float, beta: float, zv: np.ndarray) -> np.ndarray:
    """Where a z goes to the contour (0 < alpha < 2), by the magnitudes
    n log|z| - lgamma(alpha n + beta) of its series' terms:

    * the term at n = _ML_CROSSOVER is still above the series' tolerance
      1e-16, so the series would run past that many terms; or
    * the largest term may exceed 1e-10 * 2^52, past which the series may be
      refused for cancellation (or overflow).  With x = alpha n + beta and
      r = |z|^(1/alpha), a term's log is (x - beta) log r - lgamma(x), which
      Stirling's lower bound on lgamma(x) bounds by a concave function of x
      whose maximum, near x = r, is below r + (1/2 - beta) log r
      - log(2 pi)/2 + 1/(8r).  Where r < max(beta, 1) that maximum lies
      before the first term, whose x is beta, and no term exceeds about 1;
    * for z > 0, the first term 1/Gamma(beta) is below the tolerance, which
      ends the series there, and that bound is not: the terms rise from it.

    A z > 0 is routed only where its pole is far from the contour
    (``_ml_pole``); near it, subtracting the pole costs more than the series.
    """
    n = _ML_CROSSOVER
    if not 0.0 < alpha < 2.0 or alpha * n + beta <= 0.0:
        return np.zeros(zv.size, dtype=bool)
    logabsz = np.log(np.abs(zv), out=np.full(zv.size, -np.inf), where=zv != 0.0)
    # lgamma leaves the double range past 2.5e305, where every term is 0
    route = n * logabsz - math.lgamma(min(alpha * n + beta, 1e305)) > _ML_LOG_RTOL
    logr = logabsz / alpha
    big = np.flatnonzero(logr >= math.log(max(beta, 1.0)))
    r = np.exp(logr[big])
    peak = r + (0.5 - beta) * logr[big] - 0.5 * math.log(2.0 * math.pi) + 0.125 / r
    route[big[peak > _ML_LOG_PEAK]] = True
    if beta > 0.0 and -math.lgamma(min(beta, 1e305)) < _ML_LOG_RTOL:
        route[big[(peak > _ML_LOG_RTOL) & (zv[big] > 0.0)]] = True
    pos = np.flatnonzero(route & (zv > 0.0))
    if pos.size:
        route[pos[_ml_pole(alpha, beta, zv[pos])[3]]] = False
    return route


def _ml_pole(alpha: float, beta: float, z: np.ndarray) -> tuple[np.ndarray, ...]:
    """The pole of s^(alpha-beta) / (s^alpha - z) in the upper half plane,
    for each point of the 1-d array z that has one: s = z^(1/alpha) for
    z > 0, and s = |z|^(1/alpha) e^(i pi/alpha) for z < 0 when 1 < alpha < 2.

    Returns their indices, log s, and where the pole lies outside the
    contour (phi > mu with phi = (Re s + |s|) / 2), where it lies near it,
    and where within a quarter step (in Re u) of a node.  In Im u the nodes
    lie |1 - sqrt(phi / mu)| from the pole, and the rule's error from it is
    about |residue| exp(-2 pi (distance) / h); it is near where that may
    exceed e^-40 = 4e-18, for z > 0 relative to max(1, |residue|), as E is
    about its residue (1/alpha) s^(1-beta) e^s there.
    """
    pos = z > 0.0
    has = np.flatnonzero(pos | (z < 0.0) if alpha > 1.0 else pos)
    pos = pos[has]
    angle = math.pi / alpha
    logr = np.log(np.abs(z[has])) / alpha
    r = np.exp(logr)
    # sqrt(phi / mu), and the pole's u = i (1 - sqrt(s / mu)) in steps
    root = np.sqrt(r / _MLC_MU)
    depth = root * np.where(pos, 1.0, math.cos(angle / 2.0))
    k = np.where(pos, 0.0, root * math.sin(angle / 2.0) / _MLC_STEP)
    log_res = (1.0 - beta) * logr + r * np.where(pos, 1.0, math.cos(angle)) - math.log(alpha)
    log_err = np.where(pos, np.minimum(log_res, 0.0), log_res)
    log_err -= 2.0 * math.pi * np.abs(1.0 - depth) / _MLC_STEP
    return (has, logr + 1j * np.where(pos, 0.0, angle), depth > 1.0,
            log_err > _MLC_LOG_POLE, np.abs(k - np.round(k)) < 0.25)


def _ml_series(
    alpha: float, beta: float, zv: np.ndarray, idx: np.ndarray,
    out: np.ndarray, refused: np.ndarray,
) -> None:
    """E_{alpha,beta}(z) by its power series, with compensated (Kahan)
    accumulation, for the points ``idx`` of the 1-d array of finite ``zv``,
    summed over all of them at once: each gets its value in ``out`` or its
    refusal code (``_ML_REFUSALS``) in ``refused``.  Gamma(alpha n + beta) is
    computed once per term, each point keeps its own z^n, largest term and
    sum, and leaves the sum at the term where its own series has converged,
    so each value is the one a single-point call gives.  A z^n past the
    double range makes its term inf, and the point is refused as an overflow.
    Gamma is taken as the largest double past 171.6, where it leaves the
    double range: a term that is still not below the tolerance there keeps
    the point live until z^n overflows, and none ends a series early.  Nor
    does a term whose Gamma argument alpha n + beta is below 1: it may be
    small only for lying next to a pole of Gamma (at beta = 1e-17 the first
    term is 1e-17), however large the terms after it.  The check costs one
    comparison per block, and no term of a beta >= 1 is below 1.

    The series is summed a block of terms at a time.  A block's terms fill a
    (terms x live points) array row by row, and its Kahan sums a second one;
    the convergence, overflow and cancellation tests then run once over the
    block, each point stopping at its own first converged term, and the
    points still live are compacted once.  A block has at most 16 terms and,
    unless a single term row is larger, 2^18 elements (2 MB per array).

    A point is refused if its term-magnitude guard is not met within 10,000
    terms (code 3), if cancellation between its largest term and its sum
    could leave an error above 1e-10 * max(1, |E|) (code 1), or if a term or
    the sum overflows a double (code 2).
    """
    # the points whose series is still being summed: index, z, z^n, sum,
    # Kahan compensation and largest |term| so far
    live = (idx, zv[idx], np.ones(idx.size), np.zeros(idx.size),
            np.zeros(idx.size), np.zeros(idx.size))
    n = 0
    # a term or sum that overflows (and the nan its Kahan compensation then
    # takes) is refused below, and so is a term divided by a Gamma that
    # underflowed to 0 (an argument below about -178)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while live[0].size and n < _ML_MAX_TERMS:
            n, live = _ml_block(alpha, beta, n, live, out, refused)
    refused[live[0]] = 3


def _ml_block(
    alpha: float, beta: float, n: int, live: tuple[np.ndarray, ...],
    out: np.ndarray, refused: np.ndarray,
) -> tuple[int, tuple[np.ndarray, ...]]:
    """Sum one block of terms, from term n on, for the live points (see
    _ml_series).  A point whose series finishes in the block gets its value
    in ``out`` and its refusal code, if any, in ``refused``.  Returns the
    next term's n and the state of the points still live; z^n, the sum and
    the compensation are updated in place."""
    idx, zv, zn, total, comp, largest = live
    size = idx.size
    arg = alpha * n + beta
    if arg <= 0.0:
        if arg == math.floor(arg):
            # 1/Gamma is 0 at a pole: the term is 0, and it ends no series
            zn *= zv
            return n + 1, live
        # a gamma pole may lie ahead, and its term is due only while a point
        # is still live
        rows = 1
    else:
        rows = min(_ML_BLOCK_ROWS, max(1, _ML_CHUNK // size), _ML_MAX_TERMS - n)
    gammas = [gamma(a) if a <= _GAMMA_MAX_ARG else sys.float_info.max
              for a in (alpha * k + beta for k in range(n, n + rows))]
    # z^n .. z^(n+rows-1), each row the one before times z, then z^(n+rows)
    terms = np.empty((rows, size))
    terms[0] = zn
    for p0, p1 in zip(terms, chain(terms[1:], (zn,))):
        np.multiply(p0, zv, out=p1)
    terms /= np.array(gammas)[:, None]
    # Kahan rows: sums[r] is the sum up to the term of row r
    sums = np.empty((rows, size))
    y = np.empty(size)
    for term, t0, t1 in zip(terms, chain((total,), sums), sums):
        np.subtract(term, comp, out=y)
        np.add(t0, y, out=t1)
        np.subtract(t1, t0, out=comp)
        np.subtract(comp, y, out=comp)
    total[...] = sums[-1]
    terms = np.abs(terms, out=terms)
    # the largest |term| up to the block's end, in y, which the sums are done with
    top = np.maximum(terms.max(axis=0, out=y), largest, out=y)
    # each point finishes at its first row whose term is below the tolerance
    # 1e-16 * (1 + |sum|) or whose sum overflows; a sum that overflowed stays
    # inf or nan, so the last row shows whether any did.  The tolerances are
    # taken in place (numpy reuses no temporary below 256 KiB, and one
    # expression's extra ones raised the tables' peak RSS) and freed before
    # the live points are compacted
    tol = np.abs(sums)
    tol += 1.0
    tol *= _ML_RTOL
    finished = terms < tol
    del tol
    if arg < 1.0:
        # a term whose Gamma argument is below 1 ends no series (_ml_series)
        finished[: sum(alpha * k + beta < 1.0 for k in range(n, n + rows))] = False
    overflow = not math.isfinite(total.sum())
    if overflow:
        finished |= np.isinf(sums)
    hit = finished.any(axis=0)
    cols = np.flatnonzero(hit)
    live = (idx, zv, zn, total, comp, top)
    if not cols.size:
        return n + rows, live
    first = finished[:, cols].argmax(axis=0)
    ended = sums.take(first * size + cols)
    ended_idx = idx[cols]
    out[ended_idx] = ended
    # a term of at most 1e-10 * 2^52 costs no more than 1e-10 to cancellation;
    # past it, the largest term up to each point's finishing row decides
    if not top.max() <= _ML_ATOL * 2.0**52:
        upto = np.arange(rows)[:, None] <= first
        peak = np.where(upto, terms[:, cols], 0.0).max(axis=0)
        np.maximum(peak, largest[cols], out=peak)
        cancel = peak * 2.0**-52 > _ML_ATOL * np.maximum(1.0, np.abs(ended))
        refused[ended_idx[cancel]] = 1
    if overflow:
        refused[ended_idx[np.isinf(ended)]] = 2
    keep = np.flatnonzero(~hit)
    return n + rows, tuple(a.take(keep) for a in live)


def _ml_contour(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """E_{alpha,beta}(z) for 0 < alpha < 2 and a 1-d array of finite z, by
    the trapezoidal rule on a parabolic contour (module docstring).

    E is the inverse Laplace transform of s^(alpha-beta) / (s^alpha - z) at
    t = 1, (1/2 pi i) * integral of e^s s^(alpha-beta) / (s^alpha - z) ds
    along s(u) = mu (1 + iu)^2, which wraps around the branch cut on the
    negative axis.  z is real, so the nodes u >= 0 give the sum over all
    nodes as Im of their own, and each point sums its nodes alone.

    The residues of the poles outside the contour (``_ml_pole``) are added.
    Where a pole lies near the contour, the principal parts of it and its
    conjugate are subtracted from the integrand and both residues added,
    wherever it lies, so that the contour passes it without loss; a real
    pole (z > 0) counts as half of each.  A point whose pole lies within a
    quarter step (in Re u) of a node, as a real pole does, uses the nodes
    shifted by half a step instead.
    """
    out = np.zeros(z.size)
    shifted = np.zeros(z.size, dtype=bool)
    near = np.zeros(z.size, dtype=bool)
    # the pole in the upper half plane and its residue's 1/alpha s^(1-beta),
    # where the pole is subtracted
    poles = np.zeros(z.size, dtype=complex)
    coef = np.zeros(z.size, dtype=complex)
    has, logs, outside, close, on_node = _ml_pole(alpha, beta, z)
    shifted[has] = on_node
    near[has] = close
    half = np.where(z[has] > 0.0, 0.5, 1.0)
    # the residues (1/alpha) s^(1-beta) e^s of both poles, in log space
    add = close | outside
    res = np.exp((1.0 - beta) * logs[add] + np.exp(logs[add])) / alpha
    out[has[add]] = 2.0 * half[add] * res.real
    poles[near] = np.exp(logs[close])
    coef[near] = np.exp((1.0 - beta) * logs[close]) / alpha * half[close]
    rows = max(1, _ML_CHUNK // _MLC_NODES)
    for shift in (False, True):
        pts = np.flatnonzero(shifted == shift)
        if not pts.size:
            continue
        u = _MLC_STEP * (np.arange(_MLC_NODES) + 0.5 * shift)
        s = _MLC_MU * (1.0 + 1j * u) ** 2
        # trapezoidal weights of Im(...), times e^s s'(u) / pi
        w = np.full(_MLC_NODES, _MLC_STEP / math.pi)
        if not shift:
            w[0] *= 0.5
        w = w * np.exp(s) * 2j * _MLC_MU * (1.0 + 1j * u)
        # Im(a / (p - z)) = Im a (Re p - z) / |p - z|^2 - Re a Im p / |p - z|^2,
        # written so that a |p - z|^2 past the double range gives 0
        a = w * s ** (alpha - beta)
        p = s**alpha
        a_re_p_im = a.real * p.imag
        p_im2 = p.imag**2
        for lo in range(0, pts.size, rows):
            chunk = pts[lo:lo + rows]
            terms = p.real - z[chunk, None]
            den = np.multiply(terms, terms)
            den += p_im2
            terms /= den
            terms *= a.imag
            terms -= np.divide(a_re_p_im, den, out=den)
            sub = np.flatnonzero(near[chunk])
            if sub.size:
                sp = poles[chunk[sub], None]
                cp = coef[chunk[sub], None]
                terms[sub] -= (w * (cp / (s - sp) + cp.conjugate() / (s - sp.conjugate()))).imag
            out[chunk] += terms.sum(axis=1)
    return out
