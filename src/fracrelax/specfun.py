"""Real-argument special functions: Gamma, Riemann zeta, Bernoulli numbers
and the two-parameter Mittag-Leffler function.

All functions are pure.  They take and return Python floats, except
``mittag_leffler``, which also takes an array ``z`` and then returns an
array of its shape.  Gamma is ``math.gamma`` with a pole guard.  The one
precomputed table (zeta's Euler-Maclaurin coefficients B_2j/(2j)!) is built
once at import time and never mutated, so every entry point is safe to call
concurrently.

``mittag_leffler`` routes each point of ``z`` on its own, by (alpha, beta,
z) alone, so each element of an array call equals its one-point call:

* The power series (``_ml_series``) takes every z >= 0, every point when
  alpha >= 2, and a z < 0 whose series is short.  It is summed over all of
  its points at once, a block of up to 16 terms at a time: Python loops over
  the terms of a block with a few whole-row numpy calls each, and tests
  convergence once per block.  A block holds at most 2^18 values per array
  (one term row, if that is more), so a call on many points needs no more
  memory than a term-at-a-time sum.
* For 0 < alpha < 2, a z < 0 goes to the contour (``_ml_contour``) when its
  term |z|^n / Gamma(alpha n + beta) at n = 34 is still above the series'
  tolerance 1e-16 (its series would take more than 34 terms), or when a
  Stirling bound on its largest term lets the series lose more than 1e-10 to
  cancellation, which covers every z < 0 the series would refuse.  Both are
  predicted from n log|z| - lgamma(alpha n + beta), with no term summed.
  The crossover was measured: from about 32 terms on, the contour is the
  more accurate of the two at most points, and for alpha <= 1 it is the
  faster at every length (21 nodes against at least 16 series terms); the
  series keeps z = -2 at alpha = 0.75, beta = 1.5 (34 terms), and no point
  of tables 1-10 reaches the contour.
* The contour is Garrappa's (SIAM J. Numer. Anal. 53(3), 2015) after
  Weideman & Trefethen (Math. Comp. 76, 2007): E_{alpha,beta}(z) is the
  inverse Laplace transform of s^(alpha-beta) / (s^alpha - z) at t = 1, and
  the trapezoidal rule with step h = 0.14 on the parabola
  s(u) = 4.5 (1 + iu)^2, u = 0, h, .., 20h (conjugate symmetry gives u < 0),
  sums it as one (points x nodes) real array, in chunks of at most 2^18
  values.  The parameters were picked on an mpmath grid: the error is
  e^mu * eps from rounding and below that from the rule.  For
  1 < alpha < 2 the transform has the poles s = |z|^(1/alpha)
  e^(+-i pi/alpha), and the residues (1/alpha) s^(1-beta) e^s of those the
  contour leaves out are added.  A pole near the contour would spoil the
  rule (errors up to 0.1 at alpha = 1.94), so there its principal parts are
  subtracted from the integrand and both residues added; a point whose pole
  lies near a node takes the nodes shifted by half a step.  One contour thus
  serves every point, and against mpmath the error stays within about
  4e-13 * max(1, |E|) on z = -x^alpha, x in [0, 100], for beta in [0.5, 5]
  (1e-11 for beta up to 20).

Still refused: a z > 0 whose value overflows a double (E grows like
exp(z^(1/alpha))), a z < 0 of large modulus when alpha >= 2, and an
infinite or nan z.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

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


# math.gamma(x) is finite up to x = 171.624
_GAMMA_MAX_ARG = 171.6


def zeta(s: float) -> float:
    """Riemann zeta function on the real line, s != 1.

    Raises SpecialFunctionError for s = nan and where |zeta(s)| passes the
    largest double, first at s = -260.17 (the trivial zeros below it stay 0);
    zeta(inf) is 1.
    """
    if s == 1.0:
        raise PoleError("zeta pole at s=1")
    if math.isnan(s):
        raise SpecialFunctionError("zeta is undefined at s=nan")
    if math.isinf(s):
        if s > 0.0:
            return 1.0
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
# rows (terms) and elements of one block of the series' running sums
_ML_BLOCK_ROWS = 16
_ML_BLOCK_SIZE = 2**18
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
# k = 0 .. _MLC_NODES - 1 (or shifted by h/2), and the most (points x nodes)
# values one chunk of points holds
_MLC_MU = 4.5
_MLC_STEP = 0.14
_MLC_NODES = 21
_MLC_CHUNK = 2**18
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
    array gives an array of its shape.  Each point is evaluated on its own,
    by one of two methods, so each value is the one a single-point call
    gives:

    * the power series (``_ml_series``): every z >= 0, every point when
      alpha >= 2, and a z < 0 whose series is short;
    * the trapezoidal rule on a parabolic contour (``_ml_contour``), for
      0 < alpha < 2: a z < 0 whose term |z|^n / Gamma(alpha n + beta) at
      n = 34 is still above 1e-16, so that its series would take more than
      34 terms, or whose largest term may pass 1e-10 * 2^52, where the
      series may refuse it.  For 1 < alpha < 2 the residues of the poles
      s = |z|^(1/alpha) e^(+-i pi/alpha) are added (module docstring).

    The routing sums no term: it reads n log|z| - lgamma(alpha n + beta).
    Every z < 0 that the series would refuse goes to the contour.

    Raises ConvergenceError, naming the lowest-index refused z, for an
    infinite or nan z (before any term is summed) and for a point that the
    series refuses: its term-magnitude guard is not met within 10,000 terms,
    cancellation between its largest term and its sum could leave an error
    above 1e-10 * max(1, |E|), or a term or the sum overflows a double.  Of
    the points that reach the series, the refused ones are a z > 0 whose
    value overflows (E grows like exp(z^(1/alpha))) and, for alpha >= 2, a
    z < 0 of large modulus.  A nan or non-positive alpha and a nan beta raise
    ValueError before any term.
    """
    if not alpha > 0.0:
        raise ValueError(f"mittag_leffler requires alpha > 0, got alpha={alpha}")
    if math.isnan(beta):
        raise ValueError("mittag_leffler requires a number beta, got beta=nan")
    zs = np.asarray(z, dtype=float)
    zv = zs.ravel()
    contour = _ml_routes_to_contour(alpha, beta, zv)
    # the series also refuses an infinite or nan z, before any term
    if not (contour.any() and np.isfinite(zv).all()):
        return _ml_series(alpha, beta, z)
    out = np.empty(zs.size)
    series = ~contour
    if series.any():
        out[series] = _ml_series(alpha, beta, zv[series])
    out[contour] = _ml_contour(alpha, beta, zv[contour])
    if zs.ndim == 0:
        return float(out[0])
    return out.reshape(zs.shape)


def _ml_routes_to_contour(alpha: float, beta: float, zv: np.ndarray) -> np.ndarray:
    """Where a finite z < 0 goes to the contour (0 < alpha < 2), by the
    magnitudes n log|z| - lgamma(alpha n + beta) of its series' terms:

    * the term at n = _ML_CROSSOVER is still above the series' tolerance
      1e-16, so the series would run past that many terms; or
    * the largest term may exceed 1e-10 * 2^52, past which the series may be
      refused for cancellation (or overflow).  With x = alpha n + beta and
      r = |z|^(1/alpha), a term's log is (x - beta) log r - lgamma(x), which
      Stirling's lower bound on lgamma(x) bounds by a concave function of x
      whose maximum, near x = r, is below r + (1/2 - beta) log r
      - log(2 pi)/2 + 1/(8r).  Where r < max(beta, 1) that maximum lies
      before the first term, whose x is beta, and no term exceeds about 1.
    """
    n = _ML_CROSSOVER
    if not 0.0 < alpha < 2.0 or alpha * n + beta <= 0.0:
        return np.zeros(zv.size, dtype=bool)
    logabsz = np.log(-zv, out=np.full(zv.size, -np.inf), where=zv < 0.0)
    route = n * logabsz - math.lgamma(alpha * n + beta) > _ML_LOG_RTOL
    logr = logabsz / alpha
    big = np.flatnonzero(logr >= math.log(max(beta, 1.0)))
    # past log r = 700 the bound is above the limit anyway
    logr = np.minimum(logr[big], 700.0)
    r = np.exp(logr)
    peak = r + (0.5 - beta) * logr - 0.5 * math.log(2.0 * math.pi) + 0.125 / r
    route[big[peak > _ML_LOG_PEAK]] = True
    return route


def _ml_series(alpha: float, beta: float, z: float | np.ndarray) -> float | np.ndarray:
    """E_{alpha,beta}(z) by its power series, with compensated (Kahan)
    accumulation, summed over all points of ``z`` at once (shapes and
    refusals as in ``mittag_leffler``).  Gamma(alpha n + beta) is computed
    once per term, each point keeps its own z^n, largest term and sum, and
    leaves the sum at the term where its own series has converged, so each
    value is the one a single-point call gives.  Terms with a gamma argument
    or a power past the double-precision range are evaluated in log space.

    The series is summed a block of terms at a time.  A block's terms fill a
    (terms x live points) array row by row, and its Kahan sums a second one;
    the convergence, overflow and cancellation tests then run once over the
    block, each point stopping at its own first converged term, and the
    points still live are compacted once.  A block has at most 16 terms and,
    unless a single term row is larger, 2^18 elements (2 MB per array).  The
    two arrays are allocated once per call, and each block uses their
    leading elements.

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
    logabsz = np.full(zs.size, -np.inf)
    np.log(np.abs(zv), out=logabsz, where=zv != 0.0)
    # the points whose series is still being summed: index, z, log|z|, z^n,
    # sum, Kahan compensation and largest |term| so far
    live = (np.arange(zs.size), zv, logabsz, np.ones(zs.size), np.zeros(zs.size),
            np.zeros(zs.size), np.zeros(zs.size))
    maxlog = float(logabsz.max(initial=-np.inf))
    # the block's terms and Kahan sums; no block is larger than the first
    cap = min(_ML_BLOCK_ROWS * zs.size, max(_ML_BLOCK_SIZE, zs.size))
    bufs = (np.empty(cap), np.empty(cap))
    n = 0
    # z^(n+1) overflows only where the next term is due in log space, which
    # never reads it; a term or sum that overflows (and the nan its Kahan
    # compensation then takes) is refused below; 0 * log|0| at n = 0 is nan,
    # which compares False
    with np.errstate(over="ignore", invalid="ignore"):
        while live[0].size and n < _ML_MAX_TERMS:
            n, live = _ml_block(alpha, beta, n, maxlog, live, out, refused, bufs)
    refused[live[0]] = 3
    if refused.any():
        raise _ml_refusal(alpha, beta, zs, refused)
    if zs.ndim == 0:
        return float(out[0])
    return out.reshape(zs.shape)


def _ml_block(
    alpha: float, beta: float, n: int, maxlog: float, live: tuple[np.ndarray, ...],
    out: np.ndarray, refused: np.ndarray, bufs: tuple[np.ndarray, np.ndarray],
) -> tuple[int, tuple[np.ndarray, ...]]:
    """Sum one block of terms, from term n on, for the live points (see
    _ml_series; maxlog is the largest log|z|), in the leading elements of the
    two buffers.  A point whose series finishes in the block gets its value
    in ``out`` and its refusal code, if any, in ``refused``.  Returns the next
    term's n and the state of the points still live; z^n, the sum and the
    compensation are updated in place."""
    idx, zv, logabsz, zn, total, comp, largest = live
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
        rows = min(_ML_BLOCK_ROWS, max(1, _ML_BLOCK_SIZE // size), _ML_MAX_TERMS - n)
    args = [alpha * k + beta for k in range(n, n + rows)]
    # terms whose gamma argument is at most 170 and whose n log|z| is at most
    # 690 at every point need no log space
    fast = 0
    while fast < rows and not (args[fast] > 170.0 or (n + fast) * maxlog > 690.0):
        fast += 1
    rows = fast or rows
    terms = bufs[0][: rows * size].reshape(rows, size)
    if fast:
        # z^n .. z^(n+rows-1), each row the one before times z, then z^(n+rows)
        terms[0] = zn
        for p0, p1 in zip(terms, chain(terms[1:], (zn,))):
            np.multiply(p0, zv, out=p1)
        terms /= np.array([gamma(a) for a in args[:rows]])[:, None]
    else:
        for k, (arg, term) in enumerate(zip(args, terms), start=n):
            # gamma(arg) or z^k would overflow a double; work in log space
            if arg > 170.0:
                in_log = np.ones(size, dtype=bool)
            else:
                in_log = k * logabsz > 690.0
                np.divide(zn, gamma(arg), out=term)
                zn *= zv
            if in_log.any():
                log_term = k * logabsz[in_log] - math.lgamma(arg)
                sign = np.where(zv[in_log] < 0.0, -1.0, 1.0) if k % 2 else 1.0
                term[in_log] = np.where(log_term < -600.0, 0.0, sign * np.exp(log_term))
    # Kahan rows: sums[r] is the sum up to the term of row r
    sums = bufs[1][: rows * size].reshape(rows, size)
    y = np.empty(size)
    for term, t0, t1 in zip(terms, chain((total,), sums), sums):
        np.subtract(term, comp, out=y)
        np.add(t0, y, out=t1)
        np.subtract(t1, t0, out=comp)
        np.subtract(comp, y, out=comp)
    # the next block writes the buffers over
    total[...] = sums[-1]
    terms = np.abs(terms, out=terms)
    # the largest |term| up to the block's end, in y, which the sums are done with
    top = np.maximum(terms.max(axis=0, out=y), largest, out=y)
    # each point finishes at its first row whose term is below the tolerance
    # or whose sum overflows; a sum that overflowed stays inf or nan, so the
    # last row shows whether any did
    finished = _ml_converged(terms, sums)
    overflow = not math.isfinite(total.sum())
    if overflow:
        finished |= np.isinf(sums)
    hit = finished.any(axis=0)
    cols = np.flatnonzero(hit)
    live = (idx, zv, logabsz, zn, total, comp, top)
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


def _ml_converged(abs_terms: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """Where a term is below the series' tolerance, 1e-16 * (1 + |sum|); a
    function of its own, so that the tolerances are freed before the block's
    points are compacted."""
    tol = np.abs(sums)
    tol += 1.0
    tol *= _ML_RTOL
    return abs_terms < tol


def _ml_contour(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """E_{alpha,beta}(z) for 0 < alpha < 2 and a 1-d array of finite z <= 0,
    by the trapezoidal rule on a parabolic contour (module docstring).

    E is the inverse Laplace transform of s^(alpha-beta) / (s^alpha - z) at
    t = 1, (1/2 pi i) * integral of e^s s^(alpha-beta) / (s^alpha - z) ds
    along s(u) = mu (1 + iu)^2, which wraps around the branch cut on the
    negative axis.  z is real, so the nodes u >= 0 give the sum over all
    nodes as Im of their own, and each point sums its nodes alone.

    For 1 < alpha < 2 and z < 0 the transform has the poles
    s = |z|^(1/alpha) e^(+-i pi/alpha), with residues (1/alpha) s^(1-beta)
    e^s.  The nodes' distance from the pole, in Im u, is
    |1 - sqrt(phi / mu)| with phi = (Re s + |s|) / 2: the pole lies outside
    the contour where phi > mu, and its residues are added there.  Where the
    trapezoidal rule's error from the pole, about |residue| *
    exp(-2 pi (distance) / h), may exceed e^-40 = 4e-18, the poles'
    principal parts are subtracted from the integrand and both residues
    added, wherever the pole lies, so that the contour passes the pole
    without loss.  A point whose pole lies within a quarter step (in Re u) of
    a node uses the nodes shifted by half a step instead.
    """
    z = np.asarray(z, dtype=float)
    out = np.zeros(z.size)
    shifted = np.zeros(z.size, dtype=bool)
    near = np.zeros(z.size, dtype=bool)
    # the pole in the upper half plane and its residue's 1/alpha s^(1-beta),
    # where the pole is subtracted
    poles = np.zeros(z.size, dtype=complex)
    coef = np.zeros(z.size, dtype=complex)
    if alpha > 1.0:
        # at z = 0 the transform is s^-beta, with no pole
        has_pole = np.flatnonzero(z < 0.0)
        angle = math.pi / alpha
        logr = np.log(-z[has_pole]) / alpha
        r = np.exp(logr)
        # sqrt(phi / mu), and the pole's u = i (1 - sqrt(s / mu))
        depth = np.sqrt(r / _MLC_MU) * math.cos(angle / 2.0)
        k = np.sqrt(r / _MLC_MU) * math.sin(angle / 2.0) / _MLC_STEP
        shifted[has_pole] = np.abs(k - np.round(k)) < 0.25
        log_res = (1.0 - beta) * logr + r * math.cos(angle) - math.log(alpha)
        close = log_res - 2.0 * math.pi * np.abs(1.0 - depth) / _MLC_STEP > _MLC_LOG_POLE
        near[has_pole] = close
        # the residues (1/alpha) s^(1-beta) e^s of both poles, in log space
        add = close | (depth > 1.0)
        logs = logr[add] + 1j * angle
        out[has_pole[add]] = 2.0 * (np.exp((1.0 - beta) * logs + np.exp(logs)) / alpha).real
        logs = logr[close] + 1j * angle
        poles[near] = np.exp(logs)
        coef[near] = np.exp((1.0 - beta) * logs) / alpha
    rows = max(1, _MLC_CHUNK // _MLC_NODES)
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
            with np.errstate(over="ignore"):
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
