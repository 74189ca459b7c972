"""The scheme recurrence of every solve, as a triangular-Toeplitz solve.

Every scheme solves the same linear equation y + I^alpha y = F, so its
recurrence is a lower-triangular Toeplitz system a * v = g on the unknowns
past the startup zeros.  The system is solved as the power-series quotient
g / a, in O(n log n) operations: Newton doubling computes only the inverse
1/a, to K = ceil(N/2) terms for N unknowns, and one Karp-Markstein step
(ACM TOMS 23(4), 1997) closes with the quotient, v[:K] = (g / a) mod z^K, the
residual r = (g - a v)[K:N] and v[K:N] = (r / a) mod z^(N-K).  Hairer, Lubich
and Schlichte (SIAM J. Sci. Stat. Comput. 6, 1985) give the classical fast
solve of the same cost.

Step plan.  The inverse's steps are planned top-down from K: the last step
ends at K, and a step that ends at t starts at ceil(t/2), down to 1
(step_ends).  A step from k to t extends the inverse from k to t terms, so
no step computes a term past K.  For K a power of two the plan is the plain
doubling.  The inverse's first terms, up to the largest step end b at or
below BASE_MAX, come from the plain recurrence in Python floats, where a
numpy call costs more than the whole block's arithmetic, and the doubling
starts at b.

Products.  A doubling step forms a times the inverse, which gives the
residual e, and the inverse times e, which gives the new terms; the last
step forms the inverse times g, a times v[:K] and the inverse times r.
While a step ends at or below DIRECT_PRODUCT_MAX, where a call's overhead
costs more than the arithmetic a transform saves, each row forms them with
np.convolve: two calls per doubling step and three in the last step.
Above it they are formed by real FFTs of length M, the smallest 2^a 3^b 5^c
at or above the step's end (transform_length), whose cyclic wrap-around
lands only on terms the step does not read; no transform is padded to the
next power of two.  An FFT doubling step makes five transform calls: a,
the inverse, their product, e and the product with e.  The last step makes
seven: (inverse, g) in one stacked call, their product, a, v[:K], their
product, r and the product with r.

Memory.  Each product is written into the transform it replaces, the last
step's later transforms into g's, and each array is freed after its last
read; v is written into the output.  numpy's complex product is not bitwise
commutative, so every step takes its operands in one fixed order, a before
the inverse and the inverse before g and the residuals, whatever the size.
The last step sets the peak: the forcing, the weights, a, the output and
the two transforms of (inverse, g), with one more transform or product.
solve at n = 2^14, 2^15 or 2^18 peaks at 7.0 rows of n+1 doubles under
tracemalloc, the solver's own arrays included; it peaked at 9.0 rows when
every doubling step carried the quotient beside the inverse, and at 13.6
when each product took an array of its own and the nodes and the output
were held through the steps.

Stacked rows.  recurrence takes one row or a stack of R rows that share n
and the startup zeros, such as a table's columns.  The first block and the
direct steps run row by row; each FFT step transforms every row in the same
calls, along the last axis.  Each row's arithmetic is that of its one-row
call, so each row of a stacked solve equals its own solve bit for bit.
"""

from __future__ import annotations

import numpy as np

# Largest step end t whose products are formed by np.convolve rather than by FFT.
DIRECT_PRODUCT_MAX = 256
# The doubling starts at the largest step end at or below this; the unknowns
# before it come from the plain recurrence in Python floats.
BASE_MAX = 10


def active_backend() -> str:
    """Name of the recurrence implementation; there is a single numpy one."""
    return "numpy"


def step_ends(N: int) -> list[int]:
    """Ends 1 = t_0 < t_1 < ... < t_J = N of the doubling steps over N
    unknowns, planned from the top: t_{j-1} = ceil(t_j / 2)."""
    ends = [N]
    while ends[-1] > 1:
        ends.append((ends[-1] + 1) // 2)
    return ends[::-1]


def transform_length(t: int) -> int:
    """The smallest 2^a 3^b 5^c at or above t."""
    best = 1 << (t - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest p35 2^a >= t
            best = min(best, p35 << ((t - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def recurrence(
    forcing: np.ndarray,
    weights: np.ndarray,
    corr: np.ndarray,
    startup_zeros: int,
    gamma_alpha: float | np.ndarray,
    h_alpha: float | np.ndarray,
) -> np.ndarray:
    """Scheme solution u_0..u_n with u_0 = ... = u_{startup_zeros} = 0, for
    n > startup_zeros (solver._solve_rows refuses fewer steps).

    forcing: F_0..F_n; weights[k] = k^(alpha-1) (weights[0] unused); corr
    (possibly empty) holds c_0, c_1, ...: c_0 enters the denominator, c_j
    multiplies u_{m-j}.  With s = startup_zeros and v_i = u_{s+1+i}, each step
    of the explicit scheme reads sum_{k<=i} a_k v_{i-k} = g_i, where
    a_0 = Gamma(alpha) + c_0 h^alpha, a_k = h^alpha (k^(alpha-1) + c_k) and
    g_i = Gamma(alpha) F_{s+1+i}.

    For R rows at once, forcing and weights have shape (R, n+1), corr
    (R, k) and gamma_alpha and h_alpha shape (R,); the result is then
    (R, n+1), one solution per row.
    """
    rfft, irfft = np.fft.rfft, np.fft.irfft
    F = np.atleast_2d(forcing)
    R, n1 = F.shape
    gam = np.asarray(gamma_alpha, dtype=float).reshape(R, 1)
    ha = np.asarray(h_alpha, dtype=float).reshape(R, 1)
    corr = np.reshape(corr, (R, -1))
    first = startup_zeros + 1
    N = n1 - first
    u = np.zeros((R, n1))
    a = ha * np.atleast_2d(weights)[:, :N]
    a[:, 0] = gam[:, 0]
    nc = min(corr.shape[1], N)
    a[:, :nc] += ha * corr[:, :nc]
    # The dominant a_0 and inv_0 = 1/a_0 enter as exact scalar products, not
    # through the products below, so that their roundoff scales with the
    # smaller terms only; a_0 and the inverse's first term are kept 0.
    inv0 = 1.0 / a[:, :1]
    a[:, 0] = 0.0
    # g_i = Gamma(alpha) F_{first+i}; v is written into the output.  w[:, 0]
    # holds the inverse 1/a mod z^t, up to t = K, and w[:, 1] g mod z^K.
    F, v = F[:, first:], u[:, first:]
    K = (N + 1) // 2
    w = np.zeros((R, 2, K))
    np.multiply(gam, F[:, :K], out=w[:, 1])
    ends = step_ends(K)
    # The first b terms of the inverse come from the plain recurrence, and
    # the doubling starts at b.
    b = max(t for t in ends if t <= BASE_MAX)
    steps = [(k, t) for k, t in zip(ends, ends[1:]) if k >= b]
    direct = [st for st in steps if st[1] <= DIRECT_PRODUCT_MAX]
    inv = w[:, 0]
    for i in range(R):
        _inverse_head(a[i], inv[i], inv0[i, 0], b, direct)
    # The same steps for all rows at once, by FFT.  Each product is written
    # into the transform it replaces, operands in a fixed order, and each
    # array is freed after its last read.
    for k, t in steps[len(direct):]:
        m = t - k
        M = transform_length(t)
        fa = rfft(a[:, :t], M)
        fi = rfft(inv[:, :k], M)
        p = irfft(np.multiply(fa, fi, out=fa), M)
        del fa
        e = p[:, k:t] + inv0 * a[:, k:t]
        del p
        fe = rfft(e, M)
        q = irfft(np.multiply(fi, fe, out=fe), M)
        del fi, fe
        np.subtract(-(inv0 * e), q[:, :m], out=inv[:, k:t])
        del q, e
    # The Karp-Markstein step: v[:K] = (inv g) mod z^K, r = (g - a v)[K:N]
    # and v[K:N] = (inv r) mod z^(N-K), N - K <= K.  v[K:N] starts as g[K:N].
    lo, hi = v[:, :K], v[:, K:]
    np.multiply(gam, F[:, K:], out=hi)
    if N <= DIRECT_PRODUCT_MAX:
        for ar, ir, gr, vr, c in zip(a, inv, w[:, 1], v, inv0[:, 0]):
            vr[:K] = c * gr + np.convolve(ir, gr)[:K]
            if N > K:
                r = vr[K:] - np.convolve(ar, vr[:K])[K:N]
                vr[K:] = c * r + np.convolve(ir[: N - K], r)[: N - K]
        return u if np.ndim(forcing) == 2 else u[0]
    M = transform_length(N)
    # (inverse, g) in one call; g's transform is then the buffer of the
    # step's later transforms, and the inverse's is read until the last one
    fw = rfft(w, M)
    del inv, w
    fi, fb = fw[:, 0], fw[:, 1]
    q = irfft(np.multiply(fi, fb, out=fb), M)
    # g[:K] again, as w is freed
    np.multiply(gam, F[:, :K], out=lo)
    np.multiply(inv0, lo, out=lo)
    np.add(lo, q[:, :K], out=lo)
    del q
    fa = rfft(a, M)
    fp = np.multiply(fa, rfft(lo, M, out=fb), out=fb)
    del fa
    p = irfft(fp, M)
    del fp
    np.subtract(hi, p[:, K:N], out=hi)
    del p
    q = irfft(np.multiply(fi, rfft(hi, M, out=fb), out=fb), M)
    del fw, fi, fb
    np.multiply(inv0, hi, out=hi)
    np.add(hi, q[:, : N - K], out=hi)
    return u if np.ndim(forcing) == 2 else u[0]


def _inverse_head(ar, ir, c, b, direct):
    """One row's inverse ir = 1/a mod z^t, its first term kept 0, for the
    first b terms and the direct steps (k, t): c = 1/a_0 and ar is a with
    a_0 kept 0."""
    # inv_j for 0 < j < b from sum_{i<=j} a_i inv_{j-i} = 0, in Python floats
    al, iv = ar[:b].tolist(), [0.0] * b
    for j in range(1, b):
        s = c * al[j]
        for i in range(1, j):
            s += al[i] * iv[j - i]
        iv[j] = -(c * s)
    ir[:b] = iv
    # The inverse is exact mod z^k.  A step to t forms the residual
    # e = (a inv)[k:t] and sets inv[k:t] = -(inv e) mod z^m, m = t - k <= k.
    for k, t in direct:
        m = t - k
        e = np.convolve(ar[:t], ir[:k])[k:t] + c * ar[k:t]
        ir[k:t] = -(c * e) - np.convolve(ir[:m], e)[:m]
