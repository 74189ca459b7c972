"""The scheme recurrence of every solve, as a triangular-Toeplitz solve.

Every scheme solves the same linear equation y + I^alpha y = F, so its
recurrence is a lower-triangular Toeplitz system a * v = g on the unknowns
past the startup zeros.  The system is solved as the power-series quotient
g / a by Newton doubling (Karp-Markstein: each step extends the inverse of a
and the quotient together), in O(n log n) operations; Hairer, Lubich and
Schlichte (SIAM J. Sci. Stat. Comput. 6, 1985) give the classical fast solve
of the same cost.

Step plan.  The steps are planned top-down from the number N of unknowns:
the last step ends at N, and a step that ends at t starts at ceil(t/2), down
to 1 (step_ends).  A step from k to t extends v and the inverse from k to t
terms, so no step computes a term past N.  For N a power of two the plan is
the plain doubling.  The first unknowns, up to the largest step end b at or
below BASE_MAX, come from the plain recurrence in Python floats, where a
numpy call costs more than the whole block's arithmetic, and the doubling
starts at b.

Products.  A step forms a times (v, inverse), which gives the residuals
(r, e), and the inverse times (r, e), which gives the new terms.  While
t <= DIRECT_PRODUCT_MAX, where a call's overhead costs more than the
arithmetic a transform saves, each row forms them with np.convolve, four
calls per step.  Above it they are formed by real FFTs of length M, the
smallest 2^a 3^b 5^c at or above t (transform_length), whose cyclic
wrap-around lands only on terms the step does not read; no transform is
padded to the next power of two.  v and the inverse are two rows of one
array, and so are r and e, so an FFT step makes five transform calls: a,
(v, inverse), the two products with a, (r, e), and the two products with
the inverse.  The last step needs no e.

Memory.  Each product is written into the transform it replaces, and each
transform and inverse transform is freed after its last read; the output is
allocated after the steps.  numpy's complex product is not bitwise
commutative, so every step takes its operands in one fixed order, (a,
(v, inverse)) and (inverse, residuals), whatever the size.  The last step
sets the peak: the forcing, the weights, a and (v, inverse), and
its transforms.  solve at n = 2^14, 2^15 or 2^18 peaks at 9.0 rows of n+1
doubles under tracemalloc, the solver's own arrays included; it peaked at
13.6 rows when each product took an array of its own and the nodes and the
output were held through the steps.

Stacked rows.  recurrence takes one row or a stack of R rows that share n
and the startup zeros, such as a table's columns.  The first block and the
direct steps run row by row; each FFT step transforms every row in the same
five calls, along the last axis.  Each row's arithmetic is that of its
one-row call, so each row of a stacked solve equals its own solve bit for
bit.
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
    """Scheme solution u_0..u_n with u_0 = ... = u_{startup_zeros} = 0.

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
    if N <= 0:
        u = np.zeros((R, n1))
        return u if np.ndim(forcing) == 2 else u[0]
    a = ha * np.atleast_2d(weights)[:, :N]
    a[:, 0] = gam[:, 0]
    nc = min(corr.shape[1], N)
    a[:, :nc] += ha * corr[:, :nc]
    # The dominant a_0 and inv_0 = 1/a_0 enter as exact scalar products, not
    # through the products below, so that their roundoff scales with the
    # smaller terms only; a_0 and the inverse's first term are kept 0.
    ninv0 = -1.0 / a[:, :1]
    a[:, 0] = 0.0
    # g_i = Gamma(alpha) F_{first+i}.  w[:, 0] holds -v and w[:, 1] the
    # inverse 1/a mod z^t: every negation is exact, and with -v the two
    # residuals of a step are g and 0 plus the products of a with w.
    F = F[:, first:]
    w = np.zeros((R, 2, N))
    ends = step_ends(N)
    # The first b unknowns come from the plain recurrence, and the doubling
    # starts at b.
    b = max(t for t in ends if t <= BASE_MAX)
    steps = [(k, t) for k, t in zip(ends, ends[1:]) if k >= b]
    direct = [st for st in steps if st[1] <= DIRECT_PRODUCT_MAX]
    # g and -inv_0 a on the terms that the rows' own loop reads
    span = direct[-1][1] if direct else b
    g, ca = gam * F[:, :span], ninv0 * a[:, :span]
    for ar, gr, car, vr, ir, c in zip(a, g, ca, w[:, 0], w[:, 1], ninv0[:, 0]):
        # v_j and inv_j for 0 < j < b from sum_{i<=j} a_i v_{j-i} = g_j and
        # sum_{i<=j} a_i inv_{j-i} = 0, with the true a_0 = -1/c, in Python
        # floats
        al, gl = ar[:b].tolist(), gr[:b].tolist()
        nv, iv = [c * gl[0]] + [0.0] * (b - 1), [0.0] * b
        for j in range(1, b):
            sv, si = gl[j] + al[j] * nv[0], -c * al[j]
            for i in range(1, j):
                sv += al[i] * nv[j - i]
                si += al[i] * iv[j - i]
            nv[j], iv[j] = c * sv, c * si
        vr[:b], ir[:b] = nv, iv
        # v and the inverse are exact mod z^k.  A step to t forms the
        # residuals r = (g - a v)[k:t] and e = (a inv + inv_0 a)[k:t] and
        # sets v[k:t] = inv_0 r + (inv r) mod z^m and inv[k:t] = -(inv_0 e +
        # (inv e) mod z^m), m = t - k <= k.  The last step needs no e.
        for k, t in direct:
            m = t - k
            r = gr[k:t] + np.convolve(ar[:t], vr[:k])[k:t]
            if t < N:
                e = np.convolve(ar[:t], ir[:k])[k:t] - car[k:t]
                ir[k:t] = c * e - np.convolve(ir[:m], e)[:m]
            vr[k:t] = c * r - np.convolve(ir[:m], r)[:m]
    # The same steps for all rows at once, by FFT.  Each product is written
    # into the transform it replaces, operands in a fixed order, and each
    # array is freed after its last read: the last step sets peak memory, 9 rows.
    for k, t in steps[len(direct):]:
        m = t - k
        ops = 1 if t == N else 2
        M = transform_length(t)
        fa = rfft(a[:, :t], M)
        fw = rfft(w[:, :, :k], M)
        # the last step reads v's transform only here, so its product overwrites it
        fp = np.multiply(fa[:, None], fw[:, :1], out=fw[:, :1]) if ops == 1 else fa[:, None] * fw
        del fa
        p = irfft(fp, M)
        del fp
        res = np.empty((R, ops, m))
        np.add(gam * F[:, k:t], p[:, 0, k:t], out=res[:, 0])
        if ops == 2:
            np.subtract(p[:, 1, k:t], ninv0 * a[:, k:t], out=res[:, 1])
        del p
        fr = rfft(res, M)
        np.multiply(fw[:, 1:], fr, out=fr)
        del fw
        q = irfft(fr, M)
        del fr
        np.subtract(ninv0[:, None] * res, q[..., :m], out=w[:, :ops, k:t])
        del q, res
    u = np.zeros((R, n1))
    np.negative(w[:, 0], out=u[:, first:])
    return u if np.ndim(forcing) == 2 else u[0]
