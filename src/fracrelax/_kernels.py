"""The scheme recurrence of every solve, as a triangular-Toeplitz solve.

Every scheme solves the same linear equation y + I^alpha y = F, so its
recurrence is a lower-triangular Toeplitz system a * v = g on the unknowns
past the startup zeros.  The system is solved as the power-series quotient
g / a by Newton doubling with real FFTs (Karp-Markstein: each step extends the
inverse of a and the quotient together), in O(n log n) operations.  No
transform is longer than the next power of two at or above the number of
unknowns.
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the recurrence implementation; there is a single numpy one."""
    return "numpy"


def recurrence(
    forcing: np.ndarray,
    weights: np.ndarray,
    corr: np.ndarray,
    startup_zeros: int,
    gamma_alpha: float,
    h_alpha: float,
) -> np.ndarray:
    """Scheme solution u_0..u_n with u_0 = ... = u_{startup_zeros} = 0.

    forcing: F_0..F_n; weights[k] = k^(alpha-1) (weights[0] unused); corr
    (possibly empty) holds c_0, c_1, ...: c_0 enters the denominator, c_j
    multiplies u_{m-j}.  With s = startup_zeros and v_i = u_{s+1+i}, each step
    of the explicit scheme reads sum_{k<=i} a_k v_{i-k} = g_i, where
    a_0 = Gamma(alpha) + c_0 h^alpha, a_k = h^alpha (k^(alpha-1) + c_k) and
    g_i = Gamma(alpha) F_{s+1+i}.
    """
    rfft, irfft = np.fft.rfft, np.fft.irfft
    n = forcing.shape[0] - 1
    u = np.zeros(n + 1)
    first = startup_zeros + 1
    N = n + 1 - first
    if N <= 0:
        return u
    a = h_alpha * weights[:N]
    a[0] = gamma_alpha
    nc = min(corr.shape[0], N)
    a[:nc] += h_alpha * corr[:nc]
    v = u[first:]
    # inv holds 1/a mod z^k, k up to the largest power of two below N.  The
    # dominant a_0 and inv_0 = 1/a_0 enter as exact scalar products, not
    # through the transforms, so that FFT roundoff scales with the smaller
    # terms only; a[0] and inv[0] are kept zero.
    inv0 = 1.0 / a[0]
    inv = np.zeros(1 << max(0, (N - 1).bit_length() - 1))
    v[0] = gamma_alpha * forcing[first] * inv0
    a[0] = 0.0
    k = 1
    while k < N:
        # v and inv are exact mod z^k.  With the residual r = (g - a v)[k:L],
        # v[k:L] = (inv r) mod z^k; with e = (a inv)[k:L], inv[k:L] =
        # -(inv e) mod z^k.  The cyclic products of length L alias only terms
        # past L - 1 onto 0..k-2, below the k..L-1 read from them.
        L, top = 2 * k, min(2 * k, N)
        fa = rfft(a[:L], L)
        r = irfft(fa * rfft(v[:k], L), L)[k:top]
        r = gamma_alpha * forcing[first + k:first + top] - r
        fi = rfft(inv[:k], L)
        if L < N:
            e = irfft(fa * fi, L)[k:L] + inv0 * a[k:L]
            inv[k:L] = -(inv0 * e + irfft(fi * rfft(e, L), L)[:k])
        # Each transform is freed once used: the last step sets peak memory.
        del fa
        v[k:top] = inv0 * r + irfft(fi * rfft(r, L), L)[:top - k]
        del fi, r
        k = L
    return u
