"""Recurrence kernel tests: the triangular-Toeplitz solve (direct products in
short doubling steps, FFTs in long ones) against a plain-Python O(n^2) oracle
and against the former np.dot loop, the backend stamp, determinism, and the
solve's peak memory."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracrelax import _kernels
from fracrelax.fracint import ORDER_TAGS, STARTUP_ZEROS, power_weights, scheme_coefficients
from fracrelax.problems import make_power_problem
from fracrelax.solver import solve
from fracrelax.specfun import gamma


def oracle_recurrence(forcing, weights, corr, startup_zeros, gamma_alpha, h_alpha):
    """The explicit scheme recurrence as a direct loop with Kahan-summed history."""
    n = len(forcing) - 1
    u = [0.0] * (n + 1)
    denom = gamma_alpha + corr[0] * h_alpha
    for m in range(startup_zeros + 1, n + 1):
        s = 0.0
        comp = 0.0
        for k in range(1, m):
            y = u[m - k] * weights[k] - comp
            t = s + y
            comp = (t - s) - y
            s = t
        for j in range(1, len(corr)):
            s += corr[j] * u[m - j]
        u[m] = (gamma_alpha * forcing[m] - h_alpha * s) / denom
    return np.array(u)


def dot_loop_recurrence(forcing, weights, corr, startup_zeros, gamma_alpha, h_alpha):
    """The O(n^2) np.dot loop that the FFT solve replaced; corr must be non-empty."""
    n = forcing.shape[0] - 1
    u = np.zeros(n + 1)
    denom = gamma_alpha + corr[0] * h_alpha
    for m in range(startup_zeros + 1, n + 1):
        s = float(np.dot(u[m - 1:0:-1], weights[1:m]))
        for j in range(1, corr.shape[0]):
            s += corr[j] * u[m - j]
        u[m] = (gamma_alpha * forcing[m] - h_alpha * s) / denom
    return u


def scheme_args(alpha, tag, n, forcing):
    """recurrence arguments for the scheme `tag` on n steps of [0, 1]."""
    corr = np.asarray(scheme_coefficients(alpha, tag).c, dtype=float)
    return (forcing, power_weights(alpha, n), corr, STARTUP_ZEROS[tag], gamma(alpha),
            (1.0 / n) ** alpha)


def with_c0(corr):
    """The reference loops need c_0; an empty correction set means c_0 = 0."""
    return corr if corr.shape[0] else np.zeros(1)


class TestActiveBackend:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv("FRACRELAX_BACKEND", raising=False)
        assert _kernels.active_backend() == "numpy"

    def test_explicit_numpy(self, monkeypatch):
        monkeypatch.setenv("FRACRELAX_BACKEND", "numpy")
        assert _kernels.active_backend() == "numpy"

    def test_auto(self, monkeypatch):
        monkeypatch.setenv("FRACRELAX_BACKEND", "auto")
        assert _kernels.active_backend() == "numpy"

    def test_env_variable_ignored(self, monkeypatch):
        monkeypatch.setenv("FRACRELAX_BACKEND", "numba")
        assert _kernels.active_backend() == "numpy"


class TestOracle:
    @pytest.mark.parametrize("startup_zeros", [0, 1, 2])
    @pytest.mark.parametrize("n_corr", [1, 2, 3, 4, 5])
    def test_matches_direct_loop(self, n_corr, startup_zeros):
        rng = np.random.default_rng(100 * n_corr + startup_zeros)
        n = int(rng.integers(startup_zeros + 2, 201))
        alpha = float(rng.choice([rng.uniform(0.05, 0.95), rng.uniform(1.05, 1.95)]))
        forcing = rng.standard_normal(n + 1)
        weights = np.zeros(n + 1)
        weights[1:] = np.arange(1, n + 1, dtype=float) ** (alpha - 1.0)
        corr = rng.uniform(-0.5, 0.5, n_corr)
        args = (forcing, weights, corr, startup_zeros, 1.3, (1.0 / n) ** alpha)
        got = _kernels.recurrence(*args)
        want = oracle_recurrence(*args)
        assert np.all(got[: startup_zeros + 1] == 0.0)
        assert float(np.max(np.abs(got - want))) <= 1e-13


class TestToeplitzSolve:
    # N = n - startup_zeros unknowns on either side of the doubling steps,
    # and of the step length where direct products give way to FFTs.
    @pytest.mark.parametrize("N", [63, 64, 65, 127, 128, 129, 255, 256, 257, 511, 512, 513])
    @pytest.mark.parametrize("tag", ["A", "A1", "A3", "A4"])
    def test_doubling_boundaries(self, N, tag):
        n = N + STARTUP_ZEROS[tag]
        forcing = np.random.default_rng(N).standard_normal(n + 1)
        forcing, weights, corr, s, gam, ha = scheme_args(0.65, tag, n, forcing)
        got = _kernels.recurrence(forcing, weights, corr, s, gam, ha)
        want = oracle_recurrence(forcing, weights, with_c0(corr), s, gam, ha)
        assert np.all(got[: s + 1] == 0.0)
        assert float(np.max(np.abs(got - want))) <= 1e-13

    def test_empty_correction_is_zero_c0(self):
        n = 150
        forcing = np.random.default_rng(7).standard_normal(n + 1)
        weights = power_weights(1.3, n)
        args = (gamma(1.3), (1.0 / n) ** 1.3)
        got = _kernels.recurrence(forcing, weights, np.zeros(0), 0, *args)
        want = oracle_recurrence(forcing, weights, np.zeros(1), 0, *args)
        assert float(np.max(np.abs(got - want))) <= 1e-13

    @pytest.mark.parametrize("startup_zeros", [0, 2])
    def test_correction_longer_than_unknowns(self, startup_zeros):
        # c_j with j >= N = n - startup_zeros only ever multiplies a prescribed zero.
        n = 12
        N = n - startup_zeros
        rng = np.random.default_rng(startup_zeros)
        forcing = rng.standard_normal(n + 1)
        weights = power_weights(0.4, n)
        corr = rng.uniform(-0.5, 0.5, 3 * n)
        args = (startup_zeros, gamma(0.4), (1.0 / n) ** 0.4)
        got = _kernels.recurrence(forcing, weights, corr, *args)
        assert np.array_equal(got, _kernels.recurrence(forcing, weights, corr[:N], *args))
        want = oracle_recurrence(forcing, weights, corr[:N], *args)
        assert float(np.max(np.abs(got - want))) <= 1e-13

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.one_of(st.floats(0.01, 0.99), st.floats(1.01, 1.99)),
        tag=st.sampled_from(ORDER_TAGS),
        n=st.integers(4, 700),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_oracle_property(self, alpha, tag, n, seed):
        forcing = np.random.default_rng(seed).standard_normal(n + 1)
        forcing, weights, corr, s, gam, ha = scheme_args(alpha, tag, n, forcing)
        assume(abs(gam + with_c0(corr)[0] * ha) > 1e-12)
        got = _kernels.recurrence(forcing, weights, corr, s, gam, ha)
        want = oracle_recurrence(forcing, weights, with_c0(corr), s, gam, ha)
        assert float(np.max(np.abs(got - want))) <= 1e-13

    @pytest.mark.parametrize("tag", ORDER_TAGS)
    def test_matches_dot_loop_at_4097(self, tag):
        n, alpha = 4097, 0.65
        prob = make_power_problem(4.0, alpha)
        forcing = prob.forcing(np.linspace(0.0, 1.0, n + 1))
        forcing, weights, corr, s, gam, ha = scheme_args(alpha, tag, n, forcing)
        got = _kernels.recurrence(forcing, weights, corr, s, gam, ha)
        want = dot_loop_recurrence(forcing, weights, with_c0(corr), s, gam, ha)
        assert float(np.max(np.abs(got - want))) <= 1e-13


class TestDeterminism:
    def test_repeated_runs_identical(self):
        prob = make_power_problem(4.0, 0.5)
        u1 = solve(prob, "A2", 128).values
        u2 = solve(prob, "A2", 128).values
        assert np.array_equal(u1, u2)


class TestPeakMemory:
    # A row is n + 1 doubles.  The solve holds the forcing, the weights, a
    # and the output (4 rows) through the steps.  The last step transforms
    # (inverse, g) mod z^K, one row, into two and frees it, and then holds
    # those two and one more transform or product: the solve peaks at 7.0.
    # It peaked at 9.0 when every doubling step carried the quotient beside
    # the inverse, and at 13.6 when each product took an array of its own and
    # the nodes and the output were held through the steps.  The bound counts
    # numpy 2's FFT, which pads a short input inside the transform; numpy 1's
    # rfft(x, M) first copied x into a zero-padded array of its own, which
    # the bound does not allow for (the package asks for numpy >= 2).
    @pytest.mark.parametrize("tag", ["A", "A4"])
    def test_a_solve_peaks_at_nine_rows(self, tag):
        n = 2**15
        prob = make_power_problem(2.5, 0.6)
        solve(prob, tag, n)  # warm-up: numpy's FFT plans are cached
        tracemalloc.start()
        try:
            solve(prob, tag, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * 8 * (n + 1)
