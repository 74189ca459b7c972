"""Recurrence kernel tests: the numpy recurrence against a plain-Python
O(n^2) oracle, the backend stamp, and determinism."""

import numpy as np
import pytest

from fracrelax import _kernels
from fracrelax.problems import make_power_problem
from fracrelax.solver import solve


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


class TestDeterminism:
    def test_repeated_runs_identical(self):
        prob = make_power_problem(4.0, 0.5)
        u1 = solve(prob, "A2", 128).values
        u2 = solve(prob, "A2", 128).values
        assert np.array_equal(u1, u2)
