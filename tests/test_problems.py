"""Benchmark-problem factory tests: closed forms, residual validation and
input checking."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from fracrelax.fracint import UniformGrid, corrected_sum_I, scheme_coefficients
from fracrelax.problems import (
    make_exp_problem,
    make_ml_problem,
    make_power_problem,
    residual_check,
)
from fracrelax.specfun import gamma


class TestPowerProblem:
    def test_exact_and_forcing(self):
        prob = make_power_problem(4.0, 0.5)
        x = np.array([0.0, 0.5, 1.0])
        assert np.allclose(prob.exact(x), x**4)
        expect = x**4 + gamma(5.0) / gamma(5.5) * x**4.5
        assert np.allclose(prob.forcing(x), expect)

    def test_vanishing_order(self):
        assert make_power_problem(4.0, 0.5).vanishing_order == 3
        assert make_power_problem(1.05, 0.5).vanishing_order == 1

    def test_large_p_coefficient(self):
        # Gamma(201) and Gamma(201.5) both overflow a double; their ratio does not.
        prob = make_power_problem(200.0, 0.5)
        coef = float(prob.forcing(np.array([1.0]))[0] - prob.exact(np.array([1.0]))[0])
        with mpmath.workdps(30):
            expect = float(mpmath.gamma(201) / mpmath.gamma(mpmath.mpf(201.5)))
        assert coef == pytest.approx(expect, rel=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_power_problem(0.0, 0.5)


class TestExpProblem:
    def test_exact_is_taylor_remainder(self):
        prob = make_exp_problem(2, 0.5)
        x = np.array([0.0, 0.3, 1.0])
        expect = np.exp(x) - 1.0 - x - x**2 / 2.0
        assert np.allclose(prob.exact(x), expect, atol=1e-14)

    def test_exact_vanishes_fast_at_zero(self):
        prob = make_exp_problem(3, 0.5)
        h = 1e-3
        # remainder of degree-3 Taylor polynomial is O(h^4)
        assert abs(float(prob.exact(np.array([h]))[0])) < 2.0 * h**4 / 24.0

    def test_validation(self):
        with pytest.raises(ValueError):
            make_exp_problem(-1, 0.5)
        with pytest.raises(ValueError):
            make_exp_problem(13, 0.5)

    @pytest.mark.filterwarnings("error")
    def test_largest_X(self):
        # F approaches 2 e^x: finite up to log(DBL_MAX) - 1, refused past it
        prob = make_exp_problem(0, 0.5, X=708.5)
        assert np.all(np.isfinite(prob.forcing(np.linspace(0.0, 708.5, 9))))
        for X in (709.0, 1000.0):
            with pytest.raises(ValueError, match="forcing overflows a double"):
                make_exp_problem(0, 0.5, X=X)


class TestMlProblem:
    def test_forcing_single_power(self):
        prob = make_ml_problem(2, 0.75)
        x = np.array([0.25, 1.0])
        ratio = prob.forcing(x)[0] / prob.forcing(x)[1]
        assert ratio == pytest.approx(0.25 ** (3 * 0.75), rel=1e-12)

    def test_exact_at_zero(self):
        prob = make_ml_problem(3, 0.45)
        assert float(prob.exact(np.array([0.0]))[0]) == pytest.approx(0.0, abs=1e-14)

    def test_vanishing_order(self):
        assert make_ml_problem(4, 0.65).vanishing_order == math.ceil(5 * 0.65) - 1

    def test_validation(self):
        with pytest.raises(ValueError):
            make_ml_problem(1, 0.5)

    @pytest.mark.parametrize("alpha", [0.5, 0.5 + 1e-9, 1e-9])
    def test_vanishing_forcing_is_refused(self, alpha):
        # Gamma(1 + 2 alpha) = 1 at alpha = 0.5 (and at 0), where F = 0
        with pytest.raises(ValueError, match="forcing is 0"):
            make_ml_problem(2, alpha)

    def test_overflowing_forcing_coefficient_is_refused(self):
        # Gamma(1 + 201 * 1.9) is past the double range
        with pytest.raises(ValueError, match="within the double range"):
            make_ml_problem(200, 1.9)


class TestResidualCheck:
    # every factory instance must satisfy its own integral equation
    CASES = [
        make_power_problem(4.0, 0.5),
        make_power_problem(1.05, 0.25),
        make_power_problem(4.0, 1.5),
        make_exp_problem(2, 0.5),
        make_exp_problem(3, 1.5),
        make_ml_problem(2, 0.75),
        make_ml_problem(4, 0.65),
        make_ml_problem(4, 1.65),
    ]

    @pytest.mark.parametrize("prob", CASES, ids=lambda p: f"{p.label}-a{p.alpha:g}")
    def test_residual_small(self, prob):
        assert residual_check(prob, samples=10, n=1024) <= 1e-6

    @pytest.mark.parametrize("prob", CASES, ids=lambda p: f"{p.label}-a{p.alpha:g}")
    def test_one_forcing_call_gives_the_per_point_residual(self, prob):
        calls = []

        def forcing(x):
            calls.append(np.size(x))
            return prob.forcing(x)

        counted = dataclasses.replace(prob, forcing=forcing)
        assert residual_check(counted, samples=8, n=1024) == per_point_residual(prob, 8, 1024)
        assert calls == [8]

    def test_relative_residual_of_a_large_problem(self):
        # on [0, 100] the ml problem's |F| reaches 1.6e10 at alpha = 1.94,
        # and its residual, 6e-4, sits at the rounding error of that scale
        prob = make_ml_problem(2, 1.94, X=100.0)
        x = np.linspace(0.0, 100.0, 1025)[[128 * j for j in range(1, 9)]]
        scale = max(1.0, np.abs(prob.exact(x)).max(), np.abs(prob.forcing(x)).max())
        res = residual_check(prob, samples=8, n=1024)
        assert residual_check(prob, samples=8, n=1024, relative=True) == res / scale
        assert res / scale <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            residual_check(make_power_problem(4.0, 0.5), samples=1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("prob", [
        dataclasses.replace(make_power_problem(4.0, 0.5),
                            forcing=lambda x: np.full(np.shape(x), np.nan)),
        make_power_problem(4.0, 0.5, X=1e200),
    ], ids=["nan-forcing", "power-X1e200"])
    def test_non_finite_values_are_refused(self, prob):
        # max(0.0, nan) is 0.0: a nan residual must not read as a pass
        with pytest.raises(ValueError, match="not finite"):
            residual_check(prob, samples=8, n=1024)


def per_point_residual(problem, samples, n):
    """residual_check computed with one forcing call per sample point: the
    reference for its single call on all sample points."""
    x = np.linspace(0.0, problem.X, n + 1)
    y = np.asarray(problem.exact(x), dtype=float)
    coeffs = scheme_coefficients(problem.alpha, "A4")
    worst = 0.0
    for j in range(1, samples + 1):
        m = (j * n) // samples
        grid = UniformGrid(X=x[m], n=m, values=y[: m + 1])
        q = corrected_sum_I(grid, coeffs)
        f = float(np.asarray(problem.forcing(np.array([x[m]])))[0])
        worst = max(worst, abs(y[m] + q - f))
    return worst
