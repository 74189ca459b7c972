"""Benchmark-problem factory tests: closed forms, residual validation and
input checking."""

import math

import mpmath
import numpy as np
import pytest

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


class TestMlProblem:
    def test_forcing_single_power(self):
        prob = make_ml_problem(2, 0.75)
        x = np.array([0.25, 1.0])
        ratio = prob.forcing(x)[0] / prob.forcing(x)[1]
        assert ratio == pytest.approx(0.25 ** (3 * 0.75), rel=1e-12)

    def test_exact_at_zero(self):
        prob = make_ml_problem(3, 0.5)
        assert float(prob.exact(np.array([0.0]))[0]) == pytest.approx(0.0, abs=1e-14)

    def test_vanishing_order(self):
        assert make_ml_problem(4, 0.65).vanishing_order == math.ceil(5 * 0.65) - 1

    def test_validation(self):
        with pytest.raises(ValueError):
            make_ml_problem(1, 0.5)


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

    def test_validation(self):
        with pytest.raises(ValueError):
            residual_check(make_power_problem(4.0, 0.5), samples=1)
