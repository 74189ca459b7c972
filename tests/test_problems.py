"""Benchmark-problem factory tests: closed forms, residual validation and
input checking.

The (forcing, exact) formulas of the factories are checked here, over the
domain `fracrelax sweep` accepts, by the decay of their quadrature residual
(residual_converges); the sweep itself runs no such check."""

import dataclasses
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from fracrelax.fracint import UniformGrid, alpha_in_range, corrected_sum_I, scheme_coefficients
from fracrelax import problems
from fracrelax.problems import (
    PROBLEM_KINDS,
    make_exp_problem,
    make_ml_problem,
    make_power_problem,
    make_problem,
    residual_check,
)
from fracrelax.specfun import gamma


class TestMakeProblem:
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("name", ["alpha", "X"])
    @pytest.mark.parametrize("kind,param", [("power", 4.0), ("exp", 2), ("ml", 2)])
    def test_alpha_and_X_not_finite_and_positive_are_refused(self, monkeypatch, kind, param,
                                                             name, value):
        def unreachable(*args):
            raise AssertionError("computed before alpha and X were checked")

        for f in ("gamma", "power_rule_coefficient"):
            monkeypatch.setattr(problems, f, unreachable)
        args = {"alpha": 0.7, "X": 1.0, name: value}
        # an infinite X keeps the exp problem's own refusal, which comes first
        message = f"{kind} problem requires a finite positive {name}, got {value:g}"
        if (kind, name, value) == ("exp", "X", math.inf):
            message = "exp problem requires X <= 708.78"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            make_problem(kind, param, args["alpha"], X=args["X"])

    @pytest.mark.parametrize("kind,factory,param", [
        ("power", make_power_problem, 4.0),
        ("exp", make_exp_problem, 2),
        ("ml", make_ml_problem, 3),
    ])
    def test_builds_the_factory_problem(self, kind, factory, param):
        x = np.linspace(0.0, 2.0, 9)
        got, want = make_problem(kind, param, 0.7, X=2.0), factory(param, 0.7, X=2.0)
        assert (got.label, got.alpha, got.X) == (want.label, want.alpha, want.X)
        assert np.array_equal(got.forcing(x), want.forcing(x))
        assert np.array_equal(got.exact(x), want.exact(x))

    def test_kinds(self):
        assert PROBLEM_KINDS == ("power", "exp", "ml")
        with pytest.raises(ValueError, match="unknown problem kind 'cos'"):
            make_problem("cos", 1.0, 0.5)

    def test_calls_the_factory_bound_in_the_module(self, monkeypatch):
        calls = []
        real = problems.make_exp_problem

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(problems, "make_exp_problem", counted)
        make_problem("exp", 2, 0.5)
        assert calls == [(2, 0.5)]


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

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_p_not_finite_is_refused(self, p):
        with pytest.raises(ValueError, match=f"^power problem requires a finite positive p, "
                                             f"got {p}$"):
            make_power_problem(p, 0.5)

    def test_coefficient_past_the_double_range_is_refused(self):
        # lgamma(1.7e308) overflows, and p + alpha + 1 is inf
        with pytest.raises(ValueError, match="leaves the double range at p=1.7e"):
            make_power_problem(1.7e308, 1.7e308)


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

    @pytest.mark.parametrize("m,alpha", [(0, 1e300), (0, 171.0), (12, 160.0)])
    def test_overflowing_forcing_gamma_is_refused(self, m, alpha):
        # the forcing divides by Gamma(k+1+alpha), k = 0..m, past the double
        # range from 171.62 on
        with pytest.raises(ValueError, match=f"^exp problem requires Gamma\\(m\\+1\\+alpha\\) "
                                             f"within the double range, got m={m}"):
            make_exp_problem(m, alpha)

    def test_largest_forcing_gamma_is_accepted(self):
        prob = make_exp_problem(0, 170.5)
        assert np.all(np.isfinite(prob.forcing(np.linspace(0.0, 1.0, 5))))

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

    @pytest.mark.parametrize("alpha", [0.3, 0.75, 1.75, 1.94])
    def test_exact_matches_mpmath_relative_to_y(self, alpha):
        # The oracle sums the defining form E_a(-x^a) + Gamma(1+2a) x^(3a)
        # E_{a,1+3a}(-x^a) - 1 + x^a/Gamma(1+a) - x^(2a)/Gamma(1+2a) at 50
        # digits, where its O(1) terms cancel harmlessly; y is as small as
        # 1e-23 at x = 1e-4.
        xs = [1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0]
        got = make_ml_problem(2, alpha).exact(np.array(xs))
        with mpmath.workdps(50):
            a = mpmath.mpf(alpha)

            def ml(beta, z):
                total, k = mpmath.mpf(0), 0
                while True:
                    term = z**k / mpmath.gamma(a * k + beta)
                    total += term
                    if k > 3 and abs(term) < mpmath.mpf(10) ** -60:
                        return total
                    k += 1

            g2 = mpmath.gamma(1 + 2 * a)
            for x, y in zip(xs, got):
                xa = mpmath.mpf(x) ** a
                want = (ml(1, -xa) + g2 * xa**3 * ml(1 + 3 * a, -xa)
                        - 1 + xa / mpmath.gamma(1 + a) - xa**2 / g2)
                assert abs(y - want) <= 1e-14 * abs(want), (x, y, float(want))


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

    def test_validation(self):
        with pytest.raises(ValueError):
            residual_check(make_power_problem(4.0, 0.5), samples=1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("prob", [
        dataclasses.replace(make_power_problem(4.0, 0.5),
                            forcing=lambda x: np.full(np.shape(x), np.nan)),
        make_power_problem(4.0, 0.5, X=1e200),
        # y is finite, but its quadrature overflows a double
        dataclasses.replace(make_power_problem(4.0, 0.5),
                            exact=lambda x: np.full(np.shape(x), 1e308)),
    ], ids=["nan-forcing", "power-X1e200", "overflowing-quadrature"])
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


def make_case(family, k, alpha, X):
    """The factory's problem for (family, k, alpha, X), with k the power
    problem's p or the exp and ml problems' m, and two facts of its exact
    solution y that the residual's decay and its rounding floor depend on:
    nu, y's exponent at 0, and the largest term that y's formula cancels, as a
    function of x."""
    if family == "power":
        return make_power_problem(k, alpha, X=X), k, np.zeros_like
    if family == "exp":
        return make_exp_problem(k, alpha, X=X), k + 1, np.exp
    g2 = gamma(1.0 + 2.0 * alpha)

    def cancelled(x):
        # the terms of the fractional Taylor polynomial, those past x^(2 alpha)
        # times g2 - 1
        coef = [1.0] * 3 + [abs(g2 - 1.0)] * (k - 2)
        return np.max([coef[j] * x ** (j * alpha) / gamma(1.0 + j * alpha)
                       for j in range(k + 1)], axis=0)

    return make_ml_problem(k, alpha, X=X), (k + 1) * alpha, cancelled


def residual_converges(problem, nu, cancelled):
    """Whether the (forcing, exact) pair satisfies y + I^alpha y = F, judged by
    residual_check at n = 1024, 2048 and 4096 (8 sample points): either each
    halving of the step cuts the residual by at least 2^q / 2, q =
    min(1 + nu, 4 + alpha), the rate of the check's own quadrature error on a
    y ~ x^nu, or the residual at n = 4096 sits below a rounding floor of
    1e-11 times the scale of the exact solution's rounding error.  That scale
    is max(1, |y|, |F|, the largest term y's formula cancels) at the sample
    points, times 1 + X^alpha/Gamma(1 + alpha), the bound on how much the
    quadrature of I^alpha magnifies an error in y.  A wrong pair leaves a
    residual that does not fall."""
    res = [residual_check(problem, samples=8, n=n) for n in (1024, 2048, 4096)]
    alpha, X = problem.alpha, problem.X
    x = X * np.arange(1, 9) / 8
    values = (problem.exact(x), problem.forcing(x), cancelled(x))
    scale = max(1.0, *(float(np.abs(v).max()) for v in values))
    floor = 1e-11 * scale * (1.0 + X**alpha / gamma(1.0 + alpha))
    rate = 0.5 * 2.0 ** min(1.0 + nu, 4.0 + alpha)
    return res[-1] <= floor or all(a >= rate * b for a, b in zip(res, res[1:]))


# alpha over (0,1) and (1,2), with draws within 0.01 of 0, 1 and 2
ALPHAS = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
    st.floats(0.0, 0.01, exclude_min=True),
    st.floats(0.99, 1.01),
    st.floats(1.99, 2.0, exclude_max=True),
).filter(alpha_in_range)
# every (family, k, alpha, X) that `sweep` can build; the factories refuse
# the rest
CASES = st.one_of(
    st.tuples(st.just("power"), st.floats(0.0, 400.0, exclude_min=True), ALPHAS,
              st.floats(0.0, 1e300, exclude_min=True)),
    st.tuples(st.just("exp"), st.integers(0, 12), ALPHAS, st.floats(0.0, 708.78, exclude_min=True)),
    st.tuples(st.just("ml"), st.integers(2, 200), ALPHAS, st.floats(0.0, 300.0, exclude_min=True)),
)


class TestResidualConverges:
    """Every factory's (forcing, exact) pair satisfies its equation
    (residual_converges) over the domain `fracrelax sweep` accepts."""

    @settings(max_examples=120, deadline=None)
    @given(case=CASES)
    # on [0, 100] the ml problem's |F| reaches 1.6e10 at alpha = 1.94, and
    # its residual, 6e-4, sits at the rounding error of that scale
    @example(case=("ml", 2, 1.94, 100.0))
    # y cancels Taylor terms up to 4.9e3 down to |y| = 0.254: its rounding
    # error leaves a flat residual
    @example(case=("ml", 10, 1.986, 7.37))
    def test_every_factory(self, case):
        try:
            problem, nu, cancelled = make_case(*case)
            ok = residual_converges(problem, nu, cancelled)
        except ValueError:
            # sweep exits 2 on the same input
            reject()
        assert ok
