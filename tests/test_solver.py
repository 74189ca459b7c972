"""Scheme recurrence and stability-bound tests."""

import math

import numpy as np
import pytest

from fracrelax.fracint import SchemeCoefficients, scheme_coefficients
from fracrelax.problems import make_power_problem
from fracrelax.solver import (
    DegenerateDenominatorError,
    claim5_partial_sum_check,
    claim8_window_check,
    local_truncation_coefficients,
    max_error,
    solve,
    solve_with_coefficients,
    theorem6_bound,
    theorem11_constants,
)
from fracrelax.specfun import gamma


class TestSolve:
    def test_order_alpha_scheme_converges(self):
        prob = make_power_problem(4.0, 0.5)
        errs = []
        for n in (128, 256, 512):
            u = solve(prob, "A", n)
            errs.append(max_error(u, prob.exact))
        orders = [math.log2(errs[i - 1] / errs[i]) for i in (1, 2)]
        for o in orders:
            assert o == pytest.approx(0.5, abs=0.1)

    def test_a1_scheme_order(self):
        prob = make_power_problem(4.0, 1.5)
        errs = []
        for n in (128, 256, 512):
            errs.append(max_error(solve(prob, "A1", n), prob.exact))
        orders = [math.log2(errs[i - 1] / errs[i]) for i in (1, 2)]
        for o in orders:
            assert o == pytest.approx(2.5, abs=0.1)

    def test_a1_order_at_large_n(self):
        prob = make_power_problem(4.0, 0.5)
        e16, e17 = (max_error(solve(prob, "A1", n), prob.exact) for n in (2**16, 2**17))
        assert math.log2(e16 / e17) == pytest.approx(1.5, abs=0.05)

    def test_scheme_by_object_or_tag(self):
        prob = make_power_problem(4.0, 0.5)
        u1 = solve(prob, "A2", 64)
        u2 = solve_with_coefficients(prob.forcing, scheme_coefficients(0.5, "A2"), 64, X=prob.X)
        assert np.array_equal(u1.values, u2.values)

    def test_startup_values_prescribed_zero(self):
        prob = make_power_problem(4.0, 0.5)
        u = solve(prob, "A4", 64)
        assert u.values[0] == 0.0 and u.values[1] == 0.0 and u.values[2] == 0.0
        assert u.values[3] != 0.0

    def test_n_too_small(self):
        prob = make_power_problem(4.0, 0.5)
        with pytest.raises(ValueError):
            solve(prob, "A4", 3)

    def test_degenerate_denominator(self):
        # force Gamma(alpha) + c_0 h^alpha = 0
        alpha, n = 0.5, 16
        h = 1.0 / n
        c0 = -gamma(alpha) / h**alpha
        coeffs = SchemeCoefficients(alpha=alpha, order_tag="A1", c=(c0,))
        with pytest.raises(DegenerateDenominatorError):
            solve_with_coefficients(lambda x: np.asarray(x), coeffs, n)


class TestMaxError:
    def test_skip_excludes_startup_nodes(self):
        prob = make_power_problem(4.0, 0.5)
        u = solve(prob, "A4", 64)
        full = max_error(u, prob.exact)
        skipped = max_error(u, prob.exact, skip=2)
        # startup nodes carry the exact value as error, so skipping shrinks it
        assert skipped < full
        assert full == pytest.approx((2.0 / 64.0) ** 4, rel=1e-12)


class TestStabilityBounds:
    def test_theorem6_frozen(self):
        assert theorem6_bound(1.5, 1.0) == pytest.approx(4.03637220302, rel=1e-10)

    def test_theorem11_frozen(self):
        c = theorem11_constants(0.5, 1.0)
        assert c.C0 == pytest.approx(4.94766755064, rel=1e-10)
        g1 = 2.0**0.5 * gamma(1.5)
        assert c.C1 == pytest.approx((2.0**0.5 * c.C0 + gamma(0.5)) / gamma(0.5), rel=1e-12)
        assert c.C2 == pytest.approx((c.C0 + g1 * c.C1) / (g1 - 1.0), rel=1e-12)
        assert c.C2 > max(c.C0, c.C1)

    def test_scaling_in_A(self):
        assert theorem6_bound(1.5, 2.0) == pytest.approx(2.0 * theorem6_bound(1.5, 1.0))
        assert theorem11_constants(0.5, 2.0).C0 == pytest.approx(
            2.0 * theorem11_constants(0.5, 1.0).C0
        )

    def test_domains(self):
        with pytest.raises(ValueError):
            theorem6_bound(0.5, 1.0)
        with pytest.raises(ValueError):
            theorem6_bound(1.5, -1.0)
        with pytest.raises(ValueError):
            theorem11_constants(1.5, 1.0)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_bound_shape_relaxation(self, alpha):
        # |e_m| <= C2 A h^alpha with A calibrated from the local truncation
        prob = make_power_problem(1.05, alpha)
        n = 320
        a = local_truncation_coefficients(prob, n)
        A = float(np.max(np.abs(a[1:])))
        err = max_error(solve(prob, "A", n), prob.exact)
        bound = theorem11_constants(alpha, A).C2 * (1.0 / n) ** alpha
        assert err < bound

    @pytest.mark.parametrize("alpha", [1.25, 1.5, 1.75])
    def test_bound_shape_oscillation(self, alpha):
        prob = make_power_problem(1.05, alpha)
        n = 320
        a = local_truncation_coefficients(prob, n)
        A = float(np.max(np.abs(a[1:])))
        err = max_error(solve(prob, "A", n), prob.exact)
        bound = theorem6_bound(alpha, A) * (1.0 / n) ** alpha
        assert err < bound


class TestClaimChecks:
    @pytest.mark.parametrize("alpha", [0.1, 0.9, 1.1, 1.9])
    @pytest.mark.parametrize("m", [2, 17, 1000])
    def test_claim5(self, alpha, m):
        assert claim5_partial_sum_check(alpha, m)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_claim8(self, alpha):
        assert claim8_window_check(alpha, 2, 100)
        assert claim8_window_check(alpha, 50, 5000)

    def test_validation(self):
        with pytest.raises(ValueError):
            claim5_partial_sum_check(0.5, 1)
        with pytest.raises(ValueError):
            claim8_window_check(1.5, 2, 10)
        with pytest.raises(ValueError):
            claim8_window_check(0.5, 5, 4)


class TestLocalTruncation:
    def test_bounded_and_stable_in_n(self):
        prob = make_power_problem(1.05, 0.5)
        a320 = local_truncation_coefficients(prob, 320)
        a640 = local_truncation_coefficients(prob, 640)
        assert float(np.max(np.abs(a320))) < 2.0
        assert float(np.max(np.abs(a320))) == pytest.approx(
            float(np.max(np.abs(a640))), rel=0.05
        )
