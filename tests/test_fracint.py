"""Fractional-integral quadrature tests: trapezoid sums, end corrections,
scheme coefficients and the power-sum expansion."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracrelax.fracint import (
    EndpointDerivatives,
    SchemeCoefficients,
    UniformGrid,
    _correction_weights,
    _zeta_coefficients,
    alpha_in_range,
    corrected_sum_I,
    corrected_trapezoid_K,
    frac_integral_exact_power,
    power_weights,
    riemann_left_I,
    scheme_coefficients,
    sum_of_powers,
    trapezoid_K,
)
from fracrelax.specfun import gamma, zeta

# Quadrature targets, frozen from 30-digit evaluations of the closed forms.
K_EXP_HALF_AT_2 = 12.5008548582806555886507
K_LOG3_QUARTER_AT_1 = 5.329411007852952559673745


class TestUniformGrid:
    def test_basic(self):
        g = UniformGrid.sample(np.exp, 2.0, 4)
        assert g.h == 0.5
        assert np.allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert g.values[2] == pytest.approx(math.e)

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformGrid(X=-1.0, n=4, values=np.zeros(5))
        with pytest.raises(ValueError):
            UniformGrid(X=1.0, n=0, values=np.zeros(1))
        with pytest.raises(ValueError):
            UniformGrid(X=1.0, n=4, values=np.zeros(3))


class TestEndpointDerivatives:
    def test_require(self):
        d = EndpointDerivatives(at_zero=(1.0, 0.0), at_x=(1.0, 1.0, 1.0, 1.0))
        d.require(2, 4)
        with pytest.raises(ValueError):
            d.require(3, 4)
        with pytest.raises(ValueError):
            d.require(2, 5)


class TestPowerWeights:
    def test_values(self):
        w = power_weights(0.5, 4)
        assert w[0] == 0.0
        assert np.allclose(w[1:], [1.0, 2.0**-0.5, 3.0**-0.5, 4.0**-0.5])

    def test_cache_growth(self):
        a = power_weights(0.321, 10)
        b = power_weights(0.321, 100)
        assert np.array_equal(a, b[:11])

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.75, 1.25, 1.9])
    def test_a_prefix_of_longer_weights_is_the_shorter_weights(self, alpha):
        # a sweep's tabulation slices its runs' weights from those of its finest run
        longest = power_weights(alpha, 5120)
        for n in [*range(1, 40), 255, 256, 257, 640, 1023, 2560]:
            assert np.array_equal(longest[: n + 1], power_weights(alpha, n)), n


class TestExactPowerRule:
    def test_closed_form(self):
        # I^0.5 of x^1 at x=1: Gamma(2)/Gamma(2.5)
        assert frac_integral_exact_power(1.0, 0.5, 1.0) == pytest.approx(
            1.0 / gamma(2.5), rel=1e-14
        )

    def test_zero_point(self):
        assert frac_integral_exact_power(2.0, 0.5, 0.0) == 0.0

    def test_large_p(self):
        # Gamma(201) and Gamma(201.5) both overflow a double; their ratio does not.
        with mpmath.workdps(30):
            expect = float(mpmath.gamma(201) / mpmath.gamma(mpmath.mpf(201.5)) * 1.5 ** 200.5)
        assert frac_integral_exact_power(200.0, 0.5, 1.5) == pytest.approx(expect, rel=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            frac_integral_exact_power(-1.0, 0.5, 1.0)


class TestTrapezoidK:
    def test_small_closed_form(self):
        # y = 1, alpha = 0.5, x = 1, n = 4:
        # h^a (1 + 1/sqrt2 + 1/sqrt3) + h/2
        g = UniformGrid(X=1.0, n=4, values=np.ones(5))
        expect = 0.5 * (1.0 + 2.0**-0.5 + 3.0**-0.5) + 1.0 / 8.0
        assert trapezoid_K(g, 0.5) == pytest.approx(expect, rel=1e-15)

    def test_leading_error_term(self):
        # error ~ zeta(1-alpha) y(x) h^alpha for y with y(0)=0 cancelled parts
        alpha, X = 0.5, 1.0
        f = lambda x: np.exp(x) - 1.0 - x  # y(0)=y'(0)=0
        exact = gamma(alpha) * sum(
            1.0 / gamma(k + 1.0 + alpha) for k in range(2, 60)
        )  # K^a y = Gamma(a) I^a y, power rule termwise at x=1
        errs = []
        for n in (64, 128):
            g = UniformGrid.sample(f, X, n)
            model = zeta(1.0 - alpha) * (math.e - 2.0) * g.h**alpha
            errs.append((trapezoid_K(g, alpha) - exact) / model)
        assert errs[0] == pytest.approx(1.0, abs=0.05)
        assert errs[1] == pytest.approx(1.0, abs=0.03)

    def test_needs_n2(self):
        with pytest.raises(ValueError):
            trapezoid_K(UniformGrid(X=1.0, n=1, values=np.zeros(2)), 0.5)


def _exp_derivs(x):
    ex = math.exp(x)
    return EndpointDerivatives(at_zero=(1.0, 1.0, 1.0, 1.0), at_x=(ex,) * 6)


class TestCorrectedTrapezoidK:
    def test_exp_order4_frozen_target(self):
        g = UniformGrid.sample(np.exp, 2.0, 80)
        approx = corrected_trapezoid_K(g, 0.5, _exp_derivs(2.0), order=4)
        assert abs(approx - K_EXP_HALF_AT_2) < 1.1e-9

    def test_log_order4_frozen_target(self):
        f = lambda x: np.log(x + 3.0)

        def dn(t, n):
            return math.log(t + 3.0) if n == 0 else (-1.0) ** (n - 1) * math.factorial(n - 1) / (t + 3.0) ** n

        d = EndpointDerivatives(
            at_zero=tuple(dn(0.0, k) for k in range(4)),
            at_x=tuple(dn(1.0, k) for k in range(6)),
        )
        g = UniformGrid.sample(f, 1.0, 40)
        approx = corrected_trapezoid_K(g, 0.25, d, order=4)
        assert abs(approx - K_LOG3_QUARTER_AT_1) < 3e-9

    def test_exp_convergence_order4(self):
        errs = []
        for n in (40, 80, 160):
            g = UniformGrid.sample(np.exp, 2.0, n)
            errs.append(abs(corrected_trapezoid_K(g, 0.5, _exp_derivs(2.0), 4) - K_EXP_HALF_AT_2))
        orders = [math.log2(errs[i - 1] / errs[i]) for i in (1, 2)]
        for o in orders:
            assert o == pytest.approx(4.0, abs=0.15)

    def test_exp_order6(self):
        g = UniformGrid.sample(np.exp, 2.0, 80)
        approx = corrected_trapezoid_K(g, 0.5, _exp_derivs(2.0), order=6)
        assert abs(approx - K_EXP_HALF_AT_2) < 5e-13

    def test_cubic_vanishing_start(self):
        # y = t^3 has y(0)=y'(0)=0; the order-4 corrected rule still carries
        # h^4 terms from y''(0), y'''(0), so exactness is only asymptotic.
        alpha, X = 0.5, 1.0
        exact = gamma(alpha) * frac_integral_exact_power(3.0, alpha, X)
        d = EndpointDerivatives(at_zero=(0.0, 0.0), at_x=(1.0, 3.0, 6.0, 6.0))
        errs = []
        for n in (64, 4096):
            g = UniformGrid.sample(lambda x: x**3, X, n)
            errs.append(abs(corrected_trapezoid_K(g, alpha, d, 4) - exact))
        assert errs[0] < 1e-7
        assert errs[1] < 1e-12

    def test_order_validation(self):
        g = UniformGrid.sample(np.exp, 1.0, 8)
        with pytest.raises(ValueError):
            corrected_trapezoid_K(g, 0.5, _exp_derivs(1.0), order=5)
        short = EndpointDerivatives(at_zero=(1.0,), at_x=(1.0, 1.0))
        with pytest.raises(ValueError):
            corrected_trapezoid_K(g, 0.5, short, order=4)


class TestSchemeCoefficients:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 1.25, 1.75])
    @pytest.mark.parametrize("tag", ["A1", "A2", "A3", "A4"])
    def test_telescoping_sum(self, alpha, tag):
        # each correction set sums to -zeta(1-alpha)
        c = scheme_coefficients(alpha, tag)
        assert sum(c.c) == pytest.approx(-zeta(1.0 - alpha), rel=1e-12)

    def test_a2_closed_form(self):
        c = scheme_coefficients(0.5, "A2")
        assert c.c[0] == pytest.approx(zeta(-0.5) - zeta(0.5), rel=1e-13)
        assert c.c[1] == pytest.approx(-zeta(-0.5), rel=1e-13)

    def test_metadata(self):
        c = scheme_coefficients(0.5, "A3")
        assert c.nominal_order == pytest.approx(3.5)
        assert c.startup_zeros == 1
        assert scheme_coefficients(0.5, "A").c == ()

    def test_validation(self):
        with pytest.raises(ValueError):
            scheme_coefficients(0.5, "B")
        for bad in (0.0, 1.0, 2.0, -0.5):
            with pytest.raises(ValueError):
                scheme_coefficients(bad, "A1")

    @staticmethod
    def hand_written_weights(alpha, tag):
        """The A1..A4 weights as they were once written out by hand.  They are
        a function of zeta(1-alpha)..zeta(-2-alpha); zeta(1-alpha) is taken
        from the same source as the generated weights, whose accuracy at tiny
        alpha test_zeta_one_minus_alpha_matches_mpmath checks."""
        z1 = _zeta_coefficients(alpha, 1)[0]
        z0, zm1, zm2 = zeta(-alpha), zeta(-1.0 - alpha), zeta(-2.0 - alpha)
        return {
            "A1": (-z1,),
            "A2": (z0 - z1, -z0),
            "A3": (1.5 * z0 - 0.5 * zm1 - z1, -2.0 * z0 + zm1, 0.5 * z0 - 0.5 * zm1),
            "A4": (
                11.0 / 6.0 * z0 - zm1 + zm2 / 6.0 - z1,
                -3.0 * z0 + 2.5 * zm1 - 0.5 * zm2,
                1.5 * z0 - 2.0 * zm1 + 0.5 * zm2,
                -z0 / 3.0 + 0.5 * zm1 - zm2 / 6.0,
            ),
        }[tag]

    @pytest.mark.parametrize("tag", ["A1", "A2", "A3", "A4"])
    def test_generated_weights_match_hand_written(self, tag):
        grid = np.linspace(0.0, 1.0, 122)[1:-1]
        for alpha in np.concatenate([grid, 1.0 + grid]):
            want = np.array(self.hand_written_weights(float(alpha), tag))
            got = np.array(scheme_coefficients(float(alpha), tag).c)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), alpha

    ALPHAS = st.one_of(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
    ).filter(alpha_in_range)

    @given(alpha=ALPHAS, k=st.integers(1, 6))
    def test_weights_sum_to_minus_zeta_one_minus_alpha(self, alpha, k):
        # every backward difference sums to 0, so only -zeta_0 is left
        zeta_0 = _zeta_coefficients(alpha, 1)[0]
        assert sum(_correction_weights(alpha, k)) == pytest.approx(-zeta_0, rel=1e-13)

    @pytest.mark.parametrize("alpha", [1e-15, 1e-13, 1e-10, 1e-6])
    def test_zeta_one_minus_alpha_matches_mpmath(self, alpha):
        # summed from alpha itself, not from the rounded 1 - alpha
        with mpmath.workdps(40):
            want = mpmath.zeta(1 - mpmath.mpf(alpha))
            assert abs((_zeta_coefficients(alpha, 1)[0] - want) / want) <= 5e-16

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_order_k_plus_alpha(self, k, alpha):
        # k = 5, 6 have no scheme tag, but the generator is not capped at 4
        c = _correction_weights(alpha, k)
        coeffs = SchemeCoefficients(alpha=alpha, order_tag=f"A{k}", c=c)
        exact = frac_integral_exact_power(12.0, alpha, 1.0)
        e128, e256 = (
            abs(corrected_sum_I(UniformGrid.sample(lambda x: x**12, 1.0, n), coeffs) - exact)
            for n in (128, 256)
        )
        assert math.log2(e128 / e256) == pytest.approx(k + alpha, abs=0.1)


class TestCorrectedSumI:
    @pytest.mark.parametrize("tag,tol", [("A1", 5e-4), ("A2", 1e-5), ("A3", 1e-7), ("A4", 1e-9)])
    def test_power_rule_accuracy(self, tag, tol):
        alpha, X = 0.5, 1.0
        exact = frac_integral_exact_power(4.0, alpha, X)
        g = UniformGrid.sample(lambda x: x**4, X, 128)
        c = scheme_coefficients(alpha, tag)
        assert abs(corrected_sum_I(g, c) - exact) < tol

    def test_riemann_left_order_alpha(self):
        alpha, X = 0.5, 1.0
        exact = frac_integral_exact_power(4.0, alpha, X)
        errs = []
        for n in (128, 256, 512):
            g = UniformGrid.sample(lambda x: x**4, X, n)
            errs.append(abs(riemann_left_I(g, alpha) - exact))
        orders = [math.log2(errs[i - 1] / errs[i]) for i in (1, 2)]
        for o in orders:
            assert o == pytest.approx(alpha, abs=0.1)

    def test_grid_too_short(self):
        c = scheme_coefficients(0.5, "A4")
        g = UniformGrid(X=1.0, n=3, values=np.zeros(4))
        with pytest.raises(ValueError):
            corrected_sum_I(g, c)


class TestSemigroup:
    def test_composition_on_quartic(self):
        # I^beta (I^alpha y) = I^(alpha+beta) y for y = t^4
        alpha, beta, X, n = 0.5, 0.75, 1.0, 512
        x = np.linspace(0.0, X, n + 1)

        def frac_on_grid(values, a):
            coeffs = {t: scheme_coefficients(a, t) for t in ("A", "A1", "A2", "A3", "A4")}
            out = np.zeros(n + 1)
            for m in range(1, n + 1):
                for tag in ("A4", "A3", "A2", "A1", "A"):
                    c = coeffs[tag]
                    if m > len(c.c):
                        g = UniformGrid(X=X * m / n, n=m, values=values[: m + 1])
                        out[m] = corrected_sum_I(g, c)
                        break
            return out

        outer = frac_on_grid(frac_on_grid(x**4, alpha), beta)
        exact = np.array([frac_integral_exact_power(4.0, alpha + beta, v) for v in x])
        assert float(np.max(np.abs(outer - exact))) <= 1e-4


class TestSumOfPowers:
    @pytest.mark.parametrize("alpha", [0.5, 1.5, -0.3])
    def test_against_direct_sum(self, alpha):
        n = 200
        direct = float(np.sum(np.arange(1.0, n) ** alpha))
        assert sum_of_powers(alpha, n, 8) == pytest.approx(direct, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            sum_of_powers(0.5, 1, 4)
        with pytest.raises(ValueError):
            sum_of_powers(0.5, 10, 11)
