"""Special-function unit tests against math/mpmath oracles and classical
identities."""

import math

import mpmath
import pytest

from fracrelax.specfun import (
    EULER_GAMMA,
    ConvergenceError,
    PoleError,
    bernoulli_numbers,
    digamma,
    gamma,
    mittag_leffler,
    zeta,
)

mpmath.mp.dps = 30


def _ml_mpmath(alpha, beta, z):
    """E_{alpha,beta}(z) by its power series in 80-digit arithmetic."""
    with mpmath.workdps(80):
        a, b, z = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(z)
        return float(mpmath.nsum(lambda k: z**k / mpmath.gamma(a * k + b), [0, mpmath.inf]))


class TestGamma:
    @pytest.mark.parametrize(
        "x", [0.1, 0.5, 1.0, 1.5, 2.0, 4.25, 10.0, 25.5, 50.0, 100.0, 143.5, 150.0, 171.5]
    )
    def test_matches_math_gamma(self, x):
        assert gamma(x) == pytest.approx(float(mpmath.gamma(x)), rel=2e-13)

    @pytest.mark.parametrize("x", [-0.5, -1.5, -2.25, -7.8])
    def test_reflection_negative_axis(self, x):
        assert gamma(x) == pytest.approx(float(mpmath.gamma(x)), rel=1e-13)

    def test_integer_values(self):
        for n in range(1, 10):
            assert gamma(float(n)) == pytest.approx(math.factorial(n - 1), rel=1e-14)

    def test_half_integer(self):
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)

    @pytest.mark.parametrize("x", [0.0, -1.0, -5.0])
    def test_poles_raise(self, x):
        with pytest.raises(PoleError):
            gamma(x)


class TestDigamma:
    def test_frozen_half(self):
        # Psi(1/2) = -gamma - 2 ln 2
        assert digamma(0.5) == pytest.approx(-1.963510026021423479441, abs=1e-13)

    def test_one(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-14)

    @pytest.mark.parametrize("x", [0.1, 0.7, 1.3, 3.0, 9.9, 10.1, 42.0, -0.3, -2.7])
    def test_matches_mpmath(self, x):
        assert digamma(x) == pytest.approx(float(mpmath.digamma(x)), rel=1e-12, abs=1e-13)

    def test_recurrence(self):
        # Psi(x+1) = Psi(x) + 1/x
        for x in (0.25, 1.6, 7.3):
            assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, rel=1e-13)

    def test_poles_raise(self):
        with pytest.raises(PoleError):
            digamma(-3.0)


class TestZeta:
    FROZEN = {
        -2.5: 0.0085169287778503305424,
        -1.5: -0.02548520188983303595,
        -0.5: -0.20788622497735456602,
        0.25: -0.81327840526189165652,
        0.75: -3.4412853869452228944,
    }

    @pytest.mark.parametrize("s,val", sorted(FROZEN.items()))
    def test_frozen_values(self, s, val):
        assert zeta(s) == pytest.approx(val, rel=1e-13)

    def test_classical_values(self):
        assert zeta(0.0) == pytest.approx(-0.5, abs=1e-14)
        assert zeta(2.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-14)
        assert zeta(4.0) == pytest.approx(math.pi**4 / 90.0, rel=1e-14)
        assert zeta(-1.0) == pytest.approx(-1.0 / 12.0, rel=1e-13)

    def test_trivial_zeros(self):
        for s in (-2.0, -4.0, -6.0):
            assert abs(zeta(s)) < 1e-15

    @pytest.mark.parametrize("s", [-3.7, -0.25, 0.1, 0.9, 1.1, 3.3, 12.0])
    def test_matches_mpmath(self, s):
        assert zeta(s) == pytest.approx(float(mpmath.zeta(s)), rel=1e-12)

    def test_pole(self):
        with pytest.raises(PoleError):
            zeta(1.0)


class TestBernoulli:
    def test_known_fractions(self):
        from fractions import Fraction

        b = bernoulli_numbers(12, "first")
        assert b[0] == 1
        assert b[1] == Fraction(-1, 2)
        assert b[2] == Fraction(1, 6)
        assert b[4] == Fraction(-1, 30)
        assert b[6] == Fraction(1, 42)
        assert b[8] == Fraction(-1, 30)
        assert b[10] == Fraction(5, 66)
        assert b[12] == Fraction(-691, 2730)

    def test_odd_vanish(self):
        b = bernoulli_numbers(15)
        for n in range(3, 16, 2):
            assert b[n] == 0

    def test_second_kind(self):
        from fractions import Fraction

        b = bernoulli_numbers(4, "second")
        assert b[1] == Fraction(1, 2)
        assert b[2] == Fraction(1, 6)

    def test_validation(self):
        with pytest.raises(ValueError):
            bernoulli_numbers(-1)
        with pytest.raises(OverflowError):
            bernoulli_numbers(100)
        with pytest.raises(ValueError):
            bernoulli_numbers(3, "third")


class TestMittagLeffler:
    @pytest.mark.parametrize("z", [-3.0, -1.0, -0.1, 0.0, 0.5, 2.0, 5.0])
    def test_exponential_case(self, z):
        assert mittag_leffler(1.0, 1.0, z) == pytest.approx(math.exp(z), rel=1e-13)

    @pytest.mark.parametrize("z", [0.25, 1.0, 4.0])
    def test_cosh_case(self, z):
        assert mittag_leffler(2.0, 1.0, z) == pytest.approx(math.cosh(math.sqrt(z)), rel=1e-13)

    def test_e12_case(self):
        for z in (0.5, -0.5, 2.0):
            assert mittag_leffler(1.0, 2.0, z) == pytest.approx(math.expm1(z) / z, rel=1e-13)

    def test_half_erfc_identity(self):
        # E_{1/2,1}(z) = exp(z^2) erfc(-z)
        for z in (-2.0, -0.5, 0.3, 1.5):
            expect = math.exp(z * z) * math.erfc(-z)
            assert mittag_leffler(0.5, 1.0, z) == pytest.approx(expect, rel=1e-11)

    def test_large_argument_log_branch(self):
        # series needs the lgamma branch well before overflow of Gamma
        val = mittag_leffler(0.4, 1.0, 8.0)
        assert math.isfinite(val) and val > 0

    @pytest.mark.parametrize(
        "alpha,z", [(0.5, -3.0), (0.65, -5.0), (1.25, -2.4), (1.94, -55.5)]
    )
    def test_large_negative_argument_matches_mpmath(self, alpha, z):
        expect = _ml_mpmath(alpha, 1.0, z)
        assert abs(mittag_leffler(alpha, 1.0, z) - expect) <= 1e-10 * max(1.0, abs(expect))

    @pytest.mark.parametrize("z", [-5.0, -10.0])
    def test_cancellation_raises(self, z):
        # the alternating series cannot resolve E_{1/2,1}(z) to 1e-10 here
        with pytest.raises(ConvergenceError):
            mittag_leffler(0.5, 1.0, z)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            mittag_leffler(0.0, 1.0, 1.0)
