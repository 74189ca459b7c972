"""Special-function unit tests against math/mpmath oracles and classical
identities."""

import math
import random
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracrelax import specfun
from fracrelax.specfun import (
    ConvergenceError,
    PoleError,
    bernoulli_numbers,
    gamma,
    gamma_ratio,
    mittag_leffler,
    power_rule_coefficient,
    zeta,
)

mpmath.mp.dps = 30


def _ml_mpmath(alpha, beta, z):
    """E_{alpha,beta}(z) by its power series in 80-digit arithmetic."""
    with mpmath.workdps(80):
        a, b, z = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(z)
        return float(mpmath.nsum(lambda k: z**k / mpmath.gamma(a * k + b), [0, mpmath.inf]))


def scalar_ml_reference(alpha: float, beta: float, z: float) -> float:
    """The one-point Mittag-Leffler series that the array evaluation replaced,
    kept as its reference: the same terms, Kahan sum and refusals, one z at a
    time in Python floats (an overflowing term raises OverflowError here)."""
    if alpha <= 0.0:
        raise ValueError("mittag_leffler requires alpha > 0")
    total = 0.0
    comp = 0.0
    zn = 1.0
    largest = 0.0
    logabsz = math.log(abs(z)) if z != 0.0 else -math.inf
    for n in range(10_000):
        arg = alpha * n + beta
        if arg > 170.0 or n * logabsz > 690.0:
            sign = -1.0 if (z < 0.0 and n % 2) else 1.0
            log_term = n * logabsz - math.lgamma(arg)
            term = 0.0 if log_term < -600.0 else sign * math.exp(log_term)
        else:
            term = zn / gamma(arg)
            zn *= z
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        largest = max(largest, abs(term))
        # a term whose Gamma argument is below 1 ends no series
        if arg >= 1.0 and abs(term) < 1e-16 * (1.0 + abs(total)):
            if largest * 2.0**-52 > 1e-10 * max(1.0, abs(total)):
                raise ConvergenceError("cancellation")
            return total
    raise ConvergenceError("no convergence")


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


class TestGammaRatio:
    @pytest.mark.parametrize("a,b", [(2.0, 2.5), (0.3, 1.7), (5.0, 5.35), (201.0, 201.5)])
    def test_matches_mpmath(self, a, b):
        with mpmath.workdps(30):
            expect = float(mpmath.gamma(mpmath.mpf(a)) / mpmath.gamma(mpmath.mpf(b)))
        assert gamma_ratio(a, b) == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, -0.5)])
    def test_domain(self, a, b):
        with pytest.raises(ValueError):
            gamma_ratio(a, b)

    # 1 to 1e300 on a log scale, with neighbours closer than lgamma's rounding
    # at 1e6 and 1e14, the Stirling cutoff 10, and arguments below 1
    ARGS = (1e-300, 1e-5, 0.3, 1.0, 1.5, 3.7, 9.999, 10.0, 10.5, 37.2, 171.3, 1e3, 1e6 + 1.0,
            1e6 + 1.5, 2.5e9, 1e14 + 1.0, 1e14 + 1.5, 6e40, 1e100, 3e200, 1e300)

    @staticmethod
    def _check(got, log_ratio, tol_extra=0.0):
        """got against exp(log_ratio), an mpmath value: OverflowError past the
        largest double, at most the smallest normal double below it, and
        elsewhere a relative error under 4e-16 (|log ratio| + 30 + tol_extra)."""
        if log_ratio > math.log(sys.float_info.max):
            assert got is OverflowError
        elif log_ratio < math.log(sys.float_info.min):
            assert 0.0 <= got <= sys.float_info.min
        else:
            want = mpmath.exp(log_ratio)
            bound = 4e-16 * (abs(float(log_ratio)) + 30.0 + tol_extra)
            assert float(abs(got - want) / want) <= bound

    def test_matches_mpmath_from_1e_300_to_1e300(self):
        # lgamma(1e300) is about 7e302: the difference needs 340 digits
        with mpmath.workdps(340):
            lg = {x: mpmath.loggamma(mpmath.mpf(x)) for x in self.ARGS}
            for a in self.ARGS:
                for b in self.ARGS:
                    try:
                        got = gamma_ratio(a, b)
                    except OverflowError:
                        got = OverflowError
                    self._check(got, lg[a] - lg[b], abs(math.log(min(a, b, 1.0))))

    def test_infinite_arguments_give_the_limit(self):
        for x in self.ARGS:
            assert gamma_ratio(x, math.inf) == 0.0
            assert gamma_ratio(math.inf, x) == math.inf
        assert math.isnan(gamma_ratio(math.inf, math.inf))

    @pytest.mark.parametrize("p", [1e6, 1e14])
    def test_neighbours_keep_their_digits(self, p):
        # exp(lgamma(a) - lgamma(b)) was off by 1.9e-9 at p = 1e6 and 0.39 at 1e14
        with mpmath.workdps(60):
            want = mpmath.gamma(mpmath.mpf(p) + 1) / mpmath.gamma(mpmath.mpf(p) + 1.5)
        assert gamma_ratio(p + 1.0, p + 1.5) == pytest.approx(float(want), rel=1e-14)

    @pytest.mark.parametrize("p", [0.5, 1.05, 4.0, 7.25])
    @pytest.mark.parametrize("alpha", [0.25, 0.6, 1.5])
    def test_below_10_it_is_the_lgamma_difference(self, p, alpha):
        # the tables' power problems keep the bits of their forcing
        want = math.exp(math.lgamma(p + 1.0) - math.lgamma(p + alpha + 1.0))
        assert power_rule_coefficient(p, alpha) == want
        assert gamma_ratio(p + 1.0, p + alpha + 1.0) == want

    @pytest.mark.parametrize("p", [9.5, 200.0, 1e6, 1e14, 1e20, 1e100, 1e300, 1e308])
    @pytest.mark.parametrize("alpha", [0.01, 0.5, 1.4, 1.99])
    def test_power_rule_coefficient_takes_the_shift_exactly(self, p, alpha):
        # past 2^53, p + 1 and p + alpha + 1 round: at p = 1e300 they are equal
        with mpmath.workdps(340):
            x = mpmath.mpf(p) + 1
            log_ratio = mpmath.loggamma(x) - mpmath.loggamma(x + mpmath.mpf(alpha))
            self._check(power_rule_coefficient(p, alpha), log_ratio)


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

    # The end corrections need zeta(c - alpha), c = 1, 0, ..., -4, for alpha in
    # (0,1) u (1,2): next to the pole (c = 1, alpha -> 0), next to s = 0 and
    # next to the trivial zeros -2, -4, -6, where only an absolute error bound
    # is meaningful.
    CORRECTION_ALPHAS = [
        1e-12, 1e-9, 1e-6, 1e-3, 0.05, 0.3, 0.5, 0.65, 0.9985, 1 - 1e-9, 1 - 1e-12,
        1 + 1e-12, 1 + 1e-9, 1.0015, 1.25, 1.5, 1.75, 1.94, 1.999, 2 - 1e-9, 2 - 1e-12,
    ]

    @pytest.mark.parametrize("alpha", CORRECTION_ALPHAS)
    def test_correction_arguments_match_mpmath(self, alpha):
        for c in (1.0, 0.0, -1.0, -2.0, -3.0, -4.0):
            s = c - alpha
            want = mpmath.zeta(mpmath.mpf(s))
            err = abs(mpmath.mpf(zeta(s)) - want)
            if min(abs(s - z) for z in (-2.0, -4.0, -6.0)) <= 1e-3:
                assert err <= 1e-16, s
            else:
                assert err <= 1e-13 * abs(want), s


class TestBernoulli:
    def test_known_fractions(self):
        from fractions import Fraction

        b = bernoulli_numbers(12)
        assert b[0] == 1
        assert b[1] == Fraction(-1, 2)
        assert b[2] == Fraction(1, 6)
        assert b[4] == Fraction(-1, 30)
        assert b[6] == Fraction(1, 42)
        assert b[8] == Fraction(-1, 30)
        assert b[10] == Fraction(5, 66)
        assert b[12] == Fraction(-691, 2730)

    def test_em_coefficients_are_the_rounded_quotients(self):
        b = bernoulli_numbers(2 * len(specfun._EM_COEF))
        assert specfun._EM_COEF == tuple(
            float(b[2 * j] / math.factorial(2 * j)) for j in range(1, len(specfun._EM_COEF) + 1))

    def test_odd_vanish(self):
        b = bernoulli_numbers(15)
        for n in range(3, 16, 2):
            assert b[n] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            bernoulli_numbers(-1)
        with pytest.raises(OverflowError):
            bernoulli_numbers(100)


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
        # z^(1/alpha) = 181: the series would need terms past Gamma's range,
        # and the contour takes the point, with the residue of its pole
        assert specfun._ml_routes_to_contour(0.4, 1.0, np.array([8.0])).all()
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
        # the alternating series cannot resolve E_{1/2,1}(z) to 1e-10 here;
        # mittag_leffler takes such points to the contour
        with pytest.raises(ConvergenceError):
            specfun._ml_series(0.5, 1.0, z)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            mittag_leffler(0.0, 1.0, 1.0)


class TestMittagLefflerArrays:
    """The array evaluation against the one-point series it replaced, and
    each element of an array call against its one-point call."""

    @staticmethod
    def _reference(alpha, beta, zs):
        out = []
        for z in zs:
            try:
                val = scalar_ml_reference(alpha, beta, float(z))
            except (ConvergenceError, OverflowError):
                val = None
            out.append(val if val is not None and math.isfinite(val) else None)
        return out

    def test_equals_scalar_series_bit_for_bit(self):
        # Every point the router keeps on the series is the reference's, bit
        # for bit.  The reference's log-space rows are reached only by points
        # the router sends to the contour.
        # 60 draws, so that more than 1,000 points stay on the series
        rng = random.Random(7)
        checked = 0
        for _ in range(60):
            alpha, beta = rng.uniform(0.05, 2.0), rng.uniform(0.5, 5.0)
            zs = np.array([rng.uniform(-1.0, 1.0) * 10 ** rng.uniform(-3.0, 2.3)
                           for _ in range(30)])
            zs = zs[~specfun._ml_routes_to_contour(alpha, beta, zs)]
            ref = self._reference(alpha, beta, zs)
            ok = [i for i, v in enumerate(ref) if v is not None]
            got = mittag_leffler(alpha, beta, zs[ok])
            for i, v in zip(ok, got):
                assert v == ref[i], (alpha, beta, zs[i])
            checked += len(ok)
        assert checked > 1000

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(0.05, 2.0),
        beta=st.floats(0.5, 5.0),
        zs=st.lists(st.floats(-12.0, 12.0), max_size=8),
    )
    def test_each_element_is_the_scalar_call(self, alpha, beta, zs):
        scalars = []
        for z in zs:
            try:
                scalars.append(mittag_leffler(alpha, beta, z))
            except ConvergenceError as exc:
                scalars.append(exc)
        first_refused = next((i for i, v in enumerate(scalars)
                              if isinstance(v, ConvergenceError)), None)
        if first_refused is None:
            assert mittag_leffler(alpha, beta, np.array(zs)).tolist() == scalars
        else:
            with pytest.raises(ConvergenceError) as exc:
                mittag_leffler(alpha, beta, np.array(zs))
            assert str(exc.value) == str(scalars[first_refused])

    def test_zero_dimensional_input_gives_float(self):
        for z in (0.3, np.float64(0.3), np.array(0.3)):
            val = mittag_leffler(0.5, 1.0, z)
            assert type(val) is float
            assert val == scalar_ml_reference(0.5, 1.0, 0.3)

    def test_two_dimensional_shape(self):
        z = np.linspace(-2.0, 2.0, 12).reshape(3, 4)
        got = mittag_leffler(0.75, 1.5, z)
        assert got.shape == (3, 4)
        assert got.tolist() == [[scalar_ml_reference(0.75, 1.5, float(v)) for v in row]
                                for row in z]

    def test_empty_array(self):
        got = mittag_leffler(0.5, 1.0, np.empty((0, 3)))
        assert isinstance(got, np.ndarray) and got.shape == (0, 3)

    def test_error_names_lowest_index_refused_point(self):
        # z = -10 (index 2) and z = -5 (index 3) are both refused; -5 would
        # finish its series first
        z = np.array([[0.1, -3.0], [-10.0, -5.0]])
        with pytest.raises(ConvergenceError, match=r"z=-10\.0;"):
            specfun._ml_series(0.5, 1.0, z)


class TestMittagLefflerNamedErrors:
    """Arguments past the series' reach raise ConvergenceError, with no
    numpy warning and no bare OverflowError or inf on the way.  Of them,
    mittag_leffler still refuses a z > 0 whose value overflows (its contour
    value goes back to the series), a large z when alpha >= 2, and an
    infinite or nan z; any other z goes to the contour."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "alpha,z", [(0.5, -30.0), (0.1, -2.0), (0.5, 40.0), (0.5, math.inf), (0.5, 1e308)]
    )
    def test_overflow_is_refused(self, alpha, z):
        with pytest.raises(ConvergenceError, match="overflows a double"):
            specfun._ml_series(alpha, 1.0, z)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha,z", [(0.5, 40.0), (0.5, math.inf), (0.5, 1e308)])
    def test_positive_overflow_is_refused_by_mittag_leffler(self, alpha, z):
        with pytest.raises(ConvergenceError, match="overflows a double"):
            mittag_leffler(alpha, 1.0, z)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta", [1.0, 18.0])
    def test_terms_past_the_double_range_are_refused(self, beta):
        # E_{2,1}(1e4) = cosh(100) fits a double, but z^n does not at n = 78;
        # at beta = 18, Gamma leaves the double range first, and its term,
        # taken as z^n over the largest double, stays above the tolerance
        with pytest.raises(ConvergenceError, match="overflows a double"):
            mittag_leffler(2.0, beta, 1e4)

    @pytest.mark.filterwarnings("error")
    def test_a_gamma_that_underflows_to_zero_is_refused_without_a_warning(self):
        # Gamma(-200.5) underflows to -0.0, and the first term divides by it
        with pytest.raises(ConvergenceError, match=r"^mittag_leffler series overflows a double "
                           r"for alpha=0.5, beta=-200.5, z=0.5; \|z\| is too large$"):
            mittag_leffler(0.5, -200.5, 0.5)

    @pytest.mark.filterwarnings("error")
    def test_overflow_inside_an_array(self):
        with pytest.raises(ConvergenceError, match="z=40.0;"):
            mittag_leffler(0.5, 1.0, np.array([0.5, 40.0, -1.0]))

    @pytest.mark.parametrize("z,reason", [
        (math.nan, r"is undefined for alpha=0.5, beta=1.0, z=nan$"),
        (np.array([0.5, -1.0, math.nan, -math.inf]), r"is undefined for .* z=nan$"),
        (np.array([0.5, -math.inf, math.nan]), r"overflows a double for .* z=-inf;"),
    ])
    def test_non_finite_z_is_refused_before_any_term(self, monkeypatch, z, reason):
        def no_term(x):
            raise AssertionError("a series term was summed")

        monkeypatch.setattr(specfun, "gamma", no_term)
        with pytest.raises(ConvergenceError, match=reason):
            mittag_leffler(0.5, 1.0, z)


def _ml_trace(alpha: float, beta: float, z: float) -> tuple[int | None, object]:
    """The one-point series of ``_ml_series``, returning the row (term index)
    at which it stops and its outcome: the value, "cancellation", "overflow",
    or (None, "no convergence").  As there, a term is z^n / Gamma(alpha n +
    beta), with Gamma taken as the largest double past 171.6, and a z^n past
    the double range is inf."""
    total = comp = largest = 0.0
    zn = 1.0
    for n in range(10_000):
        arg = alpha * n + beta
        term = zn / (gamma(arg) if arg <= 171.6 else sys.float_info.max)
        zn *= z
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        largest = max(largest, abs(term))
        if math.isinf(total):
            return n, "overflow"
        if arg >= 1.0 and abs(term) < 1e-16 * (1.0 + abs(total)):
            if largest * 2.0**-52 > 1e-10 * max(1.0, abs(total)):
                return n, "cancellation"
            return n, total
    return None, "no convergence"


class TestMittagLefflerBlocks:
    """The series is summed a block of rows (terms) at a time; where a point
    stops inside a block, or how many blocks the points of one array span,
    changes no value and no refusal."""

    ROWS = specfun._ML_BLOCK_ROWS

    @staticmethod
    def _z_stopping_at(alpha, beta, row):
        """The smallest z on a fine grid of (0, 40] whose series stops at row."""
        for k in range(1, 40_001):
            z = k * 1e-3
            if _ml_trace(alpha, beta, z)[0] == row:
                return z
        raise AssertionError(f"no z stops at row {row}")

    @pytest.mark.parametrize("edge", [1, 2])
    @pytest.mark.parametrize("shift", [-1, 0, 1], ids=["before", "at", "after"])
    def test_series_stopping_next_to_a_block_edge(self, edge, shift):
        # row edge * ROWS - 1 ends a block; the row after it starts the next
        row = edge * self.ROWS - 1 + shift
        z = self._z_stopping_at(1.0, 1.5, row)
        want = scalar_ml_reference(1.0, 1.5, z)
        assert mittag_leffler(1.0, 1.5, z) == want
        got = mittag_leffler(1.0, 1.5, np.array([0.5 * z, z, 0.0, -z]))
        assert got[1] == want
        assert got.tolist() == [mittag_leffler(1.0, 1.5, v) for v in (0.5 * z, z, 0.0, -z)]

    def test_points_finishing_in_three_blocks(self):
        zs = np.array([8.0, 0.01, 2.0, 10.0, 0.5])
        rows = [_ml_trace(1.0, 1.0, float(z))[0] for z in zs]
        assert len({r // self.ROWS for r in rows}) == 3
        got = mittag_leffler(1.0, 1.0, zs)
        assert got.tolist() == [scalar_ml_reference(1.0, 1.0, float(z)) for z in zs]

    def test_cancellation_mid_block_names_the_lowest_index_point(self):
        row, outcome = _ml_trace(0.5, 1.0, -4.5)
        assert outcome == "cancellation" and row % self.ROWS not in (0, self.ROWS - 1)
        with pytest.raises(ConvergenceError) as one:
            specfun._ml_series(0.5, 1.0, -4.5)
        # 44.0 overflows too, at a later row
        with pytest.raises(ConvergenceError) as exc:
            specfun._ml_series(0.5, 1.0, np.array([0.25, -4.5, 44.0, 1.0]))
        assert str(exc.value) == str(one.value)
        assert "loses accuracy to cancellation" in str(exc.value)

    def test_overflow_mid_block_names_the_lowest_index_point(self):
        # overflows at sixteen successive rows, so that some stop mid-block
        # whatever the block boundaries; mittag_leffler sends each of these
        # to the contour, whose value overflows, and then to the series
        by_row = {}
        for k in range(800):
            # z^n overflows at n = 710 / log z: rows 168 to 209
            z = 30.0 + k * 0.05
            row, outcome = _ml_trace(0.5, 1.0, z)
            assert outcome == "overflow"
            by_row.setdefault(row, z)
        rows = sorted(by_row)[:self.ROWS]
        assert rows == list(range(rows[0], rows[0] + self.ROWS))
        for row in rows:
            z = by_row[row]
            with pytest.raises(ConvergenceError) as one:
                mittag_leffler(0.5, 1.0, z)
            # -4.5 stops first, refused for cancellation, but comes later
            with pytest.raises(ConvergenceError) as exc:
                mittag_leffler(0.5, 1.0, np.array([0.25, z, -4.5, 1.0]))
            assert str(exc.value) == str(one.value)
            assert "overflows a double" in str(exc.value)

    @settings(max_examples=30, deadline=None)
    @given(
        alpha=st.floats(0.05, 2.0),
        beta=st.floats(0.5, 5.0),
        zs=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=200),
    )
    def test_each_of_many_elements_is_the_scalar_call(self, alpha, beta, zs):
        scalars = []
        refused = None
        for z in zs:
            try:
                scalars.append(mittag_leffler(alpha, beta, z))
            except ConvergenceError as exc:
                refused = exc
                break
        if refused is None:
            assert mittag_leffler(alpha, beta, np.array(zs)).tolist() == scalars
        else:
            with pytest.raises(ConvergenceError) as exc:
                mittag_leffler(alpha, beta, np.array(zs))
            assert str(exc.value) == str(refused)

    def test_memory_of_a_large_call_stays_bounded(self):
        # 192,001 points of the exp problem's forcing at X = 600: the
        # term-at-a-time loop the block sum replaced peaked at 26.2 MB of
        # traced allocations here; blocks may add at most 8 MB to that.  The
        # contour takes the points past x = 16, and the series the rest
        x = np.linspace(0.0, 600.0, 192_001)
        tracemalloc.start()
        try:
            mittag_leffler(1.0, 1.5, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (26.2 + 8.0) * 2**20


def _ml_at_x(alpha: float, beta: float, x: float, sign: float = -1.0) -> float:
    """E_{alpha,beta}(-x^alpha), or E_{alpha,beta}(x^alpha) for sign = 1, by
    its power series in mpmath, at x/2.3 + 30 digits (30 for positive terms,
    which do not cancel): the largest term is about e^x, and the sum is
    summed past it."""
    with mpmath.workdps(int(x / 2.3) + 30 if sign < 0.0 else 30):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        z = sign * mpmath.mpf(x) ** a
        total, zk, k = mpmath.mpf(0), mpmath.mpf(1), 0
        while True:
            term = zk * mpmath.rgamma(a * k + b)
            total += term
            if a * k + b > x + 10 and abs(term) < mpmath.eps * abs(total):
                return float(total)
            zk *= z
            k += 1


def _ml_inverse_n(n: int, z: float) -> float:
    """E_{1/n,1}(z) for even n and z < 0 in closed form: the sum of
    z^k E_{1,1+k/n}(z^n), k < n, is e^w (1 + sum_k (-1)^k P(k/n, w)) with
    w = z^n and P the regularized lower incomplete gamma function."""
    w = mpmath.mpf(z) ** n
    with mpmath.workdps(int(w / 2.3) + 30):
        w = mpmath.mpf(z) ** n
        acc = mpmath.fsum((-1) ** k * mpmath.gammainc(mpmath.mpf(k) / n, 0, w, regularized=True)
                          for k in range(1, n))
        return float(mpmath.exp(w) * (1 + acc))


# the alpha values of tables 1-10, and values near 0 and 2 and in between
TABLE_ALPHAS = (0.25, 0.3, 0.35, 0.4, 0.5, 0.6, 0.65, 0.7, 0.75,
                1.25, 1.3, 1.35, 1.5, 1.65, 1.7, 1.75)
ORACLE_ALPHAS = sorted(set(TABLE_ALPHAS) | {0.1, 0.45, 1.25, 1.5, 1.94})
ORACLE_XS = (0.0, 0.5, 2.0, 7.0, 15.0, 16.0, 30.0, 60.0, 100.0)


class TestMittagLefflerContour:
    """A z past the series' reach goes to the contour integral, point by
    point, a z > 0 only where its pole is far from the contour; the series
    keeps every other point, bit for bit."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
    def test_matches_mpmath_up_to_x_100(self, alpha):
        # E_{alpha,1} and E_{alpha,1+3alpha} at z = -x^alpha, the ml problem's
        # exact solution, on [0, 100]
        x = np.array(ORACLE_XS)
        for beta in (1.0, 1.0 + 3.0 * alpha):
            got = mittag_leffler(alpha, beta, -x**alpha)
            for xi, v in zip(ORACLE_XS, got):
                want = _ml_at_x(alpha, beta, xi)
                assert abs(v - want) <= 1e-10 * max(1.0, abs(want)), (beta, xi)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n,z", [(2, -5.0), (2, -10.0), (2, -30.0), (10, -2.0), (2, -4.5)])
    def test_series_refusals_are_resolved(self, n, z):
        # the inputs, alpha = 1/n, at which the tests above pin the series'
        # refusals
        want = _ml_inverse_n(n, z)
        assert abs(mittag_leffler(1.0 / n, 1.0, z) - want) <= 1e-10 * max(1.0, abs(want))

    def test_refused_arrays_are_resolved(self):
        z = np.array([[0.1, -3.0], [-10.0, -5.0]])
        got = mittag_leffler(0.5, 1.0, z)
        assert got[0, 0] == specfun._ml_series(0.5, 1.0, 0.1)
        for v, zi in zip(got.ravel()[1:], z.ravel()[1:]):
            want = _ml_inverse_n(2, zi)
            assert abs(v - want) <= 1e-10 * max(1.0, abs(want))
        # 44.0 still overflows
        with pytest.raises(ConvergenceError, match=r"overflows a double .* z=44\.0;"):
            mittag_leffler(0.5, 1.0, np.array([0.25, -4.5, 44.0, 1.0]))

    def test_every_series_refusal_goes_to_the_contour(self):
        for alpha in np.linspace(0.05, 1.99, 14):
            for beta in (0.01, 0.5, 1.0, 1.0 + 3.0 * alpha, 4.0):
                zs = -np.linspace(0.5, 30.0, 60) ** alpha
                routed = specfun._ml_routes_to_contour(alpha, beta, zs)
                for z in zs[~routed]:
                    specfun._ml_series(alpha, beta, float(z))
                assert np.all(np.isfinite(mittag_leffler(alpha, beta, zs)))

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(0.02, 1.99),
        beta=st.floats(0.1, 6.0),
        scale=st.lists(st.floats(0.8, 1.25), min_size=1, max_size=12),
    )
    def test_elements_straddling_the_crossover_are_one_point_calls(self, alpha, beta, scale):
        # the predicted term at n = _ML_CROSSOVER crosses the series'
        # tolerance at |z| = zc
        n = specfun._ML_CROSSOVER
        zc = math.exp((math.lgamma(alpha * n + beta) + specfun._ML_LOG_RTOL) / n)
        zs = -zc * np.array(scale + [1.0])
        routed = specfun._ml_routes_to_contour(alpha, beta, zs)
        got = mittag_leffler(alpha, beta, zs)
        assert got.tolist() == [mittag_leffler(alpha, beta, float(z)) for z in zs]
        for v, z, on_contour in zip(got, zs, routed):
            if not on_contour:
                assert v == specfun._ml_series(alpha, beta, float(z))

    def test_tables_send_no_point_to_the_contour(self, monkeypatch):
        from fracrelax import tables

        points = []

        def counted(alpha, beta, z):
            points.append(np.size(z))
            return contour(alpha, beta, z)

        contour = specfun._ml_contour
        monkeypatch.setattr(specfun, "_ml_contour", counted)
        for table_id in tables.TABLE_IDS:
            tables.check_table(table_id)
        assert points == []

    def test_positive_z_is_the_series_bit_for_bit(self):
        # every z > 0 the router keeps has its series value, which is the
        # reference's; cli_scan's exp forcing keeps all of [0, 6.26]
        rng = np.random.default_rng(4)
        cases = [(1.0, 1.6, np.linspace(0.0, 6.26, 2001))]
        cases += [(rng.uniform(0.05, 1.99), rng.uniform(0.5, 5.0), 10.0 ** rng.uniform(-3.0, 1.5, 40))
                  for _ in range(30)]
        routed = 0
        for alpha, beta, zs in cases:
            to_contour = specfun._ml_routes_to_contour(alpha, beta, zs)
            routed += to_contour.sum()
            kept = zs[~to_contour]
            got = mittag_leffler(alpha, beta, kept)
            assert got.tobytes() == specfun._ml_series(alpha, beta, kept).tobytes()
            assert got.tolist() == [scalar_ml_reference(alpha, beta, float(z)) for z in kept]
        assert not specfun._ml_routes_to_contour(*cases[0]).any()
        assert routed > 100

    @pytest.mark.parametrize("k", [8, 12])
    def test_pole_on_a_node(self, k):
        # for 1 < alpha < 2 the pole |z|^(1/alpha) e^(i pi/alpha) placed on
        # node k of the contour, where the integrand is infinite
        s = specfun._MLC_MU * (1.0 + 1j * k * specfun._MLC_STEP) ** 2
        alpha = math.pi / np.angle(s)
        x = abs(s)
        assert 1.0 < alpha < 2.0
        for beta in (1.0, 1.0 + 3.0 * alpha):
            v = specfun._ml_contour(alpha, beta, np.array([-x**alpha]))[0]
            want = _ml_at_x(alpha, beta, x)
            assert abs(v - want) <= 1e-13 * max(1.0, abs(want))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", [0.05, 0.5, 1.0, 1.0 + 1e-9, 1.5, 1.999])
    def test_huge_negative_z(self, alpha):
        # E_{alpha,beta}(z) ~ -1/(z Gamma(beta - alpha)) as z -> -inf, and
        # |E| is below 1e-10 where that term is 0
        z = -np.array([1e20, 1e150, 1e200, 1.7e308])
        for beta in (0.5, 1.0, 4.0):
            got = mittag_leffler(alpha, beta, z)
            want = -float(mpmath.rgamma(beta - alpha)) / z
            assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))

    def test_chunks_of_a_large_call(self):
        zs = -np.linspace(0.0, 100.0, 3 * (specfun._MLC_CHUNK // specfun._MLC_NODES)) ** 1.5
        got = mittag_leffler(1.5, 1.0, zs)
        for i in (0, 1, 12_000, 12_483, 25_000, len(zs) - 1):
            assert got[i] == mittag_leffler(1.5, 1.0, float(zs[i]))

    def test_memory_of_a_large_call_stays_bounded(self):
        # 192,001 points of z = -x^0.45 on [0, 100], almost all on the
        # contour, in chunks of at most 2^18 (points x nodes) values; the
        # bound is the series' own (TestMittagLefflerBlocks)
        z = -np.linspace(0.0, 100.0, 192_001) ** 0.45
        tracemalloc.start()
        try:
            mittag_leffler(0.45, 1.0, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (26.2 + 8.0) * 2**20


class TestMittagLefflerPositiveContour:
    """A z > 0 that the contour takes gets the residue (1/alpha) s^(1-beta)
    e^s of the pole s = z^(1/alpha) added; it is within 1e-12 * max(1, |E|)
    of mpmath."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", [0.01, 0.1, 0.5, 0.75, 0.99, 1.0, 1.5, 1.99])
    def test_exp_forcing_matches_gammainc(self, alpha):
        # E_{1,1+alpha}(x) = x^-alpha e^x P(alpha, x), the exp problem's
        # forcing, up to its X limit
        xs = np.array([17.0, 20.0, 50.0, 200.0, 400.0, 600.0, 700.0, 708.0])
        assert specfun._ml_routes_to_contour(1.0, 1.0 + alpha, xs).all()
        for x, v in zip(xs, mittag_leffler(1.0, 1.0 + alpha, xs)):
            with mpmath.workdps(40):
                want = (mpmath.mpf(x) ** -alpha * mpmath.exp(x)
                        * mpmath.gammainc(alpha, 0, x, regularized=True))
            assert abs(v - want) <= 1e-12 * max(1.0, abs(want)), x

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", [0.1, 0.45, 1.0, 1.6, 1.94])
    def test_matches_mpmath_near_and_past_the_cutoff(self, alpha):
        # z = x^alpha, whose pole x is far enough from the contour from about
        # x = 16 on; the router keeps x = 12 on the series
        xs = np.array([12.0, 15.0, 16.0, 16.5, 18.0, 40.0, 100.0])
        for beta in (0.5, 1.6, 5.0):
            routed = specfun._ml_routes_to_contour(alpha, beta, xs**alpha)
            assert not routed[0] and routed[-2:].all()
            for x, v in zip(xs, mittag_leffler(alpha, beta, xs**alpha)):
                want = _ml_at_x(alpha, beta, x, 1.0)
                assert abs(v - want) <= 1e-12 * max(1.0, abs(want)), (beta, x)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha,beta,z", [
        (1.0, 120.0, 900.0), (0.5, 40.0, 30.0), (1.0, 22.0, 60.0), (1.9, 20.0, 60.0**1.9),
    ])
    def test_first_term_below_the_tolerance(self, alpha, beta, z):
        # 1/Gamma(beta) < 1e-16 would end the series at its first term,
        # though its terms peak near alpha n + beta = z^(1/alpha)
        n = int(2.0 * z ** (1.0 / alpha) / alpha) + 200
        with mpmath.workdps(50):
            a, b, w = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(z)
            want = mpmath.fsum(w**k * mpmath.rgamma(a * k + b) for k in range(n))
        assert abs(mittag_leffler(alpha, beta, z) - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("x", [1.0, 4.5, 9.0, 16.0])
    def test_contour_subtracts_a_pole_near_it(self, x):
        # the router keeps these on the series, but the contour resolves them
        # too; at x = 4.5 the pole lies on the unshifted node u = 0
        for alpha, beta in ((0.5, 1.0), (1.5, 1.6)):
            v = specfun._ml_contour(alpha, beta, np.array([x**alpha]))[0]
            want = _ml_at_x(alpha, beta, x, 1.0)
            assert abs(v - want) <= 1e-13 * max(1.0, abs(want))


def _ml_rgamma(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) by its power series in mpmath with 1/Gamma from
    rgamma, which is 0 at a pole, at |z|^(1/alpha)/2.3 + 30 digits."""
    x = abs(z) ** (1.0 / alpha)
    with mpmath.workdps(int(x / 2.3) + 30):
        a, b, w = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(z)
        total, zk, k = mpmath.mpf(0), mpmath.mpf(1), 0
        while True:
            term = zk * mpmath.rgamma(a * k + b)
            total += term
            if a * k + b > x + 10 and abs(term) <= mpmath.eps * abs(total):
                return float(total)
            zk *= w
            k += 1


class TestMittagLefflerAtGammaPoles:
    """For beta a non-positive integer some of the terms z^n / Gamma(alpha n
    + beta) sit at a pole of Gamma, where 1/Gamma is 0: those terms are 0, and
    a zero term does not end the series (at beta = 0 the first term is one)."""

    ZS = (-7.0, -2.5, -0.5, 0.0, 0.5, 2.5, 7.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta", [0.0, -1.0, -3.0])
    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.5])
    def test_matches_mpmath(self, alpha, beta):
        got = mittag_leffler(alpha, beta, np.array(self.ZS))
        for z, v in zip(self.ZS, got):
            assert mittag_leffler(alpha, beta, z) == v
            want = _ml_rgamma(alpha, beta, z)
            assert abs(v - want) <= 1e-10 * max(1.0, abs(want)), z

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("z", [3.0, -0.5])
    def test_a_small_term_next_to_a_pole_ends_no_series(self, z):
        # the first term, 1/Gamma(1e-17) = 1e-17, is below the tolerance, and
        # E_{0.5,1e-17}(3) is about 1.46e5, E_{0.5,1e-17}(-0.5) about -0.128
        want = _ml_rgamma(0.5, 1e-17, z)
        got = mittag_leffler(0.5, 1e-17, z)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        assert got == scalar_ml_reference(0.5, 1e-17, z)

    def test_contour_past_the_series(self):
        for z in (-30.0, -50.0):
            want = _ml_rgamma(1.5, 0.0, z)
            assert abs(mittag_leffler(1.5, 0.0, z) - want) <= 1e-13 * max(1.0, abs(want))


class TestZetaPastGammaOverflow:
    """Below s = -170.6, Gamma(1 - s) alone overflows a double; the functional
    equation takes 2^s pi^(s-1) Gamma(1 - s) in log space there, so zeta is
    finite wherever its value fits a double (its relative error is about
    1e-16 times log|zeta|, near 1e-13) and refused past that."""

    # The first s, going down from 0, where |zeta(s)| passes the largest
    # double: bisection on mpmath.zeta at 40 digits.
    FIRST_OVERFLOW = -260.16975551440367

    @staticmethod
    def _mp_zeta(s):
        with mpmath.workdps(40):
            return mpmath.zeta(mpmath.mpf(s))

    @pytest.mark.parametrize("s", [-170.5, -171.5, -180.25, -199.0, -200.5, -259.0])
    def test_matches_mpmath(self, s):
        want = self._mp_zeta(s)
        assert abs(mpmath.mpf(zeta(s)) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("s", [-200.0, -172.0, -260.0])
    def test_trivial_zeros(self, s):
        assert self._mp_zeta(s) == 0
        assert zeta(s) == 0.0

    def test_first_overflow(self):
        largest = mpmath.mpf(np.finfo(float).max)
        fits, past = self.FIRST_OVERFLOW + 1e-6, self.FIRST_OVERFLOW - 1e-6
        want = self._mp_zeta(fits)
        assert abs(want) < largest < abs(self._mp_zeta(past))
        assert abs(mpmath.mpf(zeta(fits)) - want) <= 1e-12 * abs(want)
        with pytest.raises(specfun.SpecialFunctionError, match=r"^zeta\(-260\.1697\d*\) overflows a double$"):
            zeta(past)

    @pytest.mark.parametrize("s", [-261.0, -300.5, -1000.5, -math.inf])
    def test_past_the_double_range_is_refused(self, s):
        with pytest.raises(specfun.SpecialFunctionError, match="overflows a double"):
            zeta(s)

    def test_every_argument_is_finite_or_refused(self):
        for s in np.linspace(-400.0, -150.0, 2001):
            try:
                assert math.isfinite(zeta(float(s)))
            except specfun.SpecialFunctionError:
                assert s < self.FIRST_OVERFLOW + 1e-6

    def test_nan_is_refused(self):
        with pytest.raises(specfun.SpecialFunctionError, match="undefined at s=nan"):
            zeta(math.nan)

    def test_infinity_is_one(self):
        assert zeta(math.inf) == 1.0


class TestMittagLefflerNanParameters:
    """A nan alpha or beta is refused before the routing and before any term
    of the series; it used to sum 10,000 terms and report non-convergence."""

    @pytest.mark.parametrize("z", [0.5, -40.0, np.array([-40.0, -2.0, 0.0, 3.0])])
    @pytest.mark.parametrize("alpha,beta,name", [(math.nan, 1.0, "alpha"),
                                                 (0.5, math.nan, "beta"),
                                                 (math.nan, math.nan, "alpha")])
    def test_refused_at_once(self, monkeypatch, alpha, beta, name, z):
        def no_terms(*args, **kwargs):
            raise AssertionError("a series block ran")

        monkeypatch.setattr(specfun, "_ml_block", no_terms)
        monkeypatch.setattr(specfun, "_ml_contour", no_terms)
        with pytest.raises(ValueError, match=rf"^mittag_leffler requires .*, got {name}=nan$") as exc:
            mittag_leffler(alpha, beta, z)
        assert "\n" not in str(exc.value)


class TestMittagLefflerHugeParameters:
    """An infinite alpha or beta is refused before any term, as nan is; a
    huge finite one gives a value."""

    @pytest.mark.parametrize("alpha,beta,name", [(math.inf, 1.0, "alpha"),
                                                 (0.5, -math.inf, "beta"),
                                                 (0.5, math.inf, "beta")])
    def test_infinite_is_refused_at_once(self, monkeypatch, alpha, beta, name):
        def no_terms(*args, **kwargs):
            raise AssertionError("a series block ran")

        monkeypatch.setattr(specfun, "_ml_block", no_terms)
        monkeypatch.setattr(specfun, "_ml_contour", no_terms)
        with pytest.raises(ValueError, match=rf"^mittag_leffler requires .*, got {name}=-?inf$"):
            mittag_leffler(alpha, beta, 0.5)

    @pytest.mark.filterwarnings("error")
    def test_huge_is_resolved(self):
        # every term past the first is 0.5^n over Gamma past the double range
        assert mittag_leffler(1e308, 1.0, 0.5) == 1.0
        # 1/Gamma(1e308) and every term are 0 to double precision
        assert 0.0 <= mittag_leffler(0.5, 1e308, 0.5) < 1e-300
        assert 0.0 <= mittag_leffler(0.5, 1e308, np.array([-1e308, 1e308])).max() < 1e-300
