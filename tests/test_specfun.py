"""Special-function unit tests against math/mpmath oracles and classical
identities."""

import math
import random
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
        if abs(term) < 1e-16 * (1.0 + abs(total)):
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


class TestMittagLefflerArrays:
    """The array evaluation against the one-point series it replaced."""

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
        # Off the log-space branch every value is the reference's, bit for
        # bit.  That branch carries terms that reach the last bit only for
        # huge values (|E| above about 1e35 at alpha = 2), where np.exp may
        # differ from math.exp by one ulp.
        rng = random.Random(7)
        checked = 0
        for _ in range(40):
            alpha, beta = rng.uniform(0.05, 2.0), rng.uniform(0.5, 5.0)
            zs = np.array([rng.uniform(-1.0, 1.0) * 10 ** rng.uniform(-3.0, 2.3)
                           for _ in range(30)])
            ref = self._reference(alpha, beta, zs)
            ok = [i for i, v in enumerate(ref) if v is not None]
            got = mittag_leffler(alpha, beta, zs[ok])
            for i, v in zip(ok, got):
                if abs(ref[i]) < 1e30:
                    assert v == ref[i], (alpha, beta, zs[i])
                else:
                    assert v == pytest.approx(ref[i], rel=4.5e-16, abs=0.0)
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
            mittag_leffler(0.5, 1.0, z)


class TestMittagLefflerNamedErrors:
    """Arguments past the series' reach raise ConvergenceError, with no
    numpy warning and no bare OverflowError or inf on the way."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "alpha,z", [(0.5, -30.0), (0.1, -2.0), (0.5, 40.0), (0.5, math.inf), (0.5, 1e308)]
    )
    def test_overflow_is_refused(self, alpha, z):
        with pytest.raises(ConvergenceError, match="overflows a double"):
            mittag_leffler(alpha, 1.0, z)

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
    """The one-point series of scalar_ml_reference, returning the row (term
    index) at which it stops and its outcome: the value, "cancellation",
    "overflow", or (None, "no convergence").  A term past the double range
    is inf here, as in the array evaluation."""
    total = comp = largest = 0.0
    zn = 1.0
    logabsz = math.log(abs(z)) if z != 0.0 else -math.inf
    for n in range(10_000):
        arg = alpha * n + beta
        if arg > 170.0 or n * logabsz > 690.0:
            sign = -1.0 if (z < 0.0 and n % 2) else 1.0
            log_term = n * logabsz - math.lgamma(arg)
            try:
                term = 0.0 if log_term < -600.0 else sign * math.exp(log_term)
            except OverflowError:
                term = sign * math.inf
        else:
            term = zn / gamma(arg)
            zn *= z
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        largest = max(largest, abs(term))
        if math.isinf(total):
            return n, "overflow"
        if abs(term) < 1e-16 * (1.0 + abs(total)):
            if largest * 2.0**-52 > 1e-10 * max(1.0, abs(total)):
                return n, "cancellation"
            return n, total
    return None, "no convergence"


def _first_log_row(z: float) -> int:
    """The first row whose term is due in log space because n log|z| > 690."""
    return math.floor(690.0 / math.log(abs(z))) + 1


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
            mittag_leffler(0.5, 1.0, -4.5)
        # 44.0 overflows too, at a later row
        with pytest.raises(ConvergenceError) as exc:
            mittag_leffler(0.5, 1.0, np.array([0.25, -4.5, 44.0, 1.0]))
        assert str(exc.value) == str(one.value)
        assert "loses accuracy to cancellation" in str(exc.value)

    def test_overflow_mid_block_names_the_lowest_index_point(self):
        # overflows at sixteen successive rows, so that some stop mid-block
        # whatever the block boundaries past the first log-space row
        by_row = {}
        for k in range(800):
            z = 41.0 + k * 0.01
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

    def test_term_switching_to_log_space_mid_block(self):
        zs = np.array([800.0, 750.0, 0.5])
        switch = _first_log_row(800.0)
        assert switch % self.ROWS != 0
        # at that row 750 is still summed, without log space
        assert _first_log_row(750.0) > switch
        assert _ml_trace(1.5, 1.0, 750.0)[0] > switch
        got = mittag_leffler(1.5, 1.0, zs)
        assert got.tolist() == [mittag_leffler(1.5, 1.0, float(z)) for z in zs]
        for v, z in zip(got, zs):
            assert v == pytest.approx(scalar_ml_reference(1.5, 1.0, float(z)), rel=4.5e-16, abs=0.0)

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
        # traced allocations here; blocks may add at most 8 MB to that
        x = np.linspace(0.0, 600.0, 192_001)
        tracemalloc.start()
        try:
            mittag_leffler(1.0, 1.5, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (26.2 + 8.0) * 2**20
