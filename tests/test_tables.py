"""Reference-table harness tests (the full sweep over all tables lives in
test_acceptance)."""

import math

import pytest

from fracrelax.fracint import UniformGrid, _zeta_coefficients, trapezoid_K
from fracrelax.report import ConvergenceReport, ConvergenceRow
from fracrelax.specfun import bernoulli_numbers
from fracrelax.tables import (
    _TABLE1_CASES,
    ROUNDOFF_FLOOR,
    TABLE_IDS,
    check_reports,
    check_table,
    exact_K_exp,
    exact_K_log3,
    reproduce_table,
    table_spec,
)

K_EXP_HALF_AT_2 = 12.5008548582806555886507
K_LOG3_QUARTER_AT_1 = 5.329411007852952559673745


class TestExactTargets:
    def test_exp_target(self):
        assert exact_K_exp(0.5, 2.0) == pytest.approx(K_EXP_HALF_AT_2, rel=1e-14)

    def test_log_target(self):
        assert exact_K_log3(0.25, 1.0) == pytest.approx(K_LOG3_QUARTER_AT_1, rel=1e-14)

    def test_log_domain(self):
        with pytest.raises(ValueError):
            exact_K_log3(0.25, 3.0)


class TestSpecLookup:
    def test_ids(self):
        assert TABLE_IDS == tuple(range(1, 11))
        for tid in range(2, 11):
            spec = table_spec(tid)
            assert len(spec.columns) == 3
            assert len(spec.hs) == 4

    def test_bad_id(self):
        with pytest.raises(KeyError):
            table_spec(1)
        with pytest.raises(KeyError):
            reproduce_table(11)


# Rows exempt from the printed-digit checks, keyed (table, column, row), with
# the reason.  Errors are otherwise pinned within one unit of the reference's
# last printed digit, orders within ORDER_DIGITS of the printed order.
ERROR_DIGIT_EXCEPTIONS = {
    (1, 0, 3): "roundoff: 2.45e-13 against 2.34e-13, 2e-14 of the target 12.5",
    (2, 0, 1): "the reference repeats the row above (0.0915092); the computed "
               "0.1107 keeps the column's order 0.28",
    (9, 2, 3): "roundoff: 9.2e-16 against 8.8e-16",
    # this column's reference errors are each one grid halving out of step
    # with its reference orders (compare_errors=False in the table spec)
    **{(10, 0, r): "errors out of step with the orders" for r in range(4)},
}
ORDER_DIGIT_EXCEPTIONS = {
    # orders formed from errors within a few hundred ulps of the target: the
    # last printed digits are roundoff (the factor-3 and ORDER_TOL checks
    # still apply)
    (1, 0, 2): "roundoff: 4.0249 against 4.0269 from an error of 4e-12",
    (1, 0, 3): "roundoff: 4.0214 against 4.0836 from an error of 2.5e-13",
    (1, 1, 3): "roundoff: 3.9940 against 3.9956 from an error of 6.8e-13",
    (9, 1, 3): "roundoff: 4.4350 against 4.4325 from an error of 8.9e-14",
    (10, 1, 3): "roundoff: 4.4910 against 4.4895 from an error of 1.2e-13",
    **{(10, 0, r): "errors out of step with the orders; orders agree to 0.025"
       for r in range(4)},
}
ORDER_DIGITS = 5e-4


def _last_digit_unit(value: float) -> float:
    """One unit of the last digit of a stored reference value.  A trailing
    zero the float drops makes the unit ten times coarser: table 2's first
    row, 0.1344242 against a printed 0.1344240, passes at that unit only."""
    mantissa, _, exponent = repr(value).partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def assert_printed_digits(table_id, reports):
    """Every computed row keeps the reference's printed digits, apart from
    the listed exceptions; orders below the roundoff floor are not compared."""
    for col, rep in enumerate(reports):
        for row, r in enumerate(rep.rows):
            key = (table_id, col, row)
            if key not in ERROR_DIGIT_EXCEPTIONS:
                unit = _last_digit_unit(r.expected_error)
                assert abs(r.max_error - r.expected_error) <= unit, (key, r)
            if key in ORDER_DIGIT_EXCEPTIONS:
                continue
            if min(r.max_error, r.expected_error) < ROUNDOFF_FLOOR:
                continue
            assert r.order == pytest.approx(r.expected_order, abs=ORDER_DIGITS), (key, r)


class TestReproduce:
    # tables 1, 6 and 8 have tests of their own below
    @pytest.mark.parametrize("table_id", [t for t in TABLE_IDS if t not in (1, 6, 8)])
    def test_table_passes(self, table_id):
        reports, failures = check_table(table_id)
        assert failures == []
        assert_printed_digits(table_id, reports)

    def test_table1_passes(self):
        reports, failures = check_table(1)
        assert len(reports) == 2
        assert failures == []
        assert_printed_digits(1, reports)

    def test_table1_keeps_its_bits(self):
        # corrected_trapezoid_K reads B_2/2! from specfun's _EM_COEF; every
        # error equals the one of its former formula, with the float of
        # bernoulli_numbers' exact quotient
        coef = float(bernoulli_numbers(2)[2] / math.factorial(2))
        for case, rep in zip(_TABLE1_CASES, reproduce_table(1), strict=True):
            alpha, x, d = case.alpha, case.X, case.derivatives(case.X)
            zs = _zeta_coefficients(alpha, 4)
            for row in rep.rows:
                grid = UniformGrid.sample(case.f, x, round(x / row.h))
                h = grid.h
                at_x = sum(z * h**j * v for j, (z, v) in enumerate(zip(zs, d.at_x)))
                g_1 = sum(math.comb(1, m) * d.at_zero[m] * x ** (alpha - 2 + m)
                          * math.prod(i - alpha for i in range(1, 2 - m)) for m in range(2))
                at_zero = 0.0 + coef * h**2 * g_1
                value = trapezoid_K(grid, alpha) - (h**alpha * at_x - at_zero)
                assert row.max_error == abs(value - case.exact(alpha, x))

    def test_table6_passes(self):
        reports, failures = check_table(6)
        assert failures == []
        # orders carried by every printed row, including the first
        for rep in reports:
            assert all(r.order is not None for r in rep.rows)
        assert_printed_digits(6, reports)

    def test_table8_matches_reference_digits(self):
        reports, failures = check_table(8)
        assert failures == []
        assert_printed_digits(8, reports)


class TestCheckReports:
    def _report(self, err, order, exp_err, exp_order):
        rows = [ConvergenceRow(0.1, err, order, exp_err, exp_order)]
        return ConvergenceReport(label="x", scheme="A", alpha=0.5, rows=rows)

    def test_error_factor_violation(self):
        rep = self._report(1e-2, 2.0, 1e-3, 2.0)
        assert check_reports([rep], 0.05)
        assert not check_reports([rep], 0.05, compare_errors=(False,))

    def test_order_violation(self):
        rep = self._report(1e-3, 2.2, 1e-3, 2.0)
        assert check_reports([rep], 0.05)
        assert not check_reports([rep], 0.25)

    def test_roundoff_floor_skips_order(self):
        rep = self._report(1e-15, 9.9, 1e-15, 2.0)
        assert not check_reports([rep], 0.05)
