"""Reference-table harness tests (the full sweep over all tables lives in
test_acceptance)."""

import pytest

from fracrelax.report import ConvergenceReport, ConvergenceRow
from fracrelax.tables import (
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


class TestReproduce:
    # tables 1, 6 and 8 have tests of their own below
    @pytest.mark.parametrize("table_id", [t for t in TABLE_IDS if t not in (1, 6, 8)])
    def test_table_passes(self, table_id):
        _, failures = check_table(table_id)
        assert failures == []

    def test_table1_passes(self):
        reports, failures = check_table(1)
        assert len(reports) == 2
        assert failures == []

    def test_table6_passes(self):
        reports, failures = check_table(6)
        assert failures == []
        # orders carried by every printed row, including the first
        for rep in reports:
            assert all(r.order is not None for r in rep.rows)

    def test_table8_matches_reference_digits(self):
        reports, failures = check_table(8)
        assert failures == []
        # the power column reproduces the reference orders to ~1e-4
        for row in reports[0].rows:
            assert row.order == pytest.approx(row.expected_order, abs=5e-4)


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
