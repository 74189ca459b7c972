"""Report assembly and rendering tests."""

import csv
import io
import json

import pytest

from fracrelax.report import (ConvergenceReport, ConvergenceRow, empirical_order, sweep,
                              sweep_steps)


def _sample_report(expected=None):
    # the unreported run at h = 0.2 gives the first row the order 1.48
    return sweep(
        [1e-3 * 2.0**1.48, 1e-3, 3.5e-4],
        [0.1, 0.05],
        label="demo",
        scheme="A1",
        alpha=0.5,
        expected=expected,
    )


class TestAssembly:
    def test_empirical_order(self):
        assert empirical_order(4.0, 1.0) == pytest.approx(2.0)

    def test_sweep_orders_and_reference_columns(self):
        rep = _sample_report(expected=[(1.1e-3, 1.5), (3.0e-4, 1.5)])
        assert rep.rows[0].order == pytest.approx(1.48)
        assert rep.rows[1].order == pytest.approx(empirical_order(1e-3, 3.5e-4))
        assert [(r.expected_error, r.expected_order) for r in rep.rows] == [
            (1.1e-3, 1.5), (3.0e-4, 1.5)]

    def test_sweep_orders_first_row_from_extra_coarse_run(self):
        steps = sweep_steps((0.1, 0.05))
        assert steps == [0.2, 0.1, 0.05]
        rep = sweep([h**2 for h in steps], (0.1, 0.05), label="demo", scheme="A", alpha=0.5)
        assert [r.h for r in rep.rows] == [0.1, 0.05]
        assert [r.max_error for r in rep.rows] == [0.1**2, 0.05**2]
        assert [r.order for r in rep.rows] == pytest.approx([2.0, 2.0])

    def test_orders_on_steps_that_do_not_halve(self):
        hs = [0.02, 0.015, 0.01, 0.0075, 0.005]
        rep = sweep([h**1.5 for h in sweep_steps(hs)], hs, label="demo", scheme="A1",
                    alpha=0.5)
        assert [r.order for r in rep.rows] == pytest.approx([1.5] * len(hs), rel=1e-12)

    def test_halving_steps_keep_the_log2_order(self):
        assert empirical_order(3e-4, 1e-4, 0.025, 0.0125) == empirical_order(3e-4, 1e-4)

    @pytest.mark.parametrize("hs,message", [
        ([], "empty h list"),
        ([0.1, 0.1], "strictly decreasing"),
        ([0.05, 0.1], "strictly decreasing"),
        ([0.1, float("nan")], "strictly decreasing"),
    ])
    def test_empty_or_not_decreasing_steps_are_refused(self, hs, message):
        with pytest.raises(ValueError, match=message):
            sweep_steps(hs)
        with pytest.raises(ValueError, match=message):
            sweep([1.0] * (len(hs) + 1), hs, label="demo", scheme="A", alpha=0.5)

    @pytest.mark.parametrize("hs,bad", [
        ([0.1, 0.0], "0"),
        ([0.1, -0.1], "-0.1"),
        ([-0.1], "-0.1"),
        ([float("inf"), 0.1], "inf"),
        ([float("nan")], "nan"),
    ])
    def test_steps_not_finite_and_positive_are_refused(self, hs, bad):
        with pytest.raises(ValueError, match=f"steps must be finite and positive, got {bad}$"):
            sweep_steps(hs)

    def test_first_run_past_the_double_range_is_refused(self):
        assert sweep_steps([8.98846567431157e307]) == [1.797693134862314e308,
                                                       8.98846567431157e307]
        with pytest.raises(ValueError, match=r"^step 8.98847e\+307 is too large for a sweep: "
                                             r"its first run, at 2h, leaves the double range$"):
            sweep_steps([8.98846567431158e307, 1.0])

    def test_order_is_checked_before_sign(self):
        with pytest.raises(ValueError, match="strictly decreasing"):
            sweep_steps([0.0, 0.1])

    @pytest.mark.parametrize("bad", [0.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_error_without_an_order_names_its_step(self, bad, at):
        errs = [4e-2, 1e-2, 2.5e-3]
        errs[at] = bad
        step = (0.2, 0.1, 0.05)[at]
        with pytest.raises(ValueError, match=f"demo: the error at step {step:g} is {bad:g}"):
            sweep(errs, (0.1, 0.05), label="demo", scheme="A", alpha=0.5)

    def test_descending_h_enforced(self):
        rows = [ConvergenceRow(0.05, 1e-3, None), ConvergenceRow(0.1, 1e-2, None)]
        with pytest.raises(ValueError):
            ConvergenceReport(label="x", scheme="A", alpha=0.5, rows=rows)


class TestRendering:
    def test_csv_round_trip(self):
        rep = _sample_report(expected=[(1.1e-3, 1.5), (3.0e-4, 1.5)])
        text = rep.to_csv()
        meta = [l for l in text.splitlines() if l.startswith("#")]
        assert any("label=demo" in l for l in meta)
        body = [l for l in text.splitlines() if not l.startswith("#")]
        rows = list(csv.DictReader(io.StringIO("\n".join(body))))
        assert len(rows) == 2
        assert float(rows[0]["h"]) == 0.1
        assert float(rows[1]["expected_error"]) == pytest.approx(3.0e-4)

    def test_json(self):
        obj = json.loads(_sample_report().to_json())
        assert obj["scheme"] == "A1"
        assert obj["rows"][1]["max_error"] == pytest.approx(3.5e-4)
        assert obj["rows"][0]["expected_error"] is None

    def test_markdown(self):
        md = _sample_report(expected=[(1e-3, 1.5), (3e-4, 1.5)]).to_markdown()
        assert md.count("|") > 10
        assert "Ref. error" in md
        md_plain = _sample_report().to_markdown()
        assert "Ref. error" not in md_plain

    def test_render_dispatch(self):
        rep = _sample_report()
        assert rep.render("csv") == rep.to_csv()
        assert rep.render("markdown") == rep.to_markdown()
        with pytest.raises(ValueError):
            rep.render("xml")

    def test_numeric_output_deterministic(self):
        a = _sample_report().to_csv()
        b = _sample_report().to_csv()
        strip = lambda t: [l for l in t.splitlines() if not l.startswith("# timestamp")]
        assert strip(a) == strip(b)
