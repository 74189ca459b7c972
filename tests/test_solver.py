"""Scheme recurrence, convergence sweep and stability-bound tests."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracrelax import cli
from fracrelax.fracint import STARTUP_ZEROS, SchemeCoefficients, alpha_in_range, scheme_coefficients
from fracrelax.problems import make_exp_problem, make_ml_problem, make_power_problem
from fracrelax.report import sweep, sweep_steps
from fracrelax.solver import (
    MAX_STEPS,
    DegenerateDenominatorError,
    NodeNotTabulatedError,
    NonFiniteSolutionError,
    StabilityConstants,
    claim5_partial_sum_check,
    claim8_window_check,
    convergence_sweep,
    local_truncation_coefficients,
    max_error,
    plan_runs,
    solve,
    solve_with_coefficients,
    tabulate,
    theorem6_bound,
    theorem11_constants,
)
from fracrelax.specfun import gamma
from fracrelax.tables import table_spec


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

    @pytest.mark.parametrize("n", [-2, -1, 0, 1])
    def test_n_is_checked_before_the_forcing_is_evaluated(self, n):
        prob = make_power_problem(4.0, 0.5)
        message = f"n={n} too small for startup_zeros=0"
        with pytest.raises(ValueError, match=message):
            solve(prob, "A", n)
        with pytest.raises(ValueError, match=message):
            solve_with_coefficients(prob.forcing, scheme_coefficients(0.5, "A"), n)

    def test_degenerate_denominator(self):
        # force Gamma(alpha) + c_0 h^alpha = 0
        alpha, n = 0.5, 16
        h = 1.0 / n
        c0 = -gamma(alpha) / h**alpha
        coeffs = SchemeCoefficients(alpha=alpha, order_tag="A1", c=(c0,))
        with pytest.raises(DegenerateDenominatorError):
            solve_with_coefficients(lambda x: np.asarray(x), coeffs, n)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_solution_is_refused(self):
        # u is about 1e308; the FFT products of the long doubling steps sum
        # hundreds of such values and pass the largest double
        coeffs = scheme_coefficients(0.5, "A1")
        with pytest.raises(NonFiniteSolutionError, match="overflows a double"):
            solve_with_coefficients(lambda x: np.full_like(x, 1e308), coeffs, 1024)
        assert issubclass(NonFiniteSolutionError, ValueError)

    def test_non_finite_forcing_is_refused(self):
        coeffs = scheme_coefficients(0.5, "A1")
        with pytest.raises(NonFiniteSolutionError, match="forcing is not finite"):
            solve_with_coefficients(lambda x: np.where(x > 0.5, np.nan, x), coeffs, 64)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_forcing_is_refused_without_a_warning(self):
        # x^400 passes the largest double at x > 5.9
        with pytest.raises(NonFiniteSolutionError, match="forcing is not finite"):
            solve(make_power_problem(400, 0.5, X=10), "A", 20)

    @pytest.mark.parametrize("alpha,tol", [(1e-10, 1e-11), (1e-13, 1e-13)])
    def test_a1_at_tiny_alpha(self, alpha, tol):
        # c_0 = -zeta(1 - alpha) is about 1/alpha; from the rounded 1 - alpha
        # its relative error was about 1e-16/alpha
        u = solve(make_power_problem(4.0, alpha), "A1", 20)
        assert abs(u.values[-1] - 1.0) < tol

    def test_overflowing_step_power_is_refused(self):
        # h = 1e299/16, and h^1.25 passes the largest double
        with pytest.raises(NonFiniteSolutionError, match="h\\^alpha overflows"):
            solve(make_power_problem(4.0, 1.25, X=1e299), "A2", 16)

    ALPHAS = st.one_of(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
    ).filter(alpha_in_range)
    XS = st.floats(0.0, 1e300, exclude_min=True)
    # make_ml_problem refuses the alpha where Gamma(1 + 2 alpha) = 1 and F = 0
    ML_ALPHAS = ALPHAS.filter(lambda a: abs(gamma(1.0 + 2.0 * a) - 1.0) >= 1e-8)
    PROBLEMS = st.one_of(
        st.builds(make_power_problem, st.floats(0.0, 1e300, exclude_min=True), ALPHAS, XS),
        st.builds(make_exp_problem, st.integers(0, 12), ALPHAS,
                  st.floats(0.0, 708.78, exclude_min=True)),
        st.builds(make_ml_problem, st.integers(2, 60), ML_ALPHAS, XS),
    )

    @settings(max_examples=60, deadline=None)
    @given(problem=PROBLEMS, tag=st.sampled_from(tuple(STARTUP_ZEROS)), extra=st.integers(0, 60))
    def test_solution_is_finite_or_refused(self, problem, tag, extra):
        try:
            u = solve(problem, tag, STARTUP_ZEROS[tag] + 2 + extra).values
        except (NonFiniteSolutionError, DegenerateDenominatorError):
            return
        assert np.all(np.isfinite(u))


def per_run_sweep(problem, tag, hs, **report_fields):
    """The sweep with forcing and exact evaluated again on each run's grid."""
    skip = STARTUP_ZEROS[tag]
    errors = [max_error(solve(problem, tag, round(problem.X / h)), problem.exact, skip=skip)
              for h in sweep_steps(hs)]
    return sweep(errors, hs, **report_fields)


def rows(report):
    return [(r.h, r.max_error, r.order) for r in report.rows]


class TestConvergenceSweep:
    @pytest.mark.parametrize("table_id,column", [(4, 1), (9, 2)])
    def test_equals_per_run_sweep(self, table_id, column):
        spec = table_spec(table_id)
        problem = spec.columns[column].make_problem()
        fields = dict(label=problem.label, alpha=problem.alpha)
        got = convergence_sweep(problem, spec.scheme, spec.hs, **fields)
        want = per_run_sweep(problem, spec.scheme, spec.hs, scheme=spec.scheme, **fields)
        assert rows(got) == rows(want)

    def test_cli_sweep_over_non_nested_steps(self, capsys):
        # the runs at h = 0.06, 0.03, 0.02 share only some nodes
        argv = ["sweep", "--problem", "ml", "--m", "2", "--alpha", "0.75",
                "--h-list", "0.03,0.02", "--format", "json"]
        assert cli.main(argv) == 0
        got = json.loads(capsys.readouterr().out)["rows"]
        problem = make_ml_problem(2, 0.75)
        want = per_run_sweep(problem, "A1", [0.03, 0.02], label=problem.label,
                             scheme="A1", alpha=0.75)
        assert [(r["h"], r["max_error"], r["order"]) for r in got] == rows(want)

    def test_forcing_and_exact_evaluated_once(self):
        problem = make_ml_problem(2, 0.75)
        calls = []

        def counted(name, fn):
            def wrapped(x):
                calls.append(name)
                return fn(x)

            return wrapped

        counted_problem = dataclasses.replace(
            problem,
            forcing=counted("forcing", problem.forcing),
            exact=counted("exact", problem.exact),
        )
        convergence_sweep(counted_problem, "A2", (0.025, 0.0125, 0.00625),
                          label="ml", alpha=0.75)
        assert sorted(calls) == ["exact", "forcing"]

    @pytest.mark.parametrize("hs", [[], (0.1, 0.1), [0.05, 0.1]])
    def test_empty_or_not_decreasing_steps_are_refused(self, hs):
        with pytest.raises(ValueError, match="empty h list|strictly decreasing"):
            convergence_sweep(make_power_problem(4, 0.5), "A", hs, label="x", alpha=0.5)

    @pytest.mark.parametrize("hs", [[0.1, 0.0], [0.1, -0.1], [float("inf"), 0.1]])
    def test_steps_not_finite_and_positive_are_refused(self, hs):
        with pytest.raises(ValueError, match="steps must be finite and positive"):
            convergence_sweep(make_power_problem(4, 0.5), "A", hs, label="x", alpha=0.5)

    @pytest.mark.parametrize("tag,hs,message", [
        ("A4", [0.5], "step 0.5 is too coarse for [0, 1]: a sweep's first run, at 2h = 1, "
                      "takes 1 step, and scheme A4 needs at least 4"),
        ("A3", [0.3, 0.2], "step 0.3 is too coarse for [0, 1]: a sweep's first run, at "
                           "2h = 0.6, takes 2 steps, and scheme A3 needs at least 3"),
        ("A9", [0.1], "order_tag must be one of ('A', 'A1', 'A2', 'A3', 'A4')"),
        ("A", [0.1, 0.0], "steps must be finite and positive, got 0"),
    ])
    def test_refused_before_anything_is_evaluated(self, tag, hs, message):
        def unreachable(x):
            raise AssertionError("evaluated before the steps and the scheme were checked")

        problem = dataclasses.replace(make_power_problem(4, 0.5), forcing=unreachable,
                                      exact=unreachable)
        for p, fields in ((problem, {"label": "x", "alpha": 0.5}),
                          ([problem, problem], {"label": ["x", "y"], "alpha": [0.5, 0.5]})):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                convergence_sweep(p, tag, hs, **fields)


class TestPlanRuns:
    def test_sizes_of_a_sweep_and_of_one_run(self):
        assert plan_runs(1.0, ["A4"], [0.1, 0.05], sweep=True) == [5, 10, 20]
        assert plan_runs(2.0, ["A", "A1"], [0.1]) == [20]
        assert plan_runs(1.0, [], [0.3, 0.2], sweep=True) == [2, 3, 5]

    def test_step_limit(self):
        assert plan_runs(1.0, [], [1.0 / MAX_STEPS]) == [MAX_STEPS]
        with pytest.raises(ValueError, match="more than 1048576"):
            plan_runs(1.0 + 1e-9, [], [1.0 / MAX_STEPS])

    def test_the_finest_run_is_held_to_the_limit(self):
        assert plan_runs(1.0, ["A"], [0.25, 1.0 / MAX_STEPS], sweep=True)[-1] == MAX_STEPS
        with pytest.raises(ValueError, match=r"^step 1e-07 takes 1e\+07 steps on \[0, 1\]"):
            plan_runs(1.0, ["A"], [1e-6, 1e-7], sweep=True)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("X,h", [(1.0, 5e-324), (np.float64(1.0), 5e-324), (1.0, 1e-300),
                                     (math.inf, 0.1), (math.nan, 0.1)])
    @pytest.mark.parametrize("sweep", [False, True])
    def test_steps_past_the_limit_are_refused(self, X, h, sweep):
        with pytest.raises(ValueError, match=f"^step {h:g} takes .* steps on "
                                             f"\\[0, {X:g}\\], more than 1048576$"):
            plan_runs(X, ["A"], [h], sweep=sweep)

    def test_a_single_step_past_half_the_double_range(self):
        # one run at h is planned; a sweep's first run, at 2h, is not
        assert plan_runs(1.79e308, ["A"], [9e307]) == [2]
        with pytest.raises(ValueError, match="at 2h, leaves the double range"):
            plan_runs(1.79e308, ["A"], [9e307], sweep=True)

    @pytest.mark.parametrize("hs,message", [
        ([], "empty h list"),
        ([math.nan], "steps must be finite and positive, got nan"),
        ([0.0], "steps must be finite and positive, got 0"),
        ([0.1, 0.2], "h list must be strictly decreasing"),
    ])
    def test_unusable_step_lists_are_refused(self, hs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            plan_runs(1.0, ["A"], hs)


class TestTabulation:
    # nested steps, as a table's sweep takes, and non-nested ones
    STEPS = [(20, 40, 80), (17, 33, 50)]

    @pytest.mark.parametrize("ns", STEPS)
    @pytest.mark.parametrize("tag", tuple(STARTUP_ZEROS))
    def test_solve_equals_the_plain_solve(self, tag, ns):
        problems = [make_power_problem(4.0, 0.3), make_exp_problem(2, 1.5),
                    make_ml_problem(2, 0.7)]
        tab = tabulate(problems, ns)
        assert len(tab.problems) == 3
        for n in ns:
            for got, want in zip(solve(tab, tag, n), solve(problems, tag, n)):
                assert (got.X, got.n) == (want.X, want.n)
                assert np.array_equal(got.values, want.values)

    def test_holds_the_sorted_union_of_the_nodes(self):
        problem = make_power_problem(4.0, 0.5)
        tab = tabulate([problem], [4, 2, 3])
        want = np.unique(np.concatenate([np.linspace(0.0, 1.0, n + 1) for n in (4, 2, 3)]))
        assert np.array_equal(tab.x, want)
        for n in (4, 2, 3):
            x = np.linspace(0.0, 1.0, n + 1)
            assert np.array_equal(tab.x[tab.index[n]], x)
            assert np.array_equal(tab.exact[0, tab.index[n]], problem.exact(x))
            assert np.array_equal(tab.forcing[0, tab.index[n]], problem.forcing(x))

    def test_untabulated_grid_is_refused(self):
        tab = tabulate([make_power_problem(4.0, 0.5)], [8, 4])
        for n in (2, 16, 5):
            with pytest.raises(NodeNotTabulatedError, match=f"n={n} "):
                solve(tab, "A", n)

    def test_problems_on_different_intervals_are_refused(self):
        problems = [make_power_problem(4.0, 0.5), make_power_problem(4.0, 0.5, X=2.0)]
        with pytest.raises(ValueError, match="share X"):
            tabulate(problems, [20])

    @pytest.mark.filterwarnings("error")
    def test_non_finite_values_are_refused_without_a_warning(self):
        # x^400 passes the largest double at x > 5.9
        with pytest.raises(NonFiniteSolutionError, match="not finite on \\[0, 10\\]"):
            tabulate([make_power_problem(400, 0.5, X=10)], [20, 40])


class TestMaxError:
    @pytest.mark.parametrize("skip", [0, 2])
    def test_exact_values_equal_the_exact_callable(self, skip):
        prob = make_ml_problem(2, 0.75)
        u = solve(prob, "A4", 40)
        assert max_error(u, prob.exact(u.nodes), skip) == max_error(u, prob.exact, skip)

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
        for A in (0.0, -1.0):
            with pytest.raises(ValueError, match="A must be positive"):
                theorem11_constants(0.5, A)

    @pytest.mark.parametrize("C0,C1,C2,message", [
        (0.0, 1.0, 2.0, "C0 must be positive"),
        (-1.0, 1.0, 2.0, "C0 must be positive"),
        (1.0, 2.0, 2.0, r"C2 must exceed max\(C0, C1\)"),
        (3.0, 1.0, 2.0, r"C2 must exceed max\(C0, C1\)"),
    ])
    def test_constants_out_of_order_are_refused(self, C0, C1, C2, message):
        with pytest.raises(ValueError, match=message):
            StabilityConstants(0.5, 1.0, C0, C1, C2)

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
