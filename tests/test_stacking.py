"""Stacked solves: the columns of a table run through one doubling loop.

Each row of a stacked recurrence equals its own one-row call bit for bit;
the step plan and the transform lengths at their edges; the stacked rows
against the reference loops of test_kernels; and solve and
convergence_sweep over a sequence of problems against their per-problem
calls.
"""

import bisect
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracrelax import _kernels, solver, tables
from fracrelax.fracint import (
    ORDER_TAGS,
    STARTUP_ZEROS,
    SchemeCoefficients,
    power_weights,
    scheme_coefficients,
)
from fracrelax.problems import make_exp_problem, make_ml_problem, make_power_problem
from fracrelax.solver import (
    DegenerateDenominatorError,
    NonFiniteSolutionError,
    convergence_sweep,
    solve,
)
from fracrelax.specfun import gamma
from test_kernels import dot_loop_recurrence, oracle_recurrence, with_c0


def stacked_args(alphas, tag, n, seed):
    """recurrence arguments of the scheme `tag` on n steps of [0, 1], one row
    per alpha, with a random forcing."""
    forcing = np.random.default_rng(seed).standard_normal((len(alphas), n + 1))
    weights = np.array([power_weights(a, n) for a in alphas])
    corr = np.array([scheme_coefficients(a, tag).c for a in alphas]).reshape(len(alphas), -1)
    gam = np.array([gamma(a) for a in alphas])
    h_alpha = np.array([(1.0 / n) ** a for a in alphas])
    return forcing, weights, corr, STARTUP_ZEROS[tag], gam, h_alpha


def row_args(args, i):
    """The one-row arguments of row i of stacked_args."""
    forcing, weights, corr, s, gam, h_alpha = args
    return forcing[i], weights[i], corr[i], s, float(gam[i]), float(h_alpha[i])


ALPHAS = st.one_of(st.floats(0.01, 0.99), st.floats(1.01, 1.99))


class TestStackedRecurrence:
    @settings(max_examples=40, deadline=None)
    @given(
        alphas=st.lists(ALPHAS, min_size=1, max_size=4),
        tag=st.sampled_from(ORDER_TAGS),
        n=st.integers(4, 5000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_equal_single_row_calls(self, alphas, tag, n, seed):
        args = stacked_args(alphas, tag, n, seed)
        got = _kernels.recurrence(*args)
        assert got.shape == (len(alphas), n + 1)
        for i in range(len(alphas)):
            want = _kernels.recurrence(*row_args(args, i))
            assert want.shape == (n + 1,)
            assert np.array_equal(got[i], want, equal_nan=True)

    # N = n - startup_zeros unknowns next to powers of two, at 5 * 2^j, and
    # the prime 1031, whose last step's transform length rounds up to 1080.
    EDGES = [2**j + d for j in (6, 8, 10) for d in (-1, 0, 1)] + [5 * 2**6, 5 * 2**8, 1031]

    @pytest.mark.parametrize("N", EDGES)
    @pytest.mark.parametrize("tag", ["A", "A2", "A4"])
    def test_rows_match_the_reference_loops(self, N, tag):
        n = N + STARTUP_ZEROS[tag]
        args = stacked_args([0.3, 0.65, 1.4], tag, n, seed=N)
        got = _kernels.recurrence(*args)
        for i in range(3):
            forcing, weights, corr, s, gam, ha = row_args(args, i)
            loop = oracle_recurrence if N <= 300 else dot_loop_recurrence
            want = loop(forcing, weights, with_c0(corr), s, gam, ha)
            assert np.all(got[i, : s + 1] == 0.0)
            assert float(np.max(np.abs(got[i] - want))) <= 1e-13 * max(1.0, np.max(np.abs(want)))


class TestFirstBlock:
    # N unknowns on either side of BASE_MAX, up to which the plain recurrence
    # runs, and of the first doubling steps after it
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 9, 10, 11, 19, 20, 21, 40, 41])
    @pytest.mark.parametrize("tag", ["A", "A1", "A4"])
    def test_rows_match_the_oracle(self, N, tag):
        n = N + STARTUP_ZEROS[tag]
        args = stacked_args([0.2, 0.9, 1.7], tag, n, seed=N)
        got = _kernels.recurrence(*args)
        for i in range(3):
            forcing, weights, corr, s, gam, ha = row_args(args, i)
            want = oracle_recurrence(forcing, weights, with_c0(corr), s, gam, ha)
            assert np.array_equal(got[i], _kernels.recurrence(*row_args(args, i)))
            assert float(np.max(np.abs(got[i] - want))) <= 1e-13 * max(1.0, np.max(np.abs(want)))


def five_smooth(limit):
    """Every 2^a 3^b 5^c up to limit, sorted."""
    out = []
    p5 = 1
    while p5 <= limit:
        p35 = p5
        while p35 <= limit:
            p = p35
            while p <= limit:
                out.append(p)
                p *= 2
            p35 *= 3
        p5 *= 5
    return sorted(out)


class TestStepPlan:
    @pytest.mark.parametrize("N", [1, 2, 3, *TestStackedRecurrence.EDGES, 2**15 - 1, 2**15])
    def test_steps_halve_from_the_top(self, N):
        ends = _kernels.step_ends(N)
        assert ends[0] == 1 and ends[-1] == N
        for k, t in zip(ends, ends[1:]):
            assert k == (t + 1) // 2 and k < t

    def test_plan_of_a_power_of_two_is_the_doubling(self):
        assert _kernels.step_ends(4096) == [2**j for j in range(13)]

    def test_transform_length_is_the_smallest_5_smooth_number(self):
        smooth = five_smooth(2**21)
        for t in [*range(1, 5000), 2**20 - 1, 2**20, 2**20 + 1]:
            assert _kernels.transform_length(t) == smooth[bisect.bisect_left(smooth, t)], t

    @pytest.mark.parametrize("t,M", [(2560, 2560), (1280, 1280), (1025, 1080), (1031, 1080),
                                     (4097, 4320), (2**14, 2**14), (2**14 + 1, 16875)])
    def test_transform_length_examples(self, t, M):
        assert _kernels.transform_length(t) == M


def table_problems():
    """Three problems on [0, 1], one of each kind, as in a table's columns."""
    return [make_power_problem(4.0, 0.3), make_exp_problem(2, 0.5), make_ml_problem(2, 0.7)]


class TestStackedSolve:
    @pytest.mark.parametrize("n", [20, 320, 1280])
    @pytest.mark.parametrize("tag", ORDER_TAGS)
    def test_equals_single_solves(self, tag, n):
        problems = table_problems()
        grids = solve(problems, tag, n)
        assert isinstance(grids, list) and len(grids) == 3
        for got, problem in zip(grids, problems):
            want = solve(problem, tag, n)
            assert (got.X, got.n) == (want.X, want.n)
            assert np.array_equal(got.values, want.values)

    def test_a_tuple_of_one_gives_a_list_of_one(self):
        problem = make_power_problem(4.0, 0.5)
        (got,) = solve((problem,), "A2", 64)
        assert np.array_equal(got.values, solve(problem, "A2", 64).values)

    def test_problems_on_different_intervals_are_refused(self):
        problems = [make_power_problem(4.0, 0.5), make_power_problem(4.0, 0.5, X=2.0)]
        with pytest.raises(ValueError, match="share X"):
            solve(problems, "A", 20)

    def test_degenerate_denominator_names_the_problem(self, monkeypatch):
        # Gamma(alpha) + c_0 h^alpha = 0 for the exp column only
        n = 16
        real = solver.scheme_coefficients

        def coefficients(alpha, tag):
            c = real(alpha, tag)
            if alpha != 0.5:
                return c
            c0 = -gamma(alpha) / (1.0 / n) ** alpha
            return SchemeCoefficients(alpha=alpha, order_tag=tag, c=(c0, *c.c[1:]))

        monkeypatch.setattr(solver, "scheme_coefficients", coefficients)
        with pytest.raises(DegenerateDenominatorError, match=r"for exp\[m=2\]$"):
            solve(table_problems(), "A1", n)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_forcing_names_the_problem(self):
        # x^400 passes the largest double at x > 5.9
        problems = [make_power_problem(4.0, 0.5, X=10), make_power_problem(400, 0.5, X=10)]
        with pytest.raises(NonFiniteSolutionError, match=r"^forcing is not finite .* for power\[p=400\]$"):
            solve(problems, "A", 20)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_solution_names_the_problem(self):
        ok = make_power_problem(4.0, 0.5)
        flat = dataclasses.replace(ok, forcing=lambda x: np.full_like(x, 1e308), label="flat")
        with pytest.raises(NonFiniteSolutionError,
                           match=r"^scheme solution overflows a double .* for flat$"):
            solve([ok, flat, ok], "A1", 1024)
        assert np.all(np.isfinite(solve([ok, ok], "A1", 1024)[1].values))


class TestStackedSweep:
    @pytest.mark.parametrize("tag,hs", [("A1", (0.003125, 0.0015625)),
                                        ("A3", (0.025, 0.0125, 0.00625))])
    def test_rows_are_those_of_single_sweeps(self, tag, hs):
        problems = table_problems()
        fields = {"label": [p.label for p in problems], "alpha": [p.alpha for p in problems],
                  "expected": [[(1.0, 2.0)] * len(hs), None, [(3.0, 4.0)] * len(hs)]}
        reports = convergence_sweep(problems, tag, hs, **fields)
        assert len(reports) == 3
        for i, (got, problem) in enumerate(zip(reports, problems)):
            want = convergence_sweep(problem, tag, hs, **{k: v[i] for k, v in fields.items()})
            assert (got.label, got.scheme, got.alpha) == (want.label, want.scheme, want.alpha)
            assert got.rows == want.rows

    def test_one_solve_call_per_step(self, monkeypatch):
        calls = []
        real = solver.solve

        def counted(problem, tag, n):
            calls.append((len(problem), n))
            return real(problem, tag, n)

        monkeypatch.setattr(solver, "solve", counted)
        convergence_sweep(table_problems(), "A", (0.025, 0.0125), label=["a", "b", "c"],
                          alpha=[0.3, 0.5, 0.7])
        assert calls == [(3, 20), (3, 40), (3, 80)]

    @pytest.mark.parametrize("table_id", [4, 8])
    def test_table_columns_are_their_own_sweeps(self, table_id):
        spec = tables.table_spec(table_id)
        for got, col in zip(tables.reproduce_table(table_id), spec.columns):
            want = convergence_sweep(col.make_problem(), spec.scheme, spec.hs, label=got.label,
                                     alpha=col.alpha, expected=list(col.expected))
            assert got.rows == want.rows
