"""A property over the public API: every call answers with finite values or
refuses with one of the package's own errors."""

import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracrelax.cli import emit_solution_curve
from fracrelax.fracint import ORDER_TAGS
from fracrelax.problems import PROBLEM_KINDS, BenchmarkProblem, make_problem
from fracrelax.report import sweep_steps
from fracrelax.solver import convergence_sweep, solve
from fracrelax.specfun import gamma_ratio, mittag_leffler, zeta

# the most steps one drawn grid takes: X/h and n stay at or below it
MOST_STEPS = 4096
NOT_FINITE_AND_POSITIVE = st.sampled_from([0.0, -0.1, -1.0, math.nan, math.inf, -math.inf])
ALPHAS = st.one_of(st.floats(0.01, 1.99), st.sampled_from([1.0, 2.0, 2.5, 1e-300, 1e300]),
                   NOT_FINITE_AND_POSITIVE)
XS = st.one_of(st.floats(1e-3, 50.0), st.sampled_from([1e-300, 700.0, 1e6]),
               NOT_FINITE_AND_POSITIVE)
TAGS = st.sampled_from((*ORDER_TAGS, "A9", ""))
# messages of numpy and of Python itself, none of which is the package's own
FOREIGN = ("Number of samples", "cannot convert float", "math domain error", "math range error",
           "division by zero", "arg is an empty sequence", "Maximum allowed size")


def _sweep(problem_args, tag, hs):
    p = make_problem(*problem_args)
    return convergence_sweep(p, tag, hs, label=p.label, alpha=p.alpha)


# each public call, by name, on the arguments calls() draws for it
RUNS = {
    "solve": lambda problem_args, tag, n: solve(make_problem(*problem_args), tag, n),
    "convergence_sweep": _sweep,
    "emit_solution_curve": lambda problem_args, schemes, h: emit_solution_curve(
        make_problem(*problem_args), schemes, h),
    "make_problem": make_problem,
    "sweep_steps": sweep_steps,
    "mittag_leffler": mittag_leffler,
    "zeta": zeta,
    "gamma_ratio": gamma_ratio,
}


def finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def answers(name, args, result) -> bool:
    """Whether result, what the call of name on args returned, holds only
    finite values, or is gamma_ratio's documented limit at an infinite
    argument: 0.0 for b = inf, inf for a = inf and nan for both."""
    if name == "solve":
        return finite(result.values)
    if name == "convergence_sweep":
        return finite([v for row in result.rows for v in (row.h, row.max_error, row.order)])
    if name == "emit_solution_curve":
        return finite([float(v) for line in result.splitlines()[1:] for v in line.split(",")])
    if name == "make_problem":
        return isinstance(result, BenchmarkProblem) and finite([result.alpha, result.X])
    if name == "gamma_ratio" and math.inf in args:
        a, b = args
        return math.isnan(result) if a == b else result == (math.inf if a == math.inf else 0.0)
    return finite(result)


@st.composite
def problem_args(draw):
    """make_problem's arguments: a kind (or an unknown one), its parameter,
    alpha and X."""
    kind = draw(st.sampled_from((*PROBLEM_KINDS, "bogus")))
    if kind == "power":
        param = draw(st.one_of(st.floats(0.05, 400.0), NOT_FINITE_AND_POSITIVE,
                               st.sampled_from([1e20, 1.7e308])))
    else:
        param = draw(st.integers(-1, 40))
    return kind, param, draw(ALPHAS), draw(XS)


def steps(X):
    """A step of a grid of at most MOST_STEPS steps on [0, X], one so small
    that X/h is past any grid a run may take (1e-300) or overflows (5e-324),
    or one that is not finite and positive."""
    base = X if 0.0 < X < math.inf else 1.0
    return st.one_of(st.integers(1, MOST_STEPS).map(lambda k: base / k),
                     st.floats(base / MOST_STEPS, 4.0 * base),
                     st.sampled_from([1e-300, 5e-324]), NOT_FINITE_AND_POSITIVE)


@st.composite
def calls(draw):
    """(name, args): a public call, by its name in RUNS, and its arguments."""
    name = draw(st.sampled_from(sorted(RUNS)))
    if name in ("solve", "convergence_sweep", "emit_solution_curve", "make_problem"):
        pargs = draw(problem_args())
        if name == "make_problem":
            return name, pargs
        if name == "solve":
            return name, (pargs, draw(TAGS), draw(st.integers(-2, MOST_STEPS)))
        if name == "convergence_sweep":
            return name, (pargs, draw(TAGS), draw(st.lists(steps(pargs[3]), max_size=3)))
        return name, (pargs, draw(st.lists(TAGS, max_size=3)), draw(steps(pargs[3])))
    if name == "sweep_steps":
        return name, (draw(st.lists(st.floats(), max_size=4)),)
    if name == "mittag_leffler":
        alpha = draw(st.one_of(st.floats(0.05, 3.0), NOT_FINITE_AND_POSITIVE))
        beta = draw(st.one_of(st.floats(-5.0, 20.0), st.sampled_from([math.nan, math.inf])))
        z = st.one_of(st.floats(-1e4, 1e3), st.sampled_from([math.nan, math.inf, -math.inf]))
        return name, (alpha, beta, draw(st.one_of(z, st.lists(z, min_size=1, max_size=5)
                                                   .map(np.array))))
    if name == "zeta":
        return name, (draw(st.floats()),)
    return name, (draw(st.floats()), draw(st.floats()))


@settings(max_examples=300, deadline=None)
@given(call=calls())
# faults this property found
@example(call=("zeta", (1.0547656064814813e+28,)))
@example(call=("make_problem", ("ml", 2, 1e300, 1.0)))
@example(call=("emit_solution_curve", (("exp", 0, 1e300, 1.0), [], 1.0)))
@example(call=("emit_solution_curve", (("power", 1.0, 1e300, 1.0), [], 0.5)))
@example(call=("gamma_ratio", (1.0, math.nan)))
@example(call=("gamma_ratio", (2.5599833278516387e+305, 1.0)))
@example(call=("sweep_steps", ([8.98846567431158e+307],)))
@example(call=("convergence_sweep", (("power", 4.0, 0.5, 1.0), "A", [5e-324])))
@example(call=("emit_solution_curve", (("power", 4.0, 0.5, 1.0), ["A"], 5e-324)))
def test_answers_finite_values_or_refuses_in_its_own_words(call):
    """Domain: each of solve, convergence_sweep, emit_solution_curve,
    sweep_steps, make_problem, mittag_leffler, zeta and gamma_ratio, drawn
    with the one probability.

    * make_problem's kinds and an unknown one; p in [0.05, 400], 1e20 and
      1.7e308, m in -1..40; alpha in [0.01, 1.99], 1, 2, 2.5, 1e-300 and
      1e300; X in [1e-3, 50], 1e-300, 700 and 1e6; and each of alpha, p and
      X also 0, -0.1, -1, nan and +-inf.
    * solve: a tag of ORDER_TAGS, "A9" or "", and n in -2..4096.
    * convergence_sweep: one such tag and 0 to 3 steps; emit_solution_curve:
      0 to 3 such tags and one step.  A step is X/k, k in 1..4096, a float
      in [X/4096, 4X], 1e-300 or 5e-324 (past solver.MAX_STEPS), or not
      finite and positive, so no accepted grid takes more than 4096 steps.
    * sweep_steps: 0 to 4 floats of any value.
    * mittag_leffler: alpha in [0.05, 3], beta in [-5, 20] and z in
      [-1e4, 1e3], each also not finite (alpha also not positive), z a
      float or an array of 1 to 5 points.
    * zeta(s) and gamma_ratio(a, b): floats of any value.

    The call returns finite values (answers), or raises a ValueError or an
    ArithmeticError other than ZeroDivisionError, in a message of the
    package's own; no RuntimeWarning escapes.  gamma_ratio's documented
    OverflowError, past the double range, carries Python's message."""
    name, args = call
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = RUNS[name](*args)
        except (ValueError, ArithmeticError) as exc:
            assert not isinstance(exc, ZeroDivisionError), exc
            if not (name == "gamma_ratio" and isinstance(exc, OverflowError)):
                assert not any(text in str(exc) for text in FOREIGN), exc
        else:
            assert answers(name, args, result), result
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught
