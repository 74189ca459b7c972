"""Time-stepping schemes for the integral equation y + I^alpha y = F and the
stability-bound evaluators that accompany them.

Five schemes are available, tagged A, A1, A2, A3, A4 with nominal convergence
orders alpha, 1+alpha, 2+alpha, 3+alpha, 4+alpha.  Each is the same explicit
causal recurrence with its own end-correction weights, a lower-triangular
Toeplitz system that fracrelax._kernels solves in O(n log n).

convergence_sweep runs one scheme over a list of steps h and reports errors
and empirical orders.  It evaluates the problem's forcing and exact solution
once, on the union of every run's nodes (tabulate), and each run reads its
own nodes from those values.

solve and convergence_sweep also take a sequence of problems on the same
[0, X], such as a table's columns.  Each run then solves all of them in one
stacked recurrence, and each problem's grid or report equals the one it gets
on its own, bit for bit.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels
from .fracint import (
    STARTUP_ZEROS,
    SchemeCoefficients,
    UniformGrid,
    power_weights,
    scheme_coefficients,
)
from .report import ConvergenceReport, sweep
from .specfun import gamma

__all__ = [
    "StabilityConstants",
    "solve",
    "solve_with_coefficients",
    "fewest_steps",
    "max_error",
    "tabulate",
    "convergence_sweep",
    "theorem6_bound",
    "theorem11_constants",
    "claim5_partial_sum_check",
    "claim8_window_check",
]


class DegenerateDenominatorError(ArithmeticError):
    """Gamma(alpha) + c_0 h^alpha vanished; the recurrence cannot be formed."""


class NonFiniteSolutionError(ValueError):
    """The forcing or the scheme solution left the double range."""


class NodeNotTabulatedError(LookupError):
    """A tabulated problem was asked for a point outside its tabulated nodes."""


def fewest_steps(startup_zeros: int) -> int:
    """The fewest steps n a run of a scheme with that many prescribed zero
    startup values takes."""
    return startup_zeros + 2


def solve_with_coefficients(
    forcing: Callable,
    coeffs: SchemeCoefficients,
    n: int,
    X: float = 1.0,
) -> UniformGrid:
    """Run the explicit recurrence with an arbitrary coefficient set."""
    return _solve_rows([forcing], [coeffs], n, X, [""])[0]


def _solve_rows(forcings, coeffs, n: int, X: float, labels) -> list[UniformGrid]:
    """One grid per (forcing, coefficients) row, all rows solved by one
    stacked _kernels.recurrence call.  The rows share n, X and the startup
    zeros; an error names the label of the row at fault."""
    startup_zeros = coeffs[0].startup_zeros
    if n < fewest_steps(startup_zeros):
        raise ValueError(f"n={n} too small for startup_zeros={startup_zeros}")
    h = X / n
    x = np.linspace(0.0, X, n + 1)
    wheres = [f" for {label}" if label else "" for label in labels]
    R = len(coeffs)
    F, weights = np.empty((R, n + 1)), np.empty((R, n + 1))
    gams, h_alphas = np.empty(R), np.empty(R)
    for i, (c, where) in enumerate(zip(coeffs, wheres)):
        alpha = c.alpha
        gam = gamma(alpha)
        try:
            h_alpha = h**alpha
        except OverflowError:
            raise NonFiniteSolutionError(
                f"h^alpha overflows a double at h={h:g}{where}") from None
        c0 = c.c[0] if c.c else 0.0
        if abs(gam + c0 * h_alpha) <= 1e-12:
            raise DegenerateDenominatorError(
                f"Gamma(alpha) + c_0 h^alpha degenerate for alpha={alpha}, h={h}{where}"
            )
        gams[i], h_alphas[i] = gam, h_alpha
        weights[i] = power_weights(alpha, n)
    corr = np.array([c.c for c in coeffs], dtype=float).reshape(R, -1)
    # A forcing value or a sum past the double range is inf or nan; a forcing
    # is refused here, a solution row below.
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (forcing, where) in enumerate(zip(forcings, wheres)):
            F[i] = forcing(x)
            if not np.all(np.isfinite(F[i])):
                raise NonFiniteSolutionError(f"forcing is not finite on [0, {X:g}]{where}")
        u = _kernels.recurrence(F, weights, corr, startup_zeros, gams, h_alphas)
    for row, where in zip(u, wheres):
        if not np.all(np.isfinite(row)):
            raise NonFiniteSolutionError(
                f"scheme solution overflows a double on [0, {X:g}] at n={n}{where}"
            )
    return [UniformGrid(X=X, n=n, values=row) for row in u]


def solve(problem, scheme: str, n: int) -> UniformGrid | list[UniformGrid]:
    """Numerical solution u_0..u_n of problem.forcing's integral equation on
    [0, problem.X] by the scheme with tag `scheme` (one of fracint.ORDER_TAGS);
    u_0 = 0 and the scheme's startup values are prescribed zero.

    problem may also be a sequence of problems on the same [0, X]: they are
    solved together, in one stacked recurrence, and the result is a list with
    one grid per problem, each equal bit for bit to the problem's own solve.
    An error names the problem at fault.
    """
    problems = problem if isinstance(problem, Sequence) else [problem]
    X = problems[0].X
    if any(p.X != X for p in problems):
        raise ValueError("problems solved together must share X")
    coeffs = [scheme_coefficients(p.alpha, scheme) for p in problems]
    grids = _solve_rows([p.forcing for p in problems], coeffs, n, X,
                        [p.label for p in problems])
    return grids if isinstance(problem, Sequence) else grids[0]


def max_error(numeric: UniformGrid, exact: Callable, skip: int = 0) -> float:
    """max over m >= 1 + skip of |u_m - y(x_m)|.

    skip > 0 excludes prescribed startup nodes, whose error is the exact
    solution value itself rather than a property of the recurrence.
    """
    lo = 1 + skip
    x = numeric.nodes[lo:]
    return float(np.max(np.abs(numeric.values[lo:] - np.asarray(exact(x), dtype=float))))


def tabulate(problem, grids):
    """problem with its forcing and exact solution evaluated once, on the
    sorted union of the node arrays in grids, and replaced by lookups into
    those values.  A lookup takes only points present in some grid, bit for
    bit, and raises NodeNotTabulatedError otherwise.  Values past the double
    range raise NonFiniteSolutionError.
    """
    x = np.unique(np.concatenate(grids))

    def lookup(values):
        def at(t):
            t = np.asarray(t, dtype=float)
            i = np.minimum(np.searchsorted(x, t), x.size - 1)
            if not np.array_equal(x[i], t):
                raise NodeNotTabulatedError("point is not a tabulated node")
            return values[i]

        return at

    with np.errstate(over="ignore", invalid="ignore"):
        F = np.asarray(problem.forcing(x), dtype=float)
        y = np.asarray(problem.exact(x), dtype=float)
    if not (np.all(np.isfinite(F)) and np.all(np.isfinite(y))):
        raise NonFiniteSolutionError(
            f"forcing or exact solution is not finite on [0, {problem.X:g}]"
        )
    return dataclasses.replace(problem, forcing=lookup(F), exact=lookup(y))


def convergence_sweep(
    problem, tag: str, hs, **report_fields
) -> ConvergenceReport | list[ConvergenceReport]:
    """Convergence report of the scheme `tag` on problem over the decreasing
    steps hs, built by report.sweep; the error of a run is max_error with the
    scheme's startup nodes skipped.  report_fields (label, alpha, expected)
    pass to sweep, with scheme=tag.

    The forcing and exact solution are evaluated once, on the grids of all the
    steps sweep runs (tabulate).  Every value of them is computed point by
    point, so each run sees what an evaluation on its own grid would give.

    problem may also be a sequence of problems on the same [0, X].  Each
    report field is then a sequence with one entry per problem, each step
    makes one solve call for all of them, and the result is a list with one
    report per problem, each equal to the problem's own sweep.
    """
    single = not isinstance(problem, Sequence)
    problems = [problem] if single else problem
    fields = [report_fields] if single else [
        {k: v[i] for k, v in report_fields.items()} for i in range(len(problems))]
    skip = STARTUP_ZEROS[tag]
    X = problems[0].X
    # One report per problem, each through report.sweep; the first sweep
    # runs every problem at the steps sweep asks for, and the others read
    # their errors at the same steps.
    runs = {}

    def errors(i):
        def of(steps):
            key = tuple(steps)
            if key not in runs:
                ns = [round(X / h) for h in steps]
                grids = [np.linspace(0.0, X, n + 1) for n in ns]
                tabled = [tabulate(p, grids) for p in problems]
                runs[key] = [
                    [max_error(u, p.exact, skip=skip) for u, p in zip(solve(tabled, tag, n), tabled)]
                    for n in ns
                ]
            return [errs[i] for errs in runs[key]]

        return of

    reports = [sweep(errors(i), hs, scheme=tag, **f) for i, f in enumerate(fields)]
    return reports[0] if single else reports


@dataclass(frozen=True)
class StabilityConstants:
    """Error-bound constants for the order-alpha scheme, 0 < alpha < 1."""

    alpha: float
    A: float
    C0: float
    C1: float
    C2: float

    def __post_init__(self):
        if not self.C0 > 0.0:
            raise ValueError("C0 must be positive")
        if not (self.C2 > self.C0 and self.C2 > self.C1):
            raise ValueError("C2 must exceed max(C0, C1)")


def theorem6_bound(alpha: float, A: float) -> float:
    """Bound constant Gamma(alpha+1) A / (Gamma(alpha+1) - 1) for 1 < alpha < 2.

    The order-alpha scheme error satisfies |e_m| < bound * h^alpha.
    """
    if not (1.0 < alpha < 2.0):
        raise ValueError("theorem6_bound requires 1 < alpha < 2")
    if A <= 0.0:
        raise ValueError("A must be positive")
    g = gamma(alpha + 1.0)
    return g * A / (g - 1.0)


def theorem11_constants(alpha: float, A: float) -> StabilityConstants:
    """Constants C0, C1, C2 bounding the order-alpha scheme error, 0 < alpha < 1."""
    if not (0.0 < alpha < 1.0):
        raise ValueError("theorem11_constants requires 0 < alpha < 1")
    if A <= 0.0:
        raise ValueError("A must be positive")
    g1 = 2.0**alpha * gamma(1.0 + alpha)
    C0 = g1 * A / (g1 - 1.0)
    C1 = (2.0 ** (1.0 - alpha) * C0 + gamma(alpha) * A) / gamma(alpha)
    C2 = (C0 + g1 * C1) / (g1 - 1.0)
    return StabilityConstants(alpha=alpha, A=A, C0=C0, C1=C1, C2=C2)


def claim5_partial_sum_check(alpha: float, m: int) -> bool:
    """Direct check of 1 + 2^(alpha-1) + ... + (m-1)^(alpha-1) < m^alpha / alpha."""
    if m < 2:
        raise ValueError("m must be >= 2")
    k = np.arange(1, m, dtype=float)
    return float(np.sum(k ** (alpha - 1.0))) < m**alpha / alpha


def claim8_window_check(alpha: float, m: int, n: int) -> bool:
    """Direct check of m^(alpha-1) + ... + n^(alpha-1) < (n^alpha - (m-1)^alpha)/alpha
    for 0 < alpha < 1 and 2 <= m <= n.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("claim8 window check requires 0 < alpha < 1")
    if m < 2 or n < m:
        raise ValueError("need 2 <= m <= n")
    k = np.arange(m, n + 1, dtype=float)
    lhs = float(np.sum(k ** (alpha - 1.0)))
    return lhs < (n**alpha - (m - 1.0) ** alpha) / alpha


def local_truncation_coefficients(problem, n: int) -> np.ndarray:
    """a_m values of the order-alpha scheme: the residual of the exact solution
    in the recurrence, divided by h^alpha.  a_0 is set to 0.
    """
    h = problem.X / n
    x = np.linspace(0.0, problem.X, n + 1)
    y = np.asarray(problem.exact(x), dtype=float)
    F = np.asarray(problem.forcing(x), dtype=float)
    alpha = problem.alpha
    w = power_weights(alpha, n)
    gam = gamma(alpha)
    h_alpha = h**alpha
    # hist_m = sum_{k=1}^{m-1} w_k y_{m-k}; the full convolution adds w_m y_0.
    hist = np.convolve(y, w)[: n + 1] - w * y[0]
    a = (y + h_alpha / gam * hist - F) / h_alpha
    a[0] = 0.0
    return a
