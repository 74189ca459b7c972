"""Time-stepping schemes for the integral equation y + I^alpha y = F and the
stability-bound evaluators that accompany them.

Five schemes are available, tagged A, A1, A2, A3, A4 with nominal convergence
orders alpha, 1+alpha, 2+alpha, 3+alpha, 4+alpha.  Each is the same explicit
causal recurrence with its own end-correction weights, a lower-triangular
Toeplitz system that fracrelax._kernels solves in O(n log n).

convergence_sweep runs one scheme at the steps report.sweep_steps plans and
hands the runs' errors to report.sweep.  It builds one Tabulation per sweep
(tabulate), which holds what the runs share: the forcing and exact solution,
evaluated once on the sorted union of every run's nodes; each run's node
indices; the scheme coefficients; and the power weights of the finest run,
which every run slices.  Each run is one solve on it, and each grid's error
is max_error's against the tabulated exact values.  The union is built
without np.unique, whose first use imports numpy.ma, about 10 ms of every
fresh process.

check_coarsest_run is the one place that decides whether a run takes the
steps its scheme needs.  convergence_sweep calls it before tabulate
evaluates anything, for the sweep's coarsest run at 2h, and
cli.emit_solution_curve for its run at h.

solve and convergence_sweep also take a sequence of problems on the same
[0, X], such as a table's columns.  Each run then solves all of them in one
stacked recurrence, and each problem's grid or report equals the one it gets
on its own, bit for bit.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Callable

import numpy as np

from . import _kernels
from .fracint import (
    STARTUP_ZEROS,
    SchemeCoefficients,
    UniformGrid,
    _startup_zeros,
    power_weights,
    scheme_coefficients,
)
from .report import ConvergenceReport, sweep, sweep_steps
from .specfun import gamma

__all__ = [
    "StabilityConstants",
    "solve",
    "solve_with_coefficients",
    "fewest_steps",
    "check_coarsest_run",
    "max_error",
    "Tabulation",
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
    """A Tabulation was asked for a grid it does not hold."""


def fewest_steps(startup_zeros: int) -> int:
    """The fewest steps n a run of a scheme with that many prescribed zero
    startup values takes."""
    return startup_zeros + 2


def check_coarsest_run(X: float, tags: Sequence[str], h: float, sweep: bool = False) -> None:
    """Refuse a step h whose coarsest run on [0, X] takes fewer steps than the
    most demanding scheme of tags needs (fewest_steps), naming it.  A
    sweep's coarsest run is the first of report.sweep_steps([h]), at 2h, a
    single run's is at h.  sweep_steps refuses an h that is not finite and
    positive, and scheme_coefficients' check an unknown tag; every refusal
    is a ValueError, raised before anything is evaluated."""
    coarsest = sweep_steps([h])[0 if sweep else 1]
    n = round(X / coarsest)
    # most demanding first, so that a refusal names it; the key refuses an
    # unknown tag
    for tag in sorted(tags, key=_startup_zeros, reverse=True):
        need = fewest_steps(STARTUP_ZEROS[tag])
        if n < need:
            run = f"a sweep's first run, at 2h = {coarsest:g}, takes" if sweep else "it takes"
            raise ValueError(f"step {h:g} is too coarse for [0, {X:g}]: {run} {n} "
                             f"step{'' if n == 1 else 's'}, "
                             f"and scheme {tag} needs at least {need}")


def solve_with_coefficients(forcing: Callable, coeffs: SchemeCoefficients, n: int,
                            X: float = 1.0) -> UniformGrid:
    """Run the explicit recurrence with an arbitrary coefficient set."""
    u = _solve_rows([forcing], [coeffs], n, X, [""])
    return UniformGrid(X=X, n=n, values=u[0])


def _on_nodes(functions, x: np.ndarray) -> np.ndarray:
    """Each function's values on the nodes x, one row per function; a value
    past the double range is left inf or nan, without a warning."""
    F = np.empty((len(functions), x.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for row, f in zip(F, functions):
            row[:] = f(x)
    return F


def _solve_rows(F, coeffs, n: int, X: float, labels, weights=None) -> np.ndarray:
    """The (R, n+1) solutions of the R rows of coeffs by one stacked
    _kernels.recurrence call, from F, the rows' forcing on the n+1 nodes of
    [0, X] or the R forcing functions, evaluated there once n is checked, and
    weights, when given, the rows' power weights w_0..w_m, m >= n.  The rows
    share n, X and the startup zeros; an error names the row's label."""
    startup_zeros = coeffs[0].startup_zeros
    if n < fewest_steps(startup_zeros):
        raise ValueError(f"n={n} too small for startup_zeros={startup_zeros}")
    if not isinstance(F, np.ndarray):
        # the nodes are freed when _on_nodes returns, before the recurrence
        F = _on_nodes(F, np.linspace(0.0, X, n + 1))
    h = X / n
    wheres = [f" for {label}" if label else "" for label in labels]
    R = len(coeffs)
    gams, h_alphas = np.empty(R), np.empty(R)
    for i, (c, where) in enumerate(zip(coeffs, wheres)):
        gam = gamma(c.alpha)
        try:
            h_alpha = h**c.alpha
        except OverflowError:
            raise NonFiniteSolutionError(
                f"h^alpha overflows a double at h={h:g}{where}") from None
        c0 = c.c[0] if c.c else 0.0
        if abs(gam + c0 * h_alpha) <= 1e-12:
            raise DegenerateDenominatorError(
                f"Gamma(alpha) + c_0 h^alpha degenerate for alpha={c.alpha}, h={h}{where}"
            )
        gams[i], h_alphas[i] = gam, h_alpha
    if weights is None:
        weights = np.array([power_weights(c.alpha, n) for c in coeffs])
    corr = np.array([c.c for c in coeffs], dtype=float).reshape(R, -1)
    # A forcing value or a sum past the double range is inf or nan; a forcing
    # is refused here, a solution row below.
    for row, where in zip(F, wheres):
        if not np.all(np.isfinite(row)):
            raise NonFiniteSolutionError(f"forcing is not finite on [0, {X:g}]{where}")
    with np.errstate(over="ignore", invalid="ignore"):
        u = _kernels.recurrence(F, weights, corr, startup_zeros, gams, h_alphas)
    for row, where in zip(u, wheres):
        if not np.all(np.isfinite(row)):
            raise NonFiniteSolutionError(
                f"scheme solution overflows a double on [0, {X:g}] at n={n}{where}"
            )
    return u


def solve(problem, scheme: str, n: int) -> UniformGrid | list[UniformGrid]:
    """Numerical solution u_0..u_n of problem.forcing's integral equation on
    [0, problem.X] by the scheme with tag `scheme` (one of fracint.ORDER_TAGS);
    u_0 = 0 and the scheme's startup values are prescribed zero.

    problem may also be a sequence of problems on the same [0, X]: they are
    solved together, in one stacked recurrence, and the result is a list with
    one grid per problem, each equal bit for bit to the problem's own solve.
    An error names the problem at fault.

    problem may also be a Tabulation (tabulate) that holds the grid of n
    steps: its forcing rows are gathered in one indexing operation, and the
    result is one grid per problem, equal bit for bit to their own solves.
    Another grid raises NodeNotTabulatedError.  A plain problem is evaluated
    on its own grid only: no exact values, no sort and no index search.
    """
    if isinstance(problem, Tabulation):
        idx = problem.index.get(n)
        if idx is None:
            raise NodeNotTabulatedError(f"the grid of n={n} steps is not tabulated")
        problems, X = problem.problems, problem.X
        u = _solve_rows(problem.forcing[:, idx], problem.coefficients(scheme), n, X,
                        [p.label for p in problems], problem.weights[:, : n + 1])
    else:
        problems = problem if isinstance(problem, Sequence) else [problem]
        X = _shared_X(problems)
        coeffs = [scheme_coefficients(p.alpha, scheme) for p in problems]
        u = _solve_rows([p.forcing for p in problems], coeffs, n, X,
                        [p.label for p in problems])
    grids = [UniformGrid(X=X, n=n, values=row) for row in u]
    return grids if isinstance(problem, (Tabulation, Sequence)) else grids[0]


def _shared_X(problems) -> float:
    X = problems[0].X
    if any(p.X != X for p in problems):
        raise ValueError("problems solved together must share X")
    return X


def max_error(numeric: UniformGrid, exact, skip: int = 0) -> float:
    """max over m >= 1 + skip of |u_m - y(x_m)|, with exact the solution y,
    a callable, or its values y(x_0)..y(x_n) on the grid's nodes.

    skip > 0 excludes prescribed startup nodes, whose error is the exact
    solution value itself rather than a property of the recurrence.
    """
    lo = 1 + skip
    y = exact(numeric.nodes[lo:]) if callable(exact) else exact[lo:]
    return float(np.max(np.abs(numeric.values[lo:] - np.asarray(y, dtype=float))))


class Tabulation:
    """What the runs of one sweep share (tabulate): its problems on one
    [0, X]; their forcing and exact rows, shape (problems, nodes), on the
    sorted union x of the grids' nodes; each grid's indices into x, by its
    number of steps n; each problem's power weights w_0..w_N at the largest
    such n, which every run slices; and each problem's scheme coefficients,
    computed for a tag on its first solve.  A plain class: a dataclass
    compiles its generated methods on every import.
    """

    def __init__(self, problems, X, x, forcing, exact, index, weights):
        self.problems, self.X, self.x, self.index = problems, X, x, index
        self.forcing, self.exact, self.weights = forcing, exact, weights
        self._coeffs = {}

    def coefficients(self, tag: str) -> list[SchemeCoefficients]:
        if tag not in self._coeffs:
            self._coeffs[tag] = [scheme_coefficients(p.alpha, tag) for p in self.problems]
        return self._coeffs[tag]


def tabulate(problems, ns) -> Tabulation:
    """The Tabulation of problems, a sequence on one [0, X], for the grids of
    n steps, n in ns.  Forcing and exact solution are computed point by point,
    so each grid reads what an evaluation on its own nodes would give; values
    past the double range raise NonFiniteSolutionError.  A neighbour mask
    drops the sorted union's repeats: np.unique would import numpy.ma."""
    X = _shared_X(problems)
    grids = [np.linspace(0.0, X, n + 1) for n in ns]
    x = np.sort(np.concatenate(grids))
    x = x[np.concatenate(([True], x[1:] != x[:-1]))]
    F = _on_nodes([p.forcing for p in problems], x)
    y = _on_nodes([p.exact for p in problems], x)
    if not (np.all(np.isfinite(F)) and np.all(np.isfinite(y))):
        raise NonFiniteSolutionError(f"forcing or exact solution is not finite on [0, {X:g}]")
    weights = np.array([power_weights(p.alpha, max(ns)) for p in problems])
    index = {n: np.searchsorted(x, grid) for n, grid in zip(ns, grids)}
    return Tabulation(tuple(problems), X, x, F, y, index, weights)


def convergence_sweep(problem, tag: str, hs,
                      **report_fields) -> ConvergenceReport | list[ConvergenceReport]:
    """Convergence report of the scheme `tag` on problem over the decreasing
    steps hs, built by report.sweep from the errors of the runs at
    report.sweep_steps(hs); the error of a run is max_error's, with the
    scheme's startup nodes skipped.  report_fields (label, alpha, expected)
    pass to sweep, with scheme=tag.

    The sweep builds one Tabulation (tabulate) of the grids of all its runs.
    Each run is one solve call on it, and each grid's error is taken against
    the tabulated exact values on its nodes.

    problem may also be a sequence of problems on the same [0, X].  Each
    report field is then a sequence with one entry per problem, and the
    result is a list with one report per problem, each equal to the
    problem's own sweep.
    """
    single = not isinstance(problem, Sequence)
    problems = [problem] if single else problem
    fields = [report_fields] if single else [
        {k: v[i] for k, v in report_fields.items()} for i in range(len(problems))]
    ns = [round(problems[0].X / h) for h in sweep_steps(hs)]
    check_coarsest_run(problems[0].X, [tag], hs[0], sweep=True)
    tab = tabulate(problems, ns)
    skip = STARTUP_ZEROS[tag]
    runs = []  # runs[j][i]: problem i's error at the run of ns[j] steps
    for n in ns:
        exact = tab.exact[:, tab.index[n]]
        runs.append([max_error(grid, y, skip) for grid, y in zip(solve(tab, tag, n), exact)])
    reports = [sweep([errs[i] for errs in runs], hs, scheme=tag, **f)
               for i, f in enumerate(fields)]
    return reports[0] if single else reports


class StabilityConstants:
    """Error-bound constants for the order-alpha scheme, 0 < alpha < 1.  A
    plain class: a dataclass compiles its generated methods on every import."""

    def __init__(self, alpha: float, A: float, C0: float, C1: float, C2: float):
        if not C0 > 0.0:
            raise ValueError("C0 must be positive")
        if not (C2 > C0 and C2 > C1):
            raise ValueError("C2 must exceed max(C0, C1)")
        self.alpha, self.A, self.C0, self.C1, self.C2 = alpha, A, C0, C1, C2


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
