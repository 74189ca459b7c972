"""Built-in convergence-table specifications and their reference data.

Table 1 measures the fourth-order corrected trapezoid approximation of the
unnormalized fractional integral K^alpha for two smooth integrands.  Tables
2 through 10 measure the five time-stepping schemes on the benchmark integral
equations.  Reference error and order columns are stored verbatim; errors are
quoted to two significant digits in most tables, so comparisons use a factor-3
band for errors and a per-table absolute band for orders.

Order measurement convention: the error of a run at step h is the maximum over
the computed nodes (prescribed startup values excluded), and the first printed
row's order is formed against an extra run at step 2h that is not itself
printed.  Orders on rows whose errors sit at the double-precision roundoff
floor are not compared.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .fracint import EndpointDerivatives, UniformGrid, corrected_trapezoid_K
from .problems import BenchmarkProblem, make_problem
from .report import ConvergenceReport, sweep, sweep_steps
# solve stays bound here: perfbench's tracer tests read tables.solve.
from .solver import convergence_sweep, solve  # noqa: F401
from .specfun import gamma, mittag_leffler

__all__ = [
    "TABLE_IDS",
    "TableColumn",
    "TableSpec",
    "table_spec",
    "reproduce_table",
    "check_table",
    "check_reports",
    "exact_K_exp",
    "exact_K_log3",
]

# Errors below this are roundoff-dominated; their order entries are noise.
ROUNDOFF_FLOOR = 5e-14

ERROR_FACTOR = 3.0

# Per-table absolute tolerance on empirical orders vs the reference column.
# Tables 2 and 3 use the wide band: the solution x^1.05 is marginally smooth
# and the observed orders drift slowly.  Table 10 inherits the wide band from
# its first column, where the reference errors are internally inconsistent
# (see check_table) and only the orders carry information.
ORDER_TOL = {1: 0.05, 2: 0.15, 3: 0.15, 4: 0.05, 5: 0.05,
             6: 0.05, 7: 0.05, 8: 0.10, 9: 0.10, 10: 0.15}

TABLE_IDS = tuple(range(1, 11))


# ---------------------------------------------------------------------------
# Table 1: corrected trapezoid quadrature for K^alpha
# ---------------------------------------------------------------------------


def exact_K_exp(alpha: float, x: float) -> float:
    """K^alpha e^t evaluated at x: Gamma(alpha) x^alpha E_{1,1+alpha}(x)."""
    return gamma(alpha) * x**alpha * mittag_leffler(1.0, 1.0 + alpha, x)


def exact_K_log3(alpha: float, x: float) -> float:
    """K^alpha ln(t+3) at x, via the log series ln 3 + sum (-1)^(k+1) (t/3)^k / k
    and the power rule; requires |x| < 3.
    """
    if abs(x) >= 3.0:
        raise ValueError("series evaluation requires |x| < 3")
    acc = math.log(3.0) * x**alpha / gamma(1.0 + alpha)
    k = 1
    while True:
        term = (
            (-1.0) ** (k + 1)
            / (k * 3.0**k)
            * gamma(k + 1.0)
            / gamma(k + 1.0 + alpha)
            * x ** (k + alpha)
        )
        acc += term
        if abs(term) < 1e-18 * (1.0 + abs(acc)):
            break
        k += 1
    return gamma(alpha) * acc


class QuadratureCase(NamedTuple):
    """One subtable of Table 1: a smooth integrand with analytic derivatives."""

    label: str
    alpha: float
    X: float
    f: Callable[[np.ndarray], np.ndarray]
    derivatives: Callable[[float], EndpointDerivatives]
    exact: Callable[[float, float], float]


def _exp_derivs(x: float) -> EndpointDerivatives:
    ex = math.exp(x)
    return EndpointDerivatives(at_zero=(1.0, 1.0, 1.0, 1.0), at_x=(ex,) * 6)


def _log3_derivs(x: float) -> EndpointDerivatives:
    def dn(t: float, n: int) -> float:
        if n == 0:
            return math.log(t + 3.0)
        return (-1.0) ** (n - 1) * math.factorial(n - 1) / (t + 3.0) ** n

    return EndpointDerivatives(
        at_zero=tuple(dn(0.0, n) for n in range(4)),
        at_x=tuple(dn(x, n) for n in range(6)),
    )


_TABLE1_CASES = (
    QuadratureCase(
        label="K^a exp(t), a=0.5, x=2",
        alpha=0.5,
        X=2.0,
        f=np.exp,
        derivatives=_exp_derivs,
        exact=exact_K_exp,
    ),
    QuadratureCase(
        label="K^a ln(t+3), a=0.25, x=1",
        alpha=0.25,
        X=1.0,
        f=lambda x: np.log(x + 3.0),
        derivatives=_log3_derivs,
        exact=exact_K_log3,
    ),
)

_TABLE1_REF = (
    ((1.06e-9, 4.04725), (6.48e-11, 4.03414), (3.98e-12, 4.02694), (2.34e-13, 4.08360)),
    ((2.77e-9, 3.99877), (1.73e-10, 3.99963), (1.08e-11, 3.99977), (6.78e-13, 3.99562)),
)

_TABLE1_H = (0.025, 0.0125, 0.00625, 0.003125)


# ---------------------------------------------------------------------------
# Tables 2-10: time-stepping schemes on the benchmark equations
# ---------------------------------------------------------------------------


class TableColumn(NamedTuple):
    """One (problem, alpha) column of a solver table."""

    problem_kind: str  # one of problems.PROBLEM_KINDS
    param: float  # p for power, the integer m for exp/ml
    alpha: float
    expected: tuple[tuple[float, float], ...]  # (error, order) per row
    # When False the reference error magnitudes are not compared (used for the
    # one column whose reference errors are internally inconsistent with the
    # reference orders); order comparisons stay active.
    compare_errors: bool = True

    def make_problem(self) -> BenchmarkProblem:
        return make_problem(self.problem_kind, self.param, self.alpha)


class TableSpec(NamedTuple):
    table_id: int
    scheme: str
    hs: tuple[float, ...]
    columns: tuple[TableColumn, ...]


_H_FINE = (0.003125, 0.0015625, 0.00078125, 0.000390625)
_H_COARSE = (0.025, 0.0125, 0.00625, 0.003125)


def _col(kind, param, alpha, rows, compare_errors=True):
    return TableColumn(kind, param, alpha, tuple(rows), compare_errors)


_SOLVER_TABLES: dict[int, TableSpec] = {
    2: TableSpec(2, "A", _H_FINE, (
        _col("power", 1.05, 0.25, [(0.1344240, 0.2863), (0.0915092, 0.2799),
                                   (0.0915092, 0.2748), (0.0758594, 0.2706)]),
        _col("power", 1.05, 0.50, [(0.0264388, 0.5148), (0.0185593, 0.5105),
                                   (0.0130559, 0.5074), (0.0091983, 0.5053)]),
        _col("power", 1.05, 0.75, [(0.00525169, 0.7544), (0.00311695, 0.7526),
                                   (0.00185130, 0.7516), (0.00110006, 0.7510)]),
    )),
    3: TableSpec(3, "A", _H_FINE, (
        _col("power", 1.05, 1.25, [(0.00018059, 1.2517), (0.00007588, 1.2509),
                                   (0.00003189, 1.2505), (0.00001341, 1.2503)]),
        _col("power", 1.05, 1.50, [(0.00003093, 1.5082), (0.00001089, 1.5056),
                                   (3.8e-6, 1.5039), (1.4e-6, 1.5027)]),
        _col("power", 1.05, 1.75, [(5.3e-6, 1.7781), (1.5e-6, 1.7733),
                                   (4.5e-7, 1.7692), (1.3e-7, 1.7658)]),
    )),
    4: TableSpec(4, "A1", _H_FINE, (
        _col("power", 4, 0.25, [(0.00015093, 1.2490), (0.00006348, 1.2490),
                                (0.00002670, 1.2500), (0.00001123, 1.2500)]),
        _col("exp", 1, 0.50, [(0.00002066, 1.5000), (7.3e-6, 1.5000),
                              (2.6e-6, 1.5000), (9.1e-7, 1.5000)]),
        _col("ml", 2, 0.75, [(4.8e-7, 1.7500), (1.4e-7, 1.7500),
                             (4.2e-8, 1.7500), (1.3e-8, 1.7500)]),
    )),
    5: TableSpec(5, "A1", _H_FINE, (
        _col("power", 4, 1.25, [(4.2e-7, 2.2510), (8.9e-8, 2.2500),
                                (1.9e-8, 2.2500), (3.9e-9, 2.2500)]),
        _col("exp", 1, 1.50, [(2.1e-8, 2.5010), (3.8e-9, 2.5000),
                              (6.7e-10, 2.5000), (1.2e-10, 2.5000)]),
        _col("ml", 2, 1.75, [(3.8e-10, 2.7580), (5.7e-11, 2.7540),
                             (8.4e-12, 2.7520), (1.3e-12, 2.7510)]),
    )),
    6: TableSpec(6, "A2", _H_COARSE, (
        _col("power", 4, 0.30, [(0.00005799, 2.2727), (0.00001189, 2.2864),
                                (2.4e-6, 2.2932), (4.9e-7, 2.2966)]),
        _col("exp", 2, 0.50, [(5.1e-6, 2.4796), (9.0e-7, 2.4898),
                              (1.6e-7, 2.4949), (2.8e-8, 2.4975)]),
        _col("ml", 2, 0.70, [(3.8e-7, 2.7141), (5.8e-8, 2.7160),
                             (8.8e-9, 2.7095), (1.4e-9, 2.7055)]),
    )),
    7: TableSpec(7, "A2", _H_COARSE, (
        _col("power", 4, 1.30, [(1.4e-6, 3.2791), (1.4e-7, 3.2896),
                                (1.4e-8, 3.2948), (1.4e-9, 3.2974)]),
        _col("exp", 2, 1.50, [(6.4e-8, 3.4899), (5.7e-9, 3.4957),
                              (5.0e-10, 3.4984), (4.4e-11, 3.4995)]),
        _col("ml", 2, 1.70, [(1.6e-8, 3.6762), (1.2e-9, 3.6881),
                             (9.5e-11, 3.6941), (7.3e-12, 3.6970)]),
    )),
    8: TableSpec(8, "A3", _H_COARSE, (
        _col("power", 4, 0.35, [(1.5e-6, 3.3224), (1.5e-7, 3.3369),
                                (1.4e-8, 3.3437), (1.4e-9, 3.3469)]),
        _col("exp", 3, 0.50, [(7.5e-8, 3.4558), (6.8e-9, 3.4784),
                              (6.0e-10, 3.4894), (5.3e-11, 3.4947)]),
        _col("ml", 4, 0.65, [(6.8e-9, 3.8511), (4.7e-10, 3.8689),
                             (3.2e-11, 3.8802), (2.1e-12, 3.8875)]),
    )),
    9: TableSpec(9, "A3", _H_COARSE, (
        _col("power", 4, 1.35, [(2.5e-8, 4.1054), (1.3e-9, 4.2189),
                                (6.9e-11, 4.2743), (3.5e-12, 4.3047)]),
        _col("exp", 3, 1.50, [(8.2e-10, 4.2036), (4.1e-11, 4.3337),
                              (1.9e-12, 4.3980), (8.9e-14, 4.4325)]),
        _col("ml", 4, 1.65, [(1.3e-11, 4.5161), (5.3e-13, 4.5832),
                             (2.2e-14, 4.6179), (8.8e-16, 4.6233)]),
    )),
    10: TableSpec(10, "A4", _H_COARSE, (
        # The reference errors in this column are each one grid halving out of
        # step with the reference orders (E_ref(h) matches the computed error
        # at h/2 to all printed digits), so only orders are compared here.
        _col("power", 4, 0.40, [(1.7e-9, 4.3144), (8.1e-11, 4.3618),
                                (3.9e-12, 4.3819), (1.9e-13, 4.3873)],
             compare_errors=False),
        _col("exp", 4, 0.50, [(1.3e-9, 4.4072), (5.8e-11, 4.4596),
                              (2.6e-12, 4.4813), (1.2e-13, 4.4895)]),
        _col("ml", 9, 0.60, [(1.9e-11, 4.5234), (7.8e-13, 4.5641),
                             (3.3e-14, 4.5884), (1.4e-15, 4.5413)]),
    )),
}


def table_spec(table_id: int) -> TableSpec:
    if table_id not in _SOLVER_TABLES:
        raise KeyError(f"no solver table spec for id {table_id}; valid ids are 2..10")
    return _SOLVER_TABLES[table_id]


# ---------------------------------------------------------------------------
# Reproduction
# ---------------------------------------------------------------------------


def _reproduce_table1() -> list[ConvergenceReport]:
    reports = []
    for case, ref in zip(_TABLE1_CASES, _TABLE1_REF):
        deriv = case.derivatives(case.X)
        target = case.exact(case.alpha, case.X)
        errors = []
        for h in sweep_steps(_TABLE1_H):
            grid = UniformGrid.sample(case.f, case.X, round(case.X / h))
            errors.append(abs(corrected_trapezoid_K(grid, case.alpha, deriv, order=4) - target))
        reports.append(sweep(errors, _TABLE1_H, label=case.label, scheme="trapezoid-4",
                             alpha=case.alpha, expected=list(ref)))
    return reports


def _reproduce_solver_table(spec: TableSpec) -> list[ConvergenceReport]:
    # The columns share the scheme and the steps, so one sweep runs all three.
    problems = [col.make_problem() for col in spec.columns]
    return convergence_sweep(
        problems,
        spec.scheme,
        spec.hs,
        label=[f"Table {spec.table_id}: {p.label}, alpha={col.alpha:g}"
               for p, col in zip(problems, spec.columns)],
        alpha=[col.alpha for col in spec.columns],
        expected=[list(col.expected) for col in spec.columns],
    )


def reproduce_table(table_id: int) -> list[ConvergenceReport]:
    """Run the exact (problem, scheme, alpha, h) combinations of a built-in
    table and return one report per column, with reference values attached.
    """
    if table_id not in TABLE_IDS:
        raise KeyError(f"table_id must be in {TABLE_IDS}")
    if table_id == 1:
        return _reproduce_table1()
    return _reproduce_solver_table(table_spec(table_id))


def check_reports(
    reports: list[ConvergenceReport],
    order_tol: float,
    compare_errors: tuple[bool, ...] | None = None,
    scales: tuple[float, ...] | None = None,
) -> list[str]:
    """Compare computed rows against reference columns.

    Returns a list of human-readable failure messages (empty means pass).
    Error magnitudes must agree within ERROR_FACTOR; orders within order_tol,
    except on rows whose errors sit below ROUNDOFF_FLOOR relative to the
    magnitude of the quantity being approximated (scales, default 1).
    """
    failures = []
    if compare_errors is None:
        compare_errors = (True,) * len(reports)
    if scales is None:
        scales = (1.0,) * len(reports)
    for rep, cmp_err, scale in zip(reports, compare_errors, scales):
        floor = ROUNDOFF_FLOOR * max(1.0, abs(scale))
        for r in rep.rows:
            if r.expected_error is None:
                continue
            if cmp_err:
                ratio = r.max_error / r.expected_error
                if not (1.0 / ERROR_FACTOR <= ratio <= ERROR_FACTOR):
                    failures.append(
                        f"{rep.label}: h={r.h:g} error {r.max_error:.3e} "
                        f"vs reference {r.expected_error:.3e} (factor {ratio:.2f})"
                    )
            if r.max_error < floor or r.expected_error < floor:
                continue
            if abs(r.order - r.expected_order) > order_tol:
                failures.append(
                    f"{rep.label}: h={r.h:g} order {r.order:.4f} "
                    f"vs reference {r.expected_order:.4f} (tol {order_tol})"
                )
    return failures


def check_table(table_id: int) -> tuple[list[ConvergenceReport], list[str]]:
    """Reproduce a table and validate it against the reference data."""
    reports = reproduce_table(table_id)
    if table_id == 1:
        cmp_err: tuple[bool, ...] = (True, True)
        scales = tuple(abs(c.exact(c.alpha, c.X)) for c in _TABLE1_CASES)
    else:
        cmp_err = tuple(c.compare_errors for c in table_spec(table_id).columns)
        scales = None
    failures = check_reports(reports, ORDER_TOL[table_id], cmp_err, scales)
    return reports, failures
