"""Command-line interface: convergence sweeps, built-in table reproduction
and solution-curve emission.

Subcommands:

* sweep: run one (problem, scheme, alpha) combination over a list of steps h
  and report errors and empirical orders.
* table: reproduce a built-in reference table and compare against its stored
  expected columns; exits nonzero if any tolerance check fails.
* curve: emit x, exact solution and per-scheme numerical solution columns as
  CSV, suitable for any plotting tool.

Relative --out paths are resolved against FRACRELAX_OUT_DIR when that
environment variable is set.  A preset file (plain key=value lines, '#'
comments) can seed any sweep/curve option: each key the command has is parsed
as the flag --key=value ahead of the command line, so explicit flags win.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from .fracint import STARTUP_ZEROS, alpha_in_range
from .problems import make_exp_problem, make_ml_problem, make_power_problem, residual_check
from .report import ConvergenceReport
from .solver import convergence_sweep, solve, tabulate
from .tables import TABLE_IDS, check_table

__all__ = ["main", "console_main", "build_parser", "run_sweep", "emit_solution_curve"]

_DEFAULT_H = "0.025,0.0125,0.00625,0.003125"
# the most steps n = X/h one sweep or curve run may take (the README's largest
# documented solve, about 0.4 s)
MAX_STEPS = 2**20


def _load_preset(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"preset line is not key=value: {line!r}")
        key, _, value = line.partition("=")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _resolve_out(out: str | None) -> Path | None:
    if out is None:
        return None
    path = Path(out)
    base = os.environ.get("FRACRELAX_OUT_DIR")
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)


def _make_problem(args) -> object:
    if args.problem == "power":
        return make_power_problem(args.p, args.alpha, X=args.X)
    if args.problem == "exp":
        return make_exp_problem(args.m, args.alpha, X=args.X)
    return make_ml_problem(args.m, args.alpha, X=args.X)


def _parse_h_list(spec: str) -> list[float]:
    hs = [float(tok) for tok in spec.replace(";", ",").split(",") if tok.strip()]
    if not hs:
        raise ValueError("empty h list")
    if any(a <= b for a, b in zip(hs, hs[1:])):
        raise ValueError("h list must be strictly decreasing")
    return hs


def _check_step(h: float, X: float, schemes: Sequence[str] = (), sweep: bool = False) -> None:
    """Refuse a step that is not finite and positive, whose run on [0, X]
    would take more than MAX_STEPS steps, or whose coarsest run takes fewer
    steps than one of the schemes needs.  A sweep's coarsest run is at 2h
    (report.sweep), a curve's at h."""
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"steps must be finite and positive, got {h:g}")
    if X / h > MAX_STEPS:
        raise ValueError(f"step {h:g} takes {X / h:.3g} steps on [0, {X:g}], "
                         f"more than {MAX_STEPS}")
    if not schemes:
        return
    tag = max(schemes, key=STARTUP_ZEROS.__getitem__)
    need = STARTUP_ZEROS[tag] + 2  # the fewest steps solver.solve takes
    coarsest = 2.0 * h if sweep else h
    n = round(X / coarsest)
    if n < need:
        run = f"a sweep's first run, at 2h = {coarsest:g}, takes" if sweep else "it takes"
        raise ValueError(f"step {h:g} is too coarse for [0, {X:g}]: {run} {n} "
                         f"step{'' if n == 1 else 's'}, "
                         f"and scheme {tag} needs at least {need}")


def run_sweep(problem, scheme: str, hs: list[float]) -> ConvergenceReport:
    """Convergence report of the scheme on the problem over the steps hs
    (solver.convergence_sweep).

    The (forcing, exact) pair is rejected when its residual exceeds 1e-6 at
    n=1024 and at n=2048 and does not halve between the two.  A valid pair's
    residual is the check's own quadrature error, which falls by at least
    2^(1+nu) per halving of the step (nu > 0 is the exponent of y at 0) but
    can exceed any absolute bound when y is large or barely smooth at 0; a
    wrong pair leaves a residual that does not fall.
    """
    res = residual_check(problem, samples=8, n=1024)
    if res > 1e-6:
        res2 = residual_check(problem, samples=8, n=2048)
        if res2 > 1e-6 and res2 > res / 2.0:
            raise ValueError(
                f"problem failed residual check: {res2:.3e} at n=2048, "
                f"{res:.3e} at n=1024"
            )
    return convergence_sweep(problem, scheme, hs, label=problem.label, alpha=problem.alpha)


def emit_solution_curve(problem, schemes: list[str], h: float) -> str:
    """CSV with columns x, exact and one numerical-solution column per scheme."""
    n = round(problem.X / h)
    x = np.linspace(0.0, problem.X, n + 1)
    problem = tabulate(problem, [x])
    cols = [problem.exact(x)]
    for tag in schemes:
        cols.append(solve(problem, tag, n).values)
    header = "x,exact," + ",".join(f"u_{tag}" for tag in schemes)
    lines = [header]
    for i in range(n + 1):
        lines.append(f"{x[i]:.10g}," + ",".join(f"{c[i]:.10e}" for c in cols))
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracrelax",
        description="Convergence sweeps and reference tables for the "
        "fractional relaxation-oscillation integral equation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_scheme_list=False):
        p.add_argument("--preset", help="key=value preset file seeding the options below")
        p.add_argument("--problem", choices=("power", "exp", "ml"), default="power")
        p.add_argument("--alpha", type=float, default=0.5)
        p.add_argument("--p", type=float, default=4.0, help="exponent for the power problem")
        p.add_argument("--m", type=int, default=2, help="remainder degree for exp/ml problems")
        p.add_argument("--X", type=float, default=1.0, help="right endpoint of the interval")
        p.add_argument("--format", choices=("csv", "json", "md", "markdown"), default="csv")
        p.add_argument("--out", help="output path (stdout when omitted); relative "
                       "paths honor FRACRELAX_OUT_DIR")
        if with_scheme_list:
            p.add_argument("--scheme", default="A,A1",
                           help="comma-separated scheme tags (default A,A1)")
        else:
            p.add_argument("--scheme", choices=tuple(STARTUP_ZEROS), default="A1")

    p_sweep = sub.add_parser("sweep", help="convergence sweep over a list of steps")
    add_common(p_sweep)
    p_sweep.add_argument("--h-list", default=_DEFAULT_H,
                         help="comma-separated decreasing steps")

    p_table = sub.add_parser("table", help="reproduce a built-in reference table")
    p_table.add_argument("table_id", type=int, choices=TABLE_IDS)
    p_table.add_argument("--format", choices=("csv", "json", "md", "markdown"), default="md")
    p_table.add_argument("--out", help="output path (stdout when omitted)")

    p_curve = sub.add_parser("curve", help="emit exact and numerical solution columns")
    add_common(p_curve, with_scheme_list=True)
    p_curve.add_argument("--h", type=float, default=0.05)

    return parser


@functools.cache
def _main_parser() -> argparse.ArgumentParser:
    """The parser main uses, built on main's first call and then kept:
    building one costs about ten parses, and a parse leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _main_parser()
    args = parser.parse_args(argv)
    if getattr(args, "preset", None):
        preset = [f"--{key.replace('_', '-')}={value}"
                  for key, value in _load_preset(args.preset).items() if hasattr(args, key)]
        args = parser.parse_args([args.command, *preset, *argv[1:]])
    out = _resolve_out(getattr(args, "out", None))

    if args.command == "table":
        reports, failures = check_table(args.table_id)
        text = "".join(r.render(args.format) + "\n" for r in reports)
        _emit(text, out)
        if failures:
            for msg in failures:
                print("TOLERANCE FAILURE:", msg, file=sys.stderr)
            return 1
        return 0

    if not alpha_in_range(args.alpha):
        parser.error(f"--alpha must lie in (0,1) or (1,2), with 1 - alpha != 1, "
                     f"got {args.alpha:g}")
    if not args.X > 0.0:
        parser.error(f"--X must be positive, got {args.X:g}")
    if not (math.isfinite(args.X) and math.isfinite(args.p)):
        raise ValueError(f"--X and --p must be finite, got {args.X:g} and {args.p:g}")

    if args.command == "sweep":
        hs = _parse_h_list(args.h_list)
        for h in hs:
            _check_step(h, args.X)
        _check_step(hs[0], args.X, [args.scheme], sweep=True)
        report = run_sweep(_make_problem(args), args.scheme, hs)
        _emit(report.render(args.format), out)
        return 0

    # curve
    schemes = [tok.strip() for tok in args.scheme.split(",")]
    for tag in schemes:
        if tag not in STARTUP_ZEROS:
            parser.error(f"unknown scheme tag {tag!r}")
    _check_step(args.h, args.X, schemes)
    _emit(emit_solution_curve(_make_problem(args), schemes, args.h), out)
    return 0


def console_main(argv: list[str] | None = None) -> int:
    """The ``fracrelax`` command: ``main``, with a ``ValueError`` (a malformed
    preset or h list, an infinite X or p, a step that is not finite and
    positive, takes more than MAX_STEPS steps or too few for the scheme, a
    rejected problem, a Mittag-Leffler value the series cannot resolve) or an
    ``OSError`` (a preset or --out path that cannot be read or written)
    reported as one line and exit code 2, as for bad arguments, instead of a
    traceback.  ``main`` itself lets them propagate."""
    try:
        return main(argv)
    except (ValueError, OSError) as exc:
        print(f"fracrelax: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(console_main())
