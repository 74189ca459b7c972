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
comments) can seed any sweep/curve option; explicit flags win.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .fracint import STARTUP_ZEROS, alpha_in_range
from .problems import make_exp_problem, make_ml_problem, make_power_problem, residual_check
from .report import ConvergenceReport, sweep
from .solver import max_error, solve
from .tables import TABLE_IDS, check_table

__all__ = ["main", "console_main", "build_parser", "run_sweep", "emit_solution_curve"]

_DEFAULT_H = "0.025,0.0125,0.00625,0.003125"


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
    if args.problem == "ml":
        return make_ml_problem(args.m, args.alpha, X=args.X)
    raise ValueError(f"unknown problem {args.problem!r}")


def _parse_h_list(spec: str) -> list[float]:
    hs = [float(tok) for tok in spec.replace(";", ",").split(",") if tok.strip()]
    if not hs:
        raise ValueError("empty h list")
    if hs != sorted(hs, reverse=True):
        raise ValueError("h list must be strictly decreasing")
    return hs


def run_sweep(problem, scheme: str, hs: list[float], check_residual: bool = True) -> ConvergenceReport:
    """Solve the problem at every step in hs and assemble a convergence report.

    An extra run at step 2*hs[0] supplies the first row's empirical order.
    """
    if check_residual:
        res = residual_check(problem, samples=8, n=1024)
        if res > 1e-6:
            raise ValueError(f"problem failed residual check: {res:.3e}")
    skip = STARTUP_ZEROS[scheme]

    def error_at_h(h):
        u = solve(problem, scheme, round(problem.X / h))
        return max_error(u, problem.exact, skip=skip)

    return sweep(error_at_h, hs, label=problem.label, scheme=scheme, alpha=problem.alpha)


def emit_solution_curve(problem, schemes: list[str], h: float) -> str:
    """CSV with columns x, exact and one numerical-solution column per scheme."""
    n = round(problem.X / h)
    x = np.linspace(0.0, problem.X, n + 1)
    cols = [np.asarray(problem.exact(x), dtype=float)]
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


def _apply_preset(args: argparse.Namespace, parser: argparse.ArgumentParser, argv: list[str]):
    if not getattr(args, "preset", None):
        return args
    preset = _load_preset(args.preset)
    # preset values fill in anything not given explicitly on the command line
    explicit = {tok.split("=")[0].lstrip("-").replace("-", "_")
                for tok in argv if tok.startswith("--")}
    for key, value in preset.items():
        if key in explicit or not hasattr(args, key):
            continue
        current = getattr(args, key)
        cast = type(current) if current is not None and not isinstance(current, bool) else str
        setattr(args, key, cast(value))
    return args


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
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

    args = _apply_preset(args, parser, argv)
    if not alpha_in_range(args.alpha):
        parser.error(f"--alpha must lie in (0,1) or (1,2), got {args.alpha:g}")
    if not args.X > 0.0:
        parser.error(f"--X must be positive, got {args.X:g}")

    if args.command == "sweep":
        problem = _make_problem(args)
        hs = _parse_h_list(args.h_list)
        report = run_sweep(problem, args.scheme, hs)
        _emit(report.render(args.format), out)
        return 0

    if args.command == "curve":
        problem = _make_problem(args)
        schemes = [tok.strip() for tok in args.scheme.split(",") if tok.strip()]
        for tag in schemes:
            if tag not in STARTUP_ZEROS:
                parser.error(f"unknown scheme tag {tag!r}")
        _emit(emit_solution_curve(problem, schemes, args.h), out)
        return 0

    parser.error(f"unknown command {args.command!r}")
    return 2


def console_main(argv: list[str] | None = None) -> int:
    """The ``fracrelax`` command: ``main``, with a ``ValueError`` (a malformed
    preset or h list, a rejected problem, a Mittag-Leffler value the series
    cannot resolve) reported as one line and exit code 2, as for bad
    arguments, instead of a traceback.  ``main`` itself lets it propagate."""
    try:
        return main(argv)
    except ValueError as exc:
        print(f"fracrelax: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(console_main())
