"""Command-line interface: convergence sweeps, built-in table reproduction
and solution-curve emission.

Subcommands:

* sweep: run one (problem, scheme, alpha) combination over a list of steps h
  and report errors and empirical orders.
* table: reproduce built-in reference tables (several ids, or all) and
  compare against their stored expected columns; exits nonzero if any
  tolerance check fails.
* curve: emit x, exact solution and per-scheme numerical solution columns as
  CSV, suitable for any plotting tool.

The CLI has no step rule of its own: main hands a sweep's or a curve's
steps to solver.plan_runs, which refuses any the runs cannot use, before a
problem is built.

Relative --out paths are resolved against FRACRELAX_OUT_DIR when that
environment variable is set.  A preset file (plain key=value lines, '#'
comments) can seed any sweep/curve option: each key the command has is parsed
as the flag --key=value ahead of the command line, so explicit flags win.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .fracint import STARTUP_ZEROS, alpha_in_range
from .problems import PROBLEM_KINDS, make_problem
from .solver import convergence_sweep, plan_runs, solve, tabulate
from .tables import TABLE_IDS, check_table

__all__ = ["main", "console_main", "build_parser", "emit_solution_curve"]

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
    param = args.p if args.problem == "power" else args.m
    return make_problem(args.problem, param, args.alpha, X=args.X)


def emit_solution_curve(problem, schemes: list[str], h: float) -> str:
    """CSV with columns x, exact and one numerical-solution column per
    scheme.  solver.plan_runs gives the run's n, and refuses a step or a
    scheme tag the run cannot use before anything is evaluated."""
    [n] = plan_runs(problem.X, schemes, [h])
    tab = tabulate([problem], [n])
    idx = tab.index[n]
    cols = [tab.exact[0, idx], *(solve(tab, tag, n)[0].values for tag in schemes)]
    lines = ["x,exact," + ",".join(f"u_{tag}" for tag in schemes)]
    for x, *row in zip(tab.x[idx], *cols):
        lines.append(f"{x:.10g}," + ",".join(f"{v:.10e}" for v in row))
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors are one line, "<prog>: error:
    <message>", and exit code 2, without the usage block.  argparse builds
    the subcommands' parsers with their parent's class, so their prog, and
    the line, names the command: "fracrelax table: error: ..."."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fracrelax",
        description="Convergence sweeps and reference tables for the "
        "fractional relaxation-oscillation integral equation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_scheme_list=False):
        p.add_argument("--preset", help="key=value preset file seeding the options below")
        p.add_argument("--problem", choices=PROBLEM_KINDS, default="power")
        p.add_argument("--alpha", type=float, default=0.5)
        p.add_argument("--p", type=float, default=4.0, help="exponent for the power problem")
        p.add_argument("--m", type=int, default=2, help="remainder degree for exp/ml problems")
        p.add_argument("--X", type=float, default=1.0, help="right endpoint of the interval")
        p.add_argument("--out", help="output path (stdout when omitted); relative "
                       "paths honor FRACRELAX_OUT_DIR")
        if with_scheme_list:
            p.add_argument("--scheme", default="A,A1",
                           help="comma-separated scheme tags (default A,A1)")
        else:
            p.add_argument("--scheme", choices=tuple(STARTUP_ZEROS), default="A1")

    p_sweep = sub.add_parser("sweep", help="convergence sweep over a list of steps")
    add_common(p_sweep)
    p_sweep.add_argument("--format", choices=("csv", "json", "md", "markdown"), default="csv")
    p_sweep.add_argument("--h-list", default=_DEFAULT_H,
                         help="comma-separated decreasing steps")

    p_table = sub.add_parser("table", help="reproduce built-in reference tables")
    p_table.add_argument("table_ids", nargs="+", metavar="ID",
                         help="table ids 1..10, run in the order given, or all")
    p_table.add_argument("--format", choices=("csv", "json", "md", "markdown"), default="md")
    p_table.add_argument("--out", help="output path (stdout when omitted)")

    p_curve = sub.add_parser("curve", help="emit exact and numerical solution columns")
    add_common(p_curve, with_scheme_list=True)
    p_curve.add_argument("--h", type=float, default=0.05)

    return parser


def _command_error(parser: argparse.ArgumentParser, command: str, message: str):
    """Exit 2 with the one line "fracrelax <command>: error: <message>"."""
    parser.exit(2, f"{parser.prog} {command}: error: {message}\n")


def _table_ids(parser: argparse.ArgumentParser, tokens: list[str]) -> list[int]:
    """The ids a table run reproduces, in order: "all" stands for 1..10.  An
    unknown id exits 2 with one line."""
    ids = []
    for tok in tokens:
        if tok == "all":
            ids += TABLE_IDS
        elif tok.isdecimal() and int(tok) in TABLE_IDS:
            ids.append(int(tok))
        else:
            _command_error(parser, "table", f"no table {tok!r}; "
                                            f"the ids are 1..{len(TABLE_IDS)} and all")
    return ids


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """parser.parse_args(argv), with an unknown argument refused in the one
    line of its command: "fracrelax sweep: error: unrecognized arguments:
    --bogus" (argparse's own line names only "fracrelax")."""
    args, extra = parser.parse_known_args(argv)
    if extra:
        _command_error(parser, args.command, f"unrecognized arguments: {' '.join(extra)}")
    return args


@functools.cache
def _main_parser() -> argparse.ArgumentParser:
    """The parser main uses, built on main's first call and then kept:
    building one costs about ten parses, and a parse leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _main_parser()
    args = _parse(parser, argv)
    if getattr(args, "preset", None):
        preset = [f"--{key.replace('_', '-')}={value}"
                  for key, value in _load_preset(args.preset).items() if hasattr(args, key)]
        args = _parse(parser, [args.command, *preset, *argv[1:]])
    out = _resolve_out(getattr(args, "out", None))

    if args.command == "table":
        ids = _table_ids(parser, args.table_ids)
        chunks, failures = [], []
        for table_id in ids:
            reports, failed = check_table(table_id)
            chunks += [r.render(args.format) + "\n" for r in reports]
            failures += [f"table {table_id}: TOLERANCE FAILURE: {msg}" for msg in failed]
        _emit("".join(chunks), out)
        for line in failures:
            print(line, file=sys.stderr)
        return 1 if failures else 0

    if not alpha_in_range(args.alpha):
        _command_error(parser, args.command, f"--alpha must lie in (0,1) or (1,2), "
                                             f"with 1 - alpha != 1, got {args.alpha:g}")
    if not args.X > 0.0:
        _command_error(parser, args.command, f"--X must be positive, got {args.X:g}")

    if args.command == "sweep":
        tags = [args.scheme]
        hs = [float(tok) for tok in args.h_list.replace(";", ",").split(",") if tok.strip()]
    else:
        tags, hs = [tok.strip() for tok in args.scheme.split(",")], [args.h]
        for tag in tags:
            if tag not in STARTUP_ZEROS:
                _command_error(parser, "curve", f"unknown scheme tag {tag!r}")
    # a step the runs cannot use is refused before a problem is built
    plan_runs(args.X, tags, hs, sweep=args.command == "sweep")
    problem = _make_problem(args)
    if args.command == "sweep":
        report = convergence_sweep(problem, args.scheme, hs, label=problem.label,
                                   alpha=problem.alpha)
        _emit(report.render(args.format), out)
    else:
        _emit(emit_solution_curve(problem, tags, args.h), out)
    return 0


def console_main(argv: list[str] | None = None) -> int:
    """The ``fracrelax`` command: ``main``, with a ``ValueError`` (a malformed
    preset or h list; a step that solver.plan_runs refuses: not finite and
    positive, taking more than solver.MAX_STEPS steps, or too coarse for the
    scheme; a problem that its factory refuses, such as a power problem with
    a p that is not finite; a Mittag-Leffler value that cannot be resolved)
    or an ``OSError`` (a preset or --out path that cannot be read or
    written) reported as one line and exit code 2, as for bad arguments,
    instead of a traceback.  ``main`` itself lets them propagate.  The
    Mittag-Leffler arguments of the ml problems (-x^alpha) and of the exp
    forcing (x) are resolved for every accepted alpha and X (the contour
    takes those past the series' reach); the exp problem refuses an X whose
    forcing would overflow, and an alpha whose forcing's Gamma(m+1+alpha)
    would, before any is computed."""
    try:
        return main(argv)
    except (ValueError, OSError) as exc:
        print(f"fracrelax: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(console_main())
