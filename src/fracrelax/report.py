"""Convergence reports: rows of (h, max error, empirical order) with optional
reference columns, rendered as CSV, Markdown or JSON.

sweep_steps plans a sweep's runs, and sweep forms each row's order from the
errors and steps of the row's run and the next coarser one.

Numeric output is deterministic; the timestamp lives in the metadata block
(comment lines in CSV, a field in JSON) and is the only run-dependent value.
"""

from __future__ import annotations

import datetime
import math
from typing import NamedTuple

from . import __version__

__all__ = ["ConvergenceRow", "ConvergenceReport", "empirical_order", "sweep_steps", "sweep"]


def empirical_order(err_coarse: float, err_fine: float,
                    h_coarse: float = 2.0, h_fine: float = 1.0) -> float:
    """Order p of errors E ~ h^p that fall from err_coarse at step h_coarse to
    err_fine at step h_fine: log2(E_coarse/E_fine) / log2(h_coarse/h_fine).
    The default steps are one grid halving, whose log2 ratio is exactly 1."""
    return math.log2(err_coarse / err_fine) / math.log2(h_coarse / h_fine)


class ConvergenceRow(NamedTuple):
    h: float
    max_error: float
    order: float | None
    expected_error: float | None = None
    expected_order: float | None = None


class ConvergenceReport:
    """Rows ordered by h descending, with the metadata every rendering
    carries; the timestamp defaults to now (UTC).  A plain class: a
    dataclass compiles its generated methods on every import."""

    def __init__(self, label: str, scheme: str, alpha: float,
                 rows: list[ConvergenceRow] | None = None, timestamp: str | None = None,
                 version: str = __version__):
        rows = [] if rows is None else rows
        hs = [r.h for r in rows]
        if hs != sorted(hs, reverse=True):
            raise ValueError("rows must be ordered by h descending")
        if timestamp is None:
            timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        self.label, self.scheme, self.alpha, self.rows = label, scheme, alpha, rows
        self.timestamp, self.version = timestamp, version

    # -- rendering ----------------------------------------------------------

    @staticmethod
    def _num(v: float | None) -> str:
        return "" if v is None else f"{v:.6e}"

    def _meta_items(self) -> list[tuple[str, str]]:
        return [
            ("label", self.label),
            ("scheme", self.scheme),
            ("alpha", f"{self.alpha:g}"),
            ("version", self.version),
            ("timestamp", self.timestamp),
        ]

    def to_csv(self) -> str:
        lines = [f"# {k}={v}" for k, v in self._meta_items()]
        lines.append("h,max_error,order,expected_error,expected_order")
        for r in self.rows:
            lines.append(
                ",".join(
                    [
                        f"{r.h:.10g}",
                        self._num(r.max_error),
                        "" if r.order is None else f"{r.order:.6f}",
                        self._num(r.expected_error),
                        "" if r.expected_order is None else f"{r.expected_order:.6f}",
                    ]
                )
            )
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        has_expected = any(r.expected_error is not None for r in self.rows)
        head = f"**{self.label}** (scheme {self.scheme}, alpha={self.alpha:g})\n\n"
        if has_expected:
            lines = [
                "| h | Error | Order | Ref. error | Ref. order |",
                "|---|-------|-------|-----------|-----------|",
            ]
        else:
            lines = ["| h | Error | Order |", "|---|-------|-------|"]
        for r in self.rows:
            cells = [
                f"{r.h:.10g}",
                f"{r.max_error:.3e}",
                "" if r.order is None else f"{r.order:.4f}",
            ]
            if has_expected:
                cells += [
                    "" if r.expected_error is None else f"{r.expected_error:.3e}",
                    "" if r.expected_order is None else f"{r.expected_order:.4f}",
                ]
            lines.append("| " + " | ".join(cells) + " |")
        return head + "\n".join(lines) + "\n"

    def to_json(self) -> str:
        # imported here: json costs about 3 ms, and only this output needs it
        import json

        obj = {
            **dict(self._meta_items()),
            "alpha": self.alpha,
            "rows": [
                {
                    "h": r.h,
                    "max_error": r.max_error,
                    "order": r.order,
                    "expected_error": r.expected_error,
                    "expected_order": r.expected_order,
                }
                for r in self.rows
            ],
        }
        return json.dumps(obj, indent=2) + "\n"

    def render(self, fmt: str) -> str:
        fmt = fmt.lower()
        if fmt == "csv":
            return self.to_csv()
        if fmt in ("md", "markdown"):
            return self.to_markdown()
        if fmt == "json":
            return self.to_json()
        raise ValueError(f"unknown format {fmt!r}")


def sweep_steps(hs) -> list[float]:
    """The steps a sweep over hs runs: [2*hs[0], *hs], whose extra coarsest
    run, not itself reported, gives the first row its order.  hs must be
    non-empty, strictly decreasing, finite and positive (ValueError)."""
    hs = list(hs)
    if not hs:
        raise ValueError("empty h list")
    if any(not a > b for a, b in zip(hs, hs[1:])):
        raise ValueError("h list must be strictly decreasing")
    for h in hs:
        if not (math.isfinite(h) and h > 0.0):
            raise ValueError(f"steps must be finite and positive, got {h:g}")
    return [2.0 * hs[0], *hs]


def sweep(errors, hs, label: str, scheme: str, alpha: float,
          expected: list[tuple[float, float]] | None = None) -> ConvergenceReport:
    """Convergence report over the decreasing steps hs.

    errors holds the error of one run at each step of sweep_steps(hs).  Each
    row takes its empirical order from the next coarser run and the ratio of
    the two steps.  expected holds one (error, order) reference pair per row.
    An error that is 0 or not finite, such as that of a solution that
    underflows to 0 on every node, gives no order: ValueError names its step.
    """
    steps = sweep_steps(hs)
    for h, err in zip(steps, errors, strict=True):
        if not 0.0 < err < math.inf:
            raise ValueError(f"{label}: the error at step {h:g} is {err:g}, "
                             "which gives no order")
    refs = [(None, None)] * (len(steps) - 1) if expected is None else expected
    runs = zip(steps[:-1], steps[1:], errors[:-1], errors[1:], refs, strict=True)
    rows = [ConvergenceRow(h, err, empirical_order(coarse, err, h_coarse, h), *ref)
            for h_coarse, h, coarse, err, ref in runs]
    return ConvergenceReport(label=label, scheme=scheme, alpha=alpha, rows=rows)
