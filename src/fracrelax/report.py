"""Convergence reports: rows of (h, max error, empirical order) with optional
reference columns, rendered as CSV, Markdown or JSON.

Numeric output is deterministic; the timestamp lives in the metadata block
(comment lines in CSV, a field in JSON) and is the only run-dependent value.
"""

from __future__ import annotations

import datetime
import json
import math
from dataclasses import dataclass, field
from typing import Callable

from . import __version__

__all__ = ["ConvergenceRow", "ConvergenceReport", "empirical_order", "sweep"]


def empirical_order(err_coarse: float, err_fine: float) -> float:
    """Order under grid halving: log2(E(h)/E(h/2))."""
    return math.log2(err_coarse / err_fine)


@dataclass(frozen=True)
class ConvergenceRow:
    h: float
    max_error: float
    order: float | None
    expected_error: float | None = None
    expected_order: float | None = None


@dataclass
class ConvergenceReport:
    label: str
    scheme: str
    alpha: float
    rows: list[ConvergenceRow] = field(default_factory=list)
    timestamp: str = field(
        default_factory=lambda: datetime.datetime.now(datetime.timezone.utc).isoformat()
    )
    version: str = __version__

    def __post_init__(self):
        hs = [r.h for r in self.rows]
        if hs != sorted(hs, reverse=True):
            raise ValueError("rows must be ordered by h descending")

    @staticmethod
    def from_errors(
        label: str,
        scheme: str,
        alpha: float,
        hs: list[float],
        errors: list[float],
        expected: list[tuple[float, float]] | None = None,
        first_order: float | None = None,
    ) -> "ConvergenceReport":
        rows = []
        for i, (h, err) in enumerate(zip(hs, errors)):
            order = first_order if i == 0 else empirical_order(errors[i - 1], err)
            exp_err, exp_ord = expected[i] if expected is not None else (None, None)
            rows.append(
                ConvergenceRow(
                    h=h, max_error=err, order=order,
                    expected_error=exp_err, expected_order=exp_ord,
                )
            )
        return ConvergenceReport(label=label, scheme=scheme, alpha=alpha, rows=rows)

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


def sweep(error_at_h: Callable[[float], float], hs, **report_fields) -> ConvergenceReport:
    """Convergence report over the decreasing steps hs.

    error_at_h(h) is the error of one run at step h.  An extra run at step
    2*hs[0], not itself reported, supplies the first row's empirical order.
    report_fields (label, scheme, alpha, expected) pass to
    ConvergenceReport.from_errors.
    """
    hs = list(hs)
    errs = [error_at_h(h) for h in [2.0 * hs[0]] + hs]
    return ConvergenceReport.from_errors(
        hs=hs, errors=errs[1:], first_order=empirical_order(errs[0], errs[1]), **report_fields
    )
