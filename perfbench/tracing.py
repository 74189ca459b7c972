"""Span tracing from outside the program.

The tracer wraps the public functions of each fracrelax layer at every module
attribute that binds them (``problems.mittag_leffler``, ``tables.solve``,
``cli.solve`` and so on), records one span per call and counts at the same
boundary, and puts every original attribute back on ``uninstall``.  No code of
the package is edited: a function looked up through a module global at call
time picks up the wrapper, which is how every call site in fracrelax reaches
these functions.

A span is ``[name, start, end, parent, op]``: ``parent`` indexes the enclosing
span (-1 at the top) and ``op`` is the workload op that caused it.  Spans are
kept in memory for one pass and summarised by ``pass_metrics``.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import sys
import time
from collections import Counter

# Layer modules whose functions are wrapped, in the order the package defines
# them; ``fracrelax`` itself re-exports most of them.
LAYER_MODULES = ("specfun", "fracint", "solver", "problems", "report", "tables", "cli")

# Bytes the O(n^2) history sum reads per multiply-add: one solution value and
# one weight, both float64.  Used for the computed solver.history_bytes.
BYTES_PER_MADD = 16


class Tracer:
    """Records spans and counts around the wrapped layer functions."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.ml_params: set[tuple[float, float]] = set()
        self.headroom: dict[int, tuple[float, float]] = {}
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """Return fn wrapped in a span called name.

        after(tracer, args, kwargs, result) runs after a normal return and
        returns the result handed back to the caller; on an exception it is
        called with result=None and error set, and the exception propagates.
        """
        tracer = self
        clock = time.perf_counter
        calls = name + ".calls"

        def traced(*args, **kwargs):
            spans = tracer.spans
            stack = tracer._stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(rec)
            tracer.counts[calls] += 1
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[2] = clock()
                stack.pop()
                if after is not None:
                    after(tracer, args, kwargs, None, error=True)
                raise
            rec[2] = clock()
            stack.pop()
            if after is not None:
                result = after(tracer, args, kwargs, result, error=False)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def reset(self) -> None:
        """Drop the spans and counts of the previous pass."""
        self.spans = []
        self._stack = []
        self.counts = Counter()
        self.ml_params = set()
        self.headroom = {}

    # -- installing ---------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target function at every fracrelax module attribute
        bound to it.  A target the package lacks is an error, so that a moved
        or renamed function fails the traced run instead of reading zero.
        """
        mods = [importlib.import_module("fracrelax")]
        mods += [importlib.import_module(f"fracrelax.{m}") for m in LAYER_MODULES]
        mods += [m for name, m in sorted(sys.modules.items())
                 if name.startswith("fracrelax.") and m not in mods]
        for layer, func, after in _TARGETS:
            original = getattr(sys.modules[f"fracrelax.{layer}"], func, None)
            if original is None:
                raise RuntimeError(f"fracrelax.{layer} has no {func} to trace")
            wrapped = self.wrap(f"{layer}.{func}", original, after)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)
        report_cls = getattr(sys.modules["fracrelax.report"], "ConvergenceReport", None)
        if report_cls is None or "render" not in vars(report_cls):
            raise RuntimeError("fracrelax.report has no ConvergenceReport.render to trace")
        self._patch(report_cls, "render",
                    self.wrap("report.render", report_cls.render, _after_render))

    def uninstall(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# -- hooks run after a wrapped call ------------------------------------------


def _after_ml(tracer, args, kwargs, result, error):
    alpha = kwargs.get("alpha", args[0] if args else None)
    beta = kwargs.get("beta", args[1] if len(args) > 1 else None)
    tracer.ml_params.add((alpha, beta))
    return result


def _after_points(tracer, args, kwargs, result, error):
    if args:
        tracer.counts["problems.points"] += int(getattr(args[0], "size", 1))
    return result


def _after_factory(tracer, args, kwargs, result, error):
    # Problems carry forcing and exact as closures; wrap them on the instance
    # the factory returns so their calls show as problems.forcing/exact spans.
    if error or not dataclasses.is_dataclass(result):
        return result
    return dataclasses.replace(
        result,
        forcing=tracer.wrap("problems.forcing", result.forcing, _after_points),
        exact=tracer.wrap("problems.exact", result.exact, _after_points),
    )


def _after_solve(tracer, args, kwargs, result, error):
    if not error:
        n = int(kwargs["n"] if "n" in kwargs else args[2])
        madds = n * (n - 1) // 2
        tracer.counts["solver.nodes"] += n
        tracer.counts["solver.history_madds"] += madds
        tracer.counts["solver.history_bytes"] += BYTES_PER_MADD * madds
    return result


def _after_check_table(tracer, args, kwargs, result, error):
    if not error:
        table_id = int(kwargs.get("table_id", args[0] if args else 0))
        reports, failures = result
        tracer.counts["tables.failures"] += len(failures)
        tracer.headroom[table_id] = table_headroom(table_id, reports)
    return result


def _after_render(tracer, args, kwargs, result, error):
    if not error:
        tracer.counts["report.bytes"] += len(result)
    return result


def _after_main(tracer, args, kwargs, result, error):
    if error or result != 0:
        tracer.counts["cli.nonzero_exits"] += 1
    return result


# (layer module, function, hook).  Only these are wrapped: wrapping gamma,
# called about 565k times per table pass, would cost more than it measures.
_TARGETS = (
    ("specfun", "mittag_leffler", _after_ml),
    ("specfun", "zeta", None),
    ("fracint", "scheme_coefficients", None),
    ("fracint", "power_weights", None),
    ("fracint", "corrected_sum_I", None),
    ("fracint", "corrected_trapezoid_K", None),
    ("problems", "make_power_problem", _after_factory),
    ("problems", "make_exp_problem", _after_factory),
    ("problems", "make_ml_problem", _after_factory),
    ("problems", "residual_check", None),
    ("solver", "solve", _after_solve),
    ("solver", "max_error", None),
    ("tables", "check_table", _after_check_table),
    ("cli", "main", _after_main),
)


# -- table headroom ----------------------------------------------------------


def table_headroom(table_id: int, reports) -> tuple[float, float]:
    """Worst error ratio and worst order deviation of one checked table.

    err: max over compared rows of max(r, 1/r) / ERROR_FACTOR, r = error over
    reference error.  order: max of |order - ref| / ORDER_TOL[table], skipping
    rows below the roundoff floor as ``tables.check_reports`` does.  Values
    above 1 are tolerance failures.
    """
    from fracrelax import tables

    if table_id == 1:
        compare = (True,) * len(reports)
        # check_table scales table 1's floor by the magnitude of its target
        scales = tuple(abs(c.exact(c.alpha, c.X)) for c in tables._TABLE1_CASES)
    else:
        compare = tuple(c.compare_errors for c in tables.table_spec(table_id).columns)
        scales = (1.0,) * len(reports)
    order_tol = tables.ORDER_TOL[table_id]
    worst_err = worst_order = 0.0
    for rep, cmp_err, scale in zip(reports, compare, scales):
        floor = tables.ROUNDOFF_FLOOR * max(1.0, abs(scale))
        for r in rep.rows:
            if r.expected_error is None:
                continue
            if cmp_err:
                ratio = r.max_error / r.expected_error
                worst_err = max(worst_err, max(ratio, 1.0 / ratio) / tables.ERROR_FACTOR)
            if r.max_error < floor or r.expected_error < floor:
                continue
            worst_order = max(worst_order, abs(r.order - r.expected_order) / order_tol)
    return worst_err, worst_order


# -- summaries ---------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Per span: its duration minus the durations of its direct children.

    Spans come from one thread's call stack, so every child lies inside its
    parent and siblings never overlap.
    """
    out = [end - start for name, start, end, parent, op in spans]
    for name, start, end, parent, op in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


# Per-layer metrics of one pass, in the order they are reported.
LAYER_METRICS = (
    ("specfun.mittag_leffler.calls", "count"),
    ("specfun.mittag_leffler.self_s", "s"),
    ("specfun.mittag_leffler.params", "count"),
    ("specfun.mittag_leffler.calls_per_param", "count"),
    ("specfun.zeta.calls", "count"),
    ("specfun.zeta.self_s", "s"),
    ("problems.forcing.self_s", "s"),
    ("problems.exact.self_s", "s"),
    ("problems.points", "count"),
    ("problems.residual_check.self_s", "s"),
    ("fracint.scheme_coefficients.calls", "count"),
    ("fracint.scheme_coefficients.self_s", "s"),
    ("fracint.power_weights.self_s", "s"),
    ("fracint.corrected_sum_I.calls", "count"),
    ("fracint.corrected_sum_I.self_s", "s"),
    ("fracint.corrected_trapezoid_K.self_s", "s"),
    ("solver.solve.calls", "count"),
    ("solver.solve.self_s", "s"),
    ("solver.nodes", "count"),
    ("solver.history_madds", "count"),
    ("solver.history_bytes", "B"),
    ("solver.max_error.self_s", "s"),
    ("tables.check_table.self_s", "s"),
    ("tables.failures", "count"),
    ("tables.err_headroom", "ratio"),
    ("tables.order_headroom", "ratio"),
    *((f"tables.t{t}.{kind}_headroom", "ratio") for t in range(1, 11)
      for kind in ("err", "order")),
    ("report.render.calls", "count"),
    ("report.render.self_s", "s"),
    ("report.bytes", "B"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.nonzero_exits", "count"),
    ("trace.self_sum_s", "s"),
)


def pass_metrics(tracer: Tracer) -> dict[str, float]:
    """Summarise the spans and counts recorded since the last reset."""
    selfs: Counter = Counter()
    for rec, own in zip(tracer.spans, self_times(tracer.spans)):
        selfs[rec[0]] += own
    out: dict[str, float] = {}
    for name, unit in LAYER_METRICS:
        if name.endswith(".self_s"):
            out[name] = selfs[name[: -len(".self_s")]]
        else:
            out[name] = float(tracer.counts[name])
    params = len(tracer.ml_params)
    out["specfun.mittag_leffler.params"] = float(params)
    out["specfun.mittag_leffler.calls_per_param"] = (
        out["specfun.mittag_leffler.calls"] / params if params else 0.0)
    for t, (err, order) in tracer.headroom.items():
        out[f"tables.t{t}.err_headroom"] = err
        out[f"tables.t{t}.order_headroom"] = order
    if tracer.headroom:
        out["tables.err_headroom"] = max(e for e, _ in tracer.headroom.values())
        out["tables.order_headroom"] = max(o for _, o in tracer.headroom.values())
    out["trace.self_sum_s"] = math.fsum(selfs.values())
    return out
