"""The benchmark's workloads: seeded op lists, how each op runs, and the check
of each op's output.

Every op goes through the package's public entry points, looked up on their
module at call time so that a tracer's wrappers see the call:

* ``tables``: ``cli.main(["table", id, "--format", "json", "--out", path])``
  for all ten reference tables; the seed only permutes their order.
* ``long_solve``: ``solve`` of the power problem at n = 2^14 and 2^15, one op
  per scheme, with parameters drawn from a stored catalogue whose reference
  errors (``long_solve_refs.json``) give each op its band.
* ``cli_scan``: ``cli.main(["sweep", ...])`` and ``cli.main(["curve", ...])``.
  Each op draws its own alpha, X, m and scheme inside one cell of a fixed grid
  of (family, alpha range, X range) cells.  The cells are narrow because the
  cost of an op grows steeply as alpha falls and X grows: they fix what a pass
  costs, so that seeds compare, while the draws inside them still give every
  op a fresh (alpha, beta) for the Mittag-Leffler function.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFS_FILE = HERE / "long_solve_refs.json"

WORKLOADS = ("tables", "long_solve", "cli_scan")

SCHEME_TAGS = ("A", "A1", "A2", "A3", "A4")
# Prescribed startup values beyond u_0 per scheme; their error is the exact
# solution itself, so max_error skips them (the paper's convention).
STARTUP_ZEROS = {"A": 0, "A1": 0, "A2": 0, "A3": 1, "A4": 2}

# long_solve pass: one solve per scheme; this many of them run at 2^15.
LONG_N = (2**14, 2**15)
LONG_BIG_PER_PASS = 1

# cli_scan cells: (family, alpha range, X range, m range); power problems draw
# p from P_RANGE instead of m.  The first cell lies where the CLI's residual
# check rejects valid ml problems (m = 2, alpha below about 0.15), so that
# known defect fails one sweep in every pass, the same on every seed.  The
# same check also rejects exp problems with m = 0 at large X; the exp cell
# starts at m = 1 so that the number of failures does not depend on the seed.
# The last cell reaches |z| = X^alpha up to about 56 in the Mittag-Leffler
# calls.
CLI_CELLS = (
    ("ml", (0.100, 0.102), (1.00, 1.02), (2, 2)),
    ("ml", (0.700, 0.705), (1.00, 1.02), (2, 5)),
    ("exp", (0.600, 0.605), (6.20, 6.26), (1, 12)),
    ("power", (0.85, 0.95), (1.0, 8.0), None),
    ("ml", (1.250, 1.255), (2.00, 2.02), (2, 5)),
    ("ml", (1.940, 1.945), (7.90, 7.95), (2, 5)),
)
P_RANGE = (0.5, 5.0)
CURVE_H = (0.1, 0.08, 0.05)


@dataclass(frozen=True)
class Op:
    """One call into the program.  argv is set for CLI ops; the solve fields
    for long_solve ops, whose max error must lie in err_band."""

    kind: str  # "table", "sweep", "curve" or "solve"
    argv: tuple[str, ...] = ()
    p: float = 0.0
    alpha: float = 0.0
    scheme: str = ""
    n: int = 0
    ref: float = 0.0
    err_band: tuple[float, float] = (0.0, 0.0)


@dataclass
class Outcome:
    """What one op did: failed (exception, nonzero exit, or a bad output),
    wrong (its output failed the check), a digest of its output, and why."""

    failed: bool
    wrong: bool
    digest: str
    why: str = ""


def load_refs() -> dict:
    return json.loads(REFS_FILE.read_text())


def ref_key(scheme: str, n: int, alpha: float, p: float) -> str:
    return f"{scheme}/{n}/{alpha:g}/{p:g}"


def make_ops(workload: str, seed: int) -> list[Op]:
    """The fixed op list of one pass; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "tables":
        ids = list(range(1, 11))
        rng.shuffle(ids)
        return [Op("table", ("table", str(t), "--format", "json")) for t in ids]
    if workload == "long_solve":
        refs = load_refs()
        alphas = refs["alphas"]
        lo = [a for a in alphas if a < 1.0]
        hi = [a for a in alphas if a > 1.0]
        schemes = list(SCHEME_TAGS)
        rng.shuffle(schemes)
        sizes = [LONG_N[1]] * LONG_BIG_PER_PASS
        sizes += [LONG_N[0]] * (len(schemes) - LONG_BIG_PER_PASS)
        rng.shuffle(sizes)
        # both alpha ranges in every pass
        ranges = [lo, hi] + [rng.choice((lo, hi)) for _ in schemes[2:]]
        rng.shuffle(ranges)
        ops = []
        for scheme, n, pool in zip(schemes, sizes, ranges):
            alpha = rng.choice(pool)
            p = rng.choice(refs["ps"])
            ref = refs["errors"][ref_key(scheme, n, alpha, p)]
            if ref < refs["floor"]:
                band = (0.0, refs["floor"])  # roundoff: an absolute floor
            else:
                band = (ref / refs["factor"], ref * refs["factor"])
            ops.append(Op("solve", p=p, alpha=alpha, scheme=scheme, n=n, ref=ref,
                          err_band=band))
        return ops
    if workload == "cli_scan":
        ops = []
        for family, (a_lo, a_hi), (x_lo, x_hi), m_range in CLI_CELLS:
            for kind in ("sweep", "curve"):
                alpha = rng.uniform(a_lo, a_hi)
                X = rng.uniform(x_lo, x_hi)
                argv = [kind, "--problem", family, "--alpha", repr(alpha), "--X", repr(X)]
                if m_range is None:
                    argv += ["--p", repr(rng.uniform(*P_RANGE))]
                else:
                    argv += ["--m", str(rng.randint(*m_range))]
                if kind == "sweep":
                    argv += ["--scheme", rng.choice(SCHEME_TAGS), "--format", "json"]
                else:
                    argv += ["--scheme", ",".join(sorted(rng.sample(SCHEME_TAGS, 2))),
                             "--h", repr(rng.choice(CURVE_H))]
                ops.append(Op(kind, tuple(argv)))
        rng.shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# -- running one op ------------------------------------------------------------


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _json_objects(text: str) -> list[dict]:
    dec = json.JSONDecoder()
    objs, i = [], 0
    while True:
        while i < len(text) and text[i].isspace():
            i += 1
        if i == len(text):
            return objs
        obj, i = dec.raw_decode(text, i)
        objs.append(obj)


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


def _check_reports(text: str, need_reference: bool) -> tuple[str, str]:
    """Problem with a JSON convergence report ('' if none), and its digest
    without the timestamp, the one field that changes from run to run."""
    objs = _json_objects(text)
    if not objs:
        return "no report", ""
    for obj in objs:
        rows = obj.get("rows") or []
        if not rows:
            return f"{obj.get('label')}: no rows", ""
        for r in rows:
            if not (_finite(r.get("max_error")) and _finite(r.get("order"))):
                return f"{obj.get('label')}: non-finite row {r}", ""
            if need_reference and r.get("expected_error") is None:
                return f"{obj.get('label')}: row without reference", ""
        obj.pop("timestamp", None)
    return "", _digest(json.dumps(objs, sort_keys=True))


def _check_curve(text: str) -> tuple[str, str]:
    lines = text.splitlines()
    if len(lines) < 3 or not lines[0].startswith("x,exact,"):
        return "curve output has no rows", ""
    vals = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    if not np.all(np.isfinite(vals)):
        return "non-finite curve value", ""
    return "", _digest(text)


def run_op(op: Op, out_dir: Path) -> Outcome:
    """Run one op through the program and check what it produced."""
    # imported here: run.py imports this module where the package may be absent
    import fracrelax
    from fracrelax import cli

    if op.kind == "solve":
        problem = fracrelax.problems.make_power_problem(op.p, op.alpha)
        u = fracrelax.solver.solve(problem, op.scheme, op.n)
        vals = np.asarray(u.values, dtype=float)
        if not np.all(np.isfinite(vals)):
            return Outcome(True, True, "", "non-finite solution")
        err = fracrelax.solver.max_error(u, problem.exact, skip=STARTUP_ZEROS[op.scheme])
        ok = op.err_band[0] <= err <= op.err_band[1]
        digest = hashlib.sha256(vals.tobytes()).hexdigest()[:16]
        why = "" if ok else f"error {err:.3e} outside band of reference {op.ref:.3e}"
        return Outcome(not ok, not ok, digest, why)

    out = out_dir / f"{op.kind}.out"
    try:
        rc = cli.main([*op.argv, "--out", str(out)])
    except SystemExit as exc:  # the CLI rejected its arguments
        rc = exc.code if isinstance(exc.code, int) else 1
    if rc != 0:
        # a table exits nonzero when a tolerance check fails: a wrong output
        return Outcome(True, op.kind == "table", "", f"exit code {rc}")
    text = out.read_text()
    try:
        if op.kind == "curve":
            why, digest = _check_curve(text)
        else:
            why, digest = _check_reports(text, need_reference=op.kind == "table")
    except ValueError as exc:  # output that does not parse
        why, digest = f"unreadable output: {exc}", ""
    return Outcome(bool(why), bool(why), digest, why)


def describe(op: Op) -> str:
    if op.kind == "solve":
        return f"solve power p={op.p:g} alpha={op.alpha:g} {op.scheme} n={op.n}"
    return " ".join(op.argv)
