"""fracrelax benchmark: end-to-end and per-layer metrics of three workloads.

Run from the repository root; the package is imported from ./src:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

Workloads (see workloads.py): ``tables``, ``long_solve`` and ``cli_scan``.
Each runs in fresh child processes with BLAS/OpenMP threads capped at the
number of usable cores.  A child makes one cold pass over the seeded op list,
then warm passes until its share of --seconds is spent.  Every op's output is
checked.

--trace 0 measures the end-to-end metrics with tracing off, over five
children, with fresh-process import timings before each.  --trace 1 runs
an untraced and a traced child for half the time each and reports the
per-layer metrics of the traced passes (medians over passes) and
trace.overhead_s, the traced minus the untraced median pass.  ``all`` runs
every workload both ways.

Output: a metric table, then as the last line one JSON object with the keys
correct, attempted, failed and metrics.  ``correct`` is false when an output
failed its check (a table tolerance failure, a non-finite value, a solve
error outside its band, a warm pass's output differing from the cold pass's,
traced outputs differing from untraced ones); an op
that raises or exits nonzero counts in ``failed``.  The full result, with
the version and machine stamps, the samples and the failure reasons, goes to
.perfbench_out/result-<workload>-seed<seed>-trace<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

# The untraced run splits its time over this many fresh workload processes,
# each making one cold pass, and times `import fracrelax` in this many fresh
# processes before each of them: first_pass_s and setup_s are medians over
# samples spread across the run.
CHILDREN = 5
SETUP_PER_CHILD = 2
# Processes still running this long after a run's measuring time are killed
# and the run fails, so that a run ends within three minutes.
RUN_GRACE_S = 120.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = (
    ("pass_s", "s"),
    ("pass_tail_s", "s"),
    ("first_pass_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (*tracing.LAYER_METRICS, ("trace.overhead_s", "s"), ("fail_frac", "ratio"))

# numpy, the package's one dependency, is imported before the clock starts:
# on a 2-core Xeon host, loading its shared libraries took 0.1-0.17 s and swung
# by half between runs minutes apart, which would drown the package's own
# set-up (about 0.06 s).
_IMPORT_TIMER = (
    "import numpy, time; t = time.perf_counter(); import fracrelax; "
    "dt = time.perf_counter() - t; import json; "
    "print(json.dumps({'s': dt, 'file': fracrelax.__file__}))"
)


class BenchError(RuntimeError):
    """The benchmark could not run the program."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    cap = str(len(os.sched_getaffinity(0)))
    env.update({var: cap for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("FRACRELAX_OUT_DIR", None)
    return env


def measure_setup(env, repeats: int, stop: float) -> list[float]:
    """Wall time of `import fracrelax` in fresh processes."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_TIMER], env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(stop - time.monotonic(), 1.0))
        if proc.returncode != 0:
            raise BenchError(f"import fracrelax failed:\n{proc.stderr.strip()}")
        got = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(got["file"]).resolve().is_relative_to(SRC):
            raise BenchError(f"imported fracrelax from {got['file']}, not from {SRC}")
        samples.append(got["s"])
    return samples


def run_child(env, workload: str, seed: int, deadline: float, trace: int,
              stop: float) -> dict:
    """Run child.py until deadline (a time.monotonic() value); its samples.
    The child is killed at stop."""
    tag = f"{workload}-seed{seed}-trace{trace}"
    result = OUT / f"child-{tag}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--deadline", repr(deadline), "--trace", str(trace),
           "--out-dir", str(OUT / tag), "--result", str(result)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(stop - time.monotonic(), 1.0))
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"{workload} child exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(result.read_text())


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that
    percentile.  With ten samples or fewer there is none; the maximum is
    returned with percentile 100."""
    s = sorted(samples)
    if len(s) <= 10:
        return s[-1], 100.0
    return s[len(s) - 11], 100.0 * (len(s) - 10) / len(s)


def end_to_end(env, workload: str, seed: int, seconds: float) -> dict:
    start = time.monotonic()
    stop = start + seconds + RUN_GRACE_S
    setup, children = [], []
    for i in range(CHILDREN):
        setup += measure_setup(env, SETUP_PER_CHILD, stop)
        deadline = start + seconds * (i + 1) / CHILDREN
        children.append(run_child(env, workload, seed, deadline, 0, stop))
    passes = [p for c in children for p in c["pass_s"]]
    tail_s, tail_pct = tail(passes)
    metrics = {
        "pass_s": statistics.median(passes),
        "pass_tail_s": tail_s,
        "first_pass_s": statistics.median(c["cold_s"] for c in children),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(c["rss_mb"] for c in children),
    }
    notes = {
        "pass_s": f"median of {len(passes)} warm passes",
        "pass_tail_s": f"p{tail_pct:.0f} of {len(passes)} warm passes",
        "first_pass_s": f"median of {len(children)} cold passes in fresh processes",
        "setup_s": f"median of {len(setup)} fresh imports after numpy",
        "peak_rss_mb": f"max resident set over {len(children)} workload processes",
    }
    wrong_extra = []
    if any(c["digests"] != children[0]["digests"] for c in children):
        wrong_extra.append("outputs differ between processes")
    return {"metrics": metrics, "units": dict(END_TO_END), "notes": notes,
            "children": children, "setup_s": setup, "wrong_extra": wrong_extra}


def per_layer(env, workload: str, seed: int, seconds: float) -> dict:
    start = time.monotonic()
    stop = start + seconds + RUN_GRACE_S
    plain = run_child(env, workload, seed, start + seconds / 2, 0, stop)
    traced = run_child(env, workload, seed, start + seconds, 1, stop)
    metrics = {name: statistics.median(p[name] for p in traced["layers"])
               for name, _ in tracing.LAYER_METRICS}
    metrics["trace.overhead_s"] = (statistics.median(traced["pass_s"])
                                   - statistics.median(plain["pass_s"]))
    attempted = plain["attempted"] + traced["attempted"]
    metrics["fail_frac"] = (plain["failed"] + traced["failed"]) / attempted
    wrong_extra = []
    if plain["digests"] != traced["digests"]:
        wrong_extra.append("traced outputs differ from untraced outputs")
    # guards the tracer's nesting: with every span inside its parent the self
    # times sum to the top-level spans, which lie inside the pass
    if max(traced["self_shares"]) > 1.0 + 1e-9:
        wrong_extra.append("layer self times exceed the pass wall time")
    notes = {name: f"median over {len(traced['layers'])} traced passes"
             for name, _ in tracing.LAYER_METRICS}
    notes["trace.self_sum_s"] += f"; max share of pass wall {max(traced['self_shares']):.3f}"
    notes["trace.overhead_s"] = (f"{len(traced['pass_s'])} traced vs "
                                 f"{len(plain['pass_s'])} untraced passes")
    return {"metrics": metrics, "units": dict(PER_LAYER), "notes": notes,
            "children": [plain, traced], "wrong_extra": wrong_extra}


def run_one(env, workload: str, seed: int, seconds: float, trace: int) -> dict:
    res = (per_layer if trace else end_to_end)(env, workload, seed, seconds)
    children = res["children"]
    res["attempted"] = sum(c["attempted"] for c in children)
    res["failed"] = sum(c["failed"] for c in children)
    res["correct"] = not res["wrong_extra"] and not any(c["wrong"] for c in children)
    res["reasons"] = res["wrong_extra"] + sorted({r for c in children for r in c["reasons"]})
    res["stamps"] = children[0]["stamps"]
    res["args"] = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(res, indent=1) + "\n")
    return res


def print_table(workload: str, res: dict) -> None:
    print(f"== {workload} (trace {res['args']['trace']}, seed {res['args']['seed']})")
    for key, val in res["stamps"].items():
        print(f"   {key}: {val}")
    for name, val in res["metrics"].items():
        if name == "fail_frac":
            continue
        note = res["notes"].get(name, "")
        print(f"{name:>40} {val:>14.6g} {res['units'][name]:<6} {note}")
    print(f"{'fail_frac':>40} {res['failed'] / res['attempted']:>14.6g} {'ratio':<6} "
          f"{res['failed']} of {res['attempted']} ops failed")
    for reason in res["reasons"]:
        print(f"   failure: {reason}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="fracrelax benchmark")
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fracrelax" / "__init__.py").is_file():
        print(f"error: no fracrelax package under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    if args.workload == "all":
        runs = [(w, t) for w in workloads.WORKLOADS for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    started = time.perf_counter()
    results = []
    try:
        for workload, trace in runs:
            res = run_one(env, workload, args.seed, args.seconds, trace)
            print_table(workload, res)
            results.append((workload, res))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"# {time.perf_counter() - started:.1f} s")

    if len(results) == 1:
        metrics = {name: {"value": val, "unit": results[0][1]["units"][name]}
                   for name, val in results[0][1]["metrics"].items()}
    else:
        metrics = {f"{w}.{name}": {"value": val, "unit": res["units"][name]}
                   for w, res in results for name, val in res["metrics"].items()}
    print(json.dumps({
        "correct": all(res["correct"] for _, res in results),
        "attempted": sum(res["attempted"] for _, res in results),
        "failed": sum(res["failed"] for _, res in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
