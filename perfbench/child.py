"""One workload in one fresh process: a cold first pass, then warm passes over
the same op list until a deadline on the time.monotonic() clock.  Started by
run.py; writes its samples as JSON to the --result file.

    python3 perfbench/child.py --workload tables --seed 1 --deadline <t> \
        --trace 0 --out-dir .perfbench_out/tables --result r.json
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import time
from pathlib import Path

import numpy as np

import fracrelax
import fracrelax._kernels
import tracing
import workloads

MAX_REASONS = 10


def stamps(thread_cap: str) -> dict:
    """Versions and machine facts that every result carries, so that numbers
    from different recurrence backends or machines are never compared
    unlabelled."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fracrelax": fracrelax.__version__,
        "fracrelax_file": fracrelax.__file__,
        "backend": fracrelax._kernels.active_backend(),
        "FRACRELAX_BACKEND": os.environ.get("FRACRELAX_BACKEND", ""),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_cap": thread_cap,
    }


def run_pass(ops, out_dir: Path, tally: dict, tracer=None,
             expect=None) -> tuple[float, list[str]]:
    """Run every op once; return the pass wall time and the output digests.
    With expect, the digests of an earlier pass, an op whose output differs
    from its earlier one is wrong."""
    digests = []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        try:
            outcome = workloads.run_op(op, out_dir)
        except Exception as exc:  # the program failed this op; keep measuring
            outcome = workloads.Outcome(True, False, "", f"{type(exc).__name__}: {exc}")
        if expect is not None and outcome.digest != expect[i]:
            why = "; ".join(filter(None, (outcome.why, "output differs from the cold pass")))
            outcome = workloads.Outcome(True, True, outcome.digest, why)
        tally["attempted"] += 1
        tally["failed"] += outcome.failed
        tally["wrong"] += outcome.wrong
        if outcome.why and len(tally["reasons"]) < MAX_REASONS:
            reason = f"{workloads.describe(op)}: {outcome.why}"
            if reason not in tally["reasons"]:
                tally["reasons"].append(reason)
        digests.append(outcome.digest)
    return time.perf_counter() - t0, digests


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--deadline", type=float, required=True,
                        help="time.monotonic() value after which no warm pass starts")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    ops = workloads.make_ops(args.workload, args.seed)
    tally = {"attempted": 0, "failed": 0, "wrong": 0, "reasons": []}
    tracer = tracing.Tracer() if args.trace else None
    layers, shares, passes = [], [], []
    with tracer or contextlib.nullcontext():
        cold, digests = run_pass(ops, args.out_dir, tally, tracer)
        # warm passes while the next one, as long as the last, ends before the
        # deadline; always at least one
        last = cold
        while not passes or time.monotonic() + last <= args.deadline:
            if tracer is not None:
                tracer.reset()
            last, _ = run_pass(ops, args.out_dir, tally, tracer, expect=digests)
            passes.append(last)
            if tracer is not None:
                metrics = tracing.pass_metrics(tracer)
                layers.append(metrics)
                shares.append(metrics["trace.self_sum_s"] / last)
    if tracer is not None:
        # the spans of the last traced pass
        (args.out_dir / "spans.json").write_text(json.dumps(tracer.spans))

    result = {
        "cold_s": cold,
        "pass_s": passes,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": digests,
        "layers": layers,
        "self_shares": shares,
        "stamps": stamps(os.environ.get("OMP_NUM_THREADS", "")),
        **tally,
    }
    args.result.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
