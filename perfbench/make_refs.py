"""Write long_solve_refs.json: the reference max error of every solve the
long_solve workload can draw, and the band rule that checks it.

Run from the repository root (about two minutes on one core):

    PYTHONPATH=src python3 perfbench/make_refs.py

A run checks an op's max error (startup nodes skipped) against its reference
within a factor of ``factor``; a reference below ``floor`` is roundoff, and
then the error only has to stay below the floor.  Both constants are the
table checker's (``tables.ERROR_FACTOR`` and ``tables.ROUNDOFF_FLOOR``) at the
time the file was written.
"""

from __future__ import annotations

import json

from fracrelax import make_power_problem, max_error, solve, tables

from workloads import LONG_N, REFS_FILE, SCHEME_TAGS, STARTUP_ZEROS, ref_key

ALPHAS = (0.3, 0.5, 0.7, 1.3, 1.5, 1.7)
PS = (1.5, 2.5, 4.0)


def main() -> None:
    errors = {}
    for scheme in SCHEME_TAGS:
        for n in LONG_N:
            for alpha in ALPHAS:
                for p in PS:
                    problem = make_power_problem(p, alpha)
                    u = solve(problem, scheme, n)
                    err = max_error(u, problem.exact, skip=STARTUP_ZEROS[scheme])
                    errors[ref_key(scheme, n, alpha, p)] = err
    out = {
        "floor": tables.ROUNDOFF_FLOOR,
        "factor": tables.ERROR_FACTOR,
        "alphas": list(ALPHAS),
        "ps": list(PS),
        "errors": errors,
    }
    REFS_FILE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
