#!/usr/bin/env python3
"""Run the built-in verification suites and print their reports.

Four suites certify the closed forms numerically: branch-bound
inequalities on grids, stress identities (finite differences and
measure pairings), the envelope chain against the lamination oracle,
and frame indifference plus quadratic growth.

Run:  python demos/05_verification_suites.py   (a few seconds)
"""

import json

from nemem import MaterialParams, run_suites

params = [MaterialParams(mu=2.0, r=r) for r in (1.01, 2.0, 8.0)]
reports = run_suites("all", params, grid_n=150, n_samples=12, seed=0)

for rep in reports:
    print(json.dumps(rep.to_json_dict()))

print()
n_pass = sum(rep.passed for rep in reports)
print(f"{n_pass}/{len(reports)} suites passed")
