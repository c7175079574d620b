#!/usr/bin/env python3
"""The lamination oracle: validating the closed form without trusting it.

A depth-two lamination search relaxes the plane energy numerically.  Its
value is an upper bound witnessed by an explicit laminate; the closed
form is a lower bound by construction of the theory.  Agreement within
tolerance certifies the formula point by point.

Run:  python demos/04_relaxation_oracle.py   (about a second)
"""

import numpy as np

from nemem import MaterialParams, OracleConfig, diag_embed, relax_along_line, relax_lamination

params = MaterialParams(mu=2.0, r=8.0)
cfg = OracleConfig(depth=2)

points = [
    ("undeformed (L)", diag_embed(1.0, 1.0)),
    ("wrinkling (W)", diag_embed(3.0, 1.0 / 3.0)),
    ("stripes (M)", diag_embed(1.6, 1.25)),
    ("solid (S)", diag_embed(2.5, 0.8)),
    ("small stretch (L, two-level)", diag_embed(0.6, 0.2)),
]

print(f"{'point':30s} {'oracle value':>14s} {'closed form':>14s} {'gap':>10s} atoms")
for label, F in points:
    res = relax_lamination(F, params, cfg)
    print(f"{label:30s} {res.value:14.8f} {res.closed_form:14.8f} "
          f"{res.gap:10.2e} {len(res.best_measure.atoms):5d}")

print("\ndepth monotonicity at the undeformed state:")
for depth in (1, 2):
    res = relax_lamination(diag_embed(1.0, 1.0), params, OracleConfig(depth=depth))
    print(f"  depth {depth}: value {res.value:.3e}")

print("\none-dimensional convexification along a shear line "
      "(drops below the pointwise value):")
F = diag_embed(1.0, 1.0)
v = relax_along_line(F, np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0]), params)
print(f"  envelope at the identity along the shear direction: {v:.3e} "
      f"(pointwise plane energy: 0.41421356)")
