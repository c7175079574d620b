"""Seeded benchmark inputs and the reference closed forms the checks use.

Targets are 3x2 matrices ``Q diag(lamM, delta/lamM) R`` whose invariants
lie strictly inside one region of the invariant plane, with random
frames ``Q`` in SO(3) and ``R`` in O(2).  Everything here is plain numpy
written from the paper's closed form, so no change to the library can
change the inputs or the reference values they are checked against.
"""

import numpy as np

MU = 2.0
R_VALUES = (1.01, 2.0, 8.0, 100.0)
REGIONS = ("L", "M", "W", "S")
STRESS_LABELS = {"L": "zero", "M": "equibiaxial", "W": "uniaxial", "S": "biaxial"}

# Relative distance every target keeps from each region boundary.
_MARGIN = 0.02
# Slack above the equi-biaxial line delta = lamM^2 before a pair is
# unrealizable; the paper's definition, at the library's rounding slack.
_INVALID_SLACK = 1e-12


def cells():
    """The (region, r) mix every workload draws from, in op order.

    M is left out at r = 1.01: its wedge lamM^2/sqrt(r) < delta <= lamM^2
    is narrower there than the interior margin.
    """
    return [(g, r) for r in R_VALUES for g in REGIONS if not (g == "M" and r == 1.01)]


def region_of(lamM, delta, r):
    """Region tags of invariant pairs (vectorized), with the paper's
    boundary precedence L, S, W, M; unrealizable pairs are ``Invalid``."""
    lamM, delta = np.broadcast_arrays(np.asarray(lamM, float), np.asarray(delta, float))
    invalid = delta > lamM * lamM * (1.0 + _INVALID_SLACK)
    liquid = (lamM <= r ** (1.0 / 3.0)) & (delta <= r ** (1.0 / 6.0))
    solid = (np.sqrt(lamM) <= delta) & (delta <= lamM * lamM / np.sqrt(r))
    wrinkled = delta < np.sqrt(lamM)
    return np.select([invalid, liquid, solid, wrinkled], ["Invalid", "L", "S", "W"], "M")


def psi_ref(lamM, delta, r, mu=MU):
    """Relaxed energy of realizable pairs (vectorized)."""
    lamM, delta = np.broadcast_arrays(np.asarray(lamM, float), np.asarray(delta, float))
    tag = region_of(lamM, delta, r)
    rc = r ** (1.0 / 3.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        solid = rc * (lamM**2 / r + (delta / lamM) ** 2 + 1.0 / delta**2) - 3.0
        wrinkled = rc * (lamM**2 / r + 2.0 / lamM) - 3.0
        micro = rc * (2.0 * delta / np.sqrt(r) + 1.0 / delta**2) - 3.0
    phi = np.select([tag == "S", tag == "W", tag == "M"], [solid, wrinkled, micro], 0.0)
    return np.where(tag == "Invalid", np.nan, 0.5 * mu * phi)


def stress_ref(lamM, delta, r, mu=MU):
    """Principal Cauchy stresses (sigma1, sigma2) of realizable pairs."""
    lamM, delta = np.broadcast_arrays(np.asarray(lamM, float), np.asarray(delta, float))
    tag = region_of(lamM, delta, r)
    scale = mu * r ** (1.0 / 3.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        micro = scale * (delta / np.sqrt(r) - 1.0 / delta**2)
        s1 = np.select(
            [tag == "M", tag == "W", tag == "S"],
            [micro, scale * (lamM**2 / r - 1.0 / lamM), scale * (lamM**2 / r - 1.0 / delta**2)],
            0.0,
        )
        s2 = np.select(
            [tag == "M", tag == "S"], [micro, scale * ((delta / lamM) ** 2 - 1.0 / delta**2)], 0.0
        )
    return s1, s2


def _interior_pairs(rng, region, r, n):
    # Rejection sampling: a pair is kept when it and its four neighbours at
    # relative distance _MARGIN all carry the wanted tag.
    rc = r ** (1.0 / 3.0)
    lam_hi = rc if region == "L" else 2.0 * rc + 1.0
    lam_out, dlt_out = [], []
    for _ in range(200):
        lam = rng.uniform(0.3, lam_hi, 4096)
        dlt = lam * lam * rng.uniform(0.02, 1.0, 4096)
        keep = region_of(lam, dlt, r) == region
        for fl, fd in ((1 + _MARGIN, 1), (1 - _MARGIN, 1), (1, 1 + _MARGIN), (1, 1 - _MARGIN)):
            keep &= region_of(lam * fl, dlt * fd, r) == region
        lam_out.extend(lam[keep])
        dlt_out.extend(dlt[keep])
        if len(lam_out) >= n:
            return np.array(lam_out[:n]), np.array(dlt_out[:n])
    raise RuntimeError(f"could not sample {n} interior points of {region} at r = {r}")


def _random_frame(rng):
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    ang = rng.uniform(0.0, 2.0 * np.pi)
    R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    if rng.uniform() < 0.5:
        R = R @ np.diag([1.0, -1.0])
    return Q, R


def region_targets(seed, per_cell):
    """``per_cell`` targets for each (region, r) cell, interleaved so that
    consecutive ops walk through every cell in turn.

    Returns a list of dicts with keys ``F``, ``lamM``, ``delta``, ``region``
    and ``r``.
    """
    rng = np.random.default_rng(seed)
    by_cell = []
    for region, r in cells():
        lam, dlt = _interior_pairs(rng, region, r, per_cell)
        items = []
        for lm, dl in zip(lam, dlt):
            Q, R = _random_frame(rng)
            D = np.array([[lm, 0.0], [0.0, dl / lm], [0.0, 0.0]])
            items.append({"F": Q @ D @ R, "lamM": lm, "delta": dl, "region": region, "r": r})
        by_cell.append(items)
    return [cell[k] for k in range(per_cell) for cell in by_cell]


def scan_windows(seed, count):
    """``count`` scan windows around the README's (lamM 0.2-4, delta 0-3),
    with jittered far edges; delta always starts at 0 so every window has
    zero-area cells, and the top-left corner is always unrealizable."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        out.append(
            {
                "lamM_min": float(rng.uniform(0.15, 0.25)),
                "lamM_max": float(rng.uniform(3.9, 4.1)),
                "delta_min": 0.0,
                "delta_max": float(rng.uniform(2.9, 3.1)),
                "r": R_VALUES[k % len(R_VALUES)],
            }
        )
    return out
