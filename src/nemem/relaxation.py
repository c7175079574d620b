"""Numerical rank-one convexification of the plane energy.

A depth-limited lamination search gives an upper bound on the rank-one
convex envelope without trusting the closed-form relaxed energy.  Depth
one splits the target along rank-one directions and scores endpoints by
the plane energy; depth two scans two-level trees whose first split is
scored by a vectorized depth-one estimate of both endpoints (a chord
minimization along each endpoint's frame directions).  The best
candidate is polished by derivative-free pattern search, and the
reported value is always the plane-energy pairing of an explicit
witness measure.
"""

import math
from dataclasses import dataclass

import numpy as np

from .algebra import singular_values, svd32
from .membrane import (
    _RANK_TOL,
    DomainError,
    _plane_branches,
    _region_tests,
    plane_energy_values,
    psi,
)
from .microstructure import DiscreteYoungMeasure

__all__ = ["OracleConfig", "OracleResult", "relax_along_line", "relax_lamination"]

_THETA_DEN = 16  # split weights searched on the grid k/16
_N_AZ = 8  # azimuths of the 3-vector per polar ring of the direction grid
_N_BETA = 8  # angles of the 2-vector on the half circle
_BIG = 1e30  # finite stand-in for +inf inside chord arithmetic


@dataclass(frozen=True)
class OracleConfig:
    """Search budget of the lamination oracle.

    ``n_dirs`` is the total rank-one direction budget, laid out as a
    polar x azimuthal grid for the 3-vector times a half-circle grid for
    the 2-vector (16 x 8 x 8 by default), so it must be a positive
    multiple of 64; frame-aligned directions of the target are always
    seeded on top.  ``seed`` fixes the deterministic orientation jitter
    of the raw grid.
    """

    depth: int = 2
    n_dirs: int = 1024
    t_grid: int = 40
    refine_iters: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        for name in ("n_dirs", "t_grid", "refine_iters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        ring = _N_AZ * _N_BETA
        if self.n_dirs % ring:
            raise ValueError(f"n_dirs must be a multiple of {ring}, got {self.n_dirs}")


@dataclass(frozen=True)
class OracleResult:
    value: float
    best_measure: DiscreteYoungMeasure
    closed_form: float
    gap: float


def _w2d(G, params):
    lamM, lamm = singular_values(G)
    return plane_energy_values(lamM, lamM * lamm, params)


def _w2d_scalar(G, params):
    # Pure-float plane energy of one 3x2 matrix; the refinement loops
    # call this thousands of times, so it avoids array overhead.
    g11, g12 = G[0, 0], G[0, 1]
    g21, g22 = G[1, 0], G[1, 1]
    g31, g32 = G[2, 0], G[2, 1]
    a = g11 * g11 + g21 * g21 + g31 * g31
    c = g12 * g12 + g22 * g22 + g32 * g32
    b = g11 * g12 + g21 * g22 + g31 * g32
    half = 0.5 * (a + c)
    disc = math.hypot(0.5 * (a - c), b)
    lamM = math.sqrt(max(half + disc, 0.0))
    lamm = math.sqrt(max(half - disc, 0.0))
    delta = lamM * lamm
    if delta <= _RANK_TOL * max(1.0, lamM * lamM):
        return math.inf
    phi1, phi2, phi3, window = _plane_branches(lamM, delta, params.r)
    phi = min(phi1, phi2, phi3) if window else min(phi1, phi2)
    return 0.5 * params.mu * phi


def _frame_directions(F, ambient=True):
    sd = svd32(F)
    dirs = [(sd.Q[:, i].copy(), sd.R[j, :].copy()) for i in range(3) for j in range(2)]
    if ambient:
        for i in range(3):
            for j in range(2):
                a = np.zeros(3)
                a[i] = 1.0
                b = np.zeros(2)
                b[j] = 1.0
                dirs.append((a, b))
    return dirs


def _grid_directions(n_dirs, seed):
    n_pol = n_dirs // (_N_AZ * _N_BETA)
    pol = (np.arange(n_pol) + 0.5) * (0.5 * np.pi) / n_pol
    az = np.arange(_N_AZ) * (2.0 * np.pi) / _N_AZ
    beta = np.arange(_N_BETA) * np.pi / _N_BETA
    a = np.stack(
        [
            np.outer(np.sin(pol), np.cos(az)).ravel(),
            np.outer(np.sin(pol), np.sin(az)).ravel(),
            np.outer(np.cos(pol), np.ones(_N_AZ)).ravel(),
        ],
        axis=1,
    )
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    a = a @ Q.T
    b = np.stack([np.cos(beta), np.sin(beta)], axis=1)
    return [(av, bv) for av in a for bv in b]


def _split_objective(F, params, a, b, t, theta):
    D = np.outer(a, b)
    wp = _w2d_scalar(F + (1.0 - theta) * t * D, params)
    wm = _w2d_scalar(F - theta * t * D, params)
    if not (math.isfinite(wp) and math.isfinite(wm)):
        return math.inf
    return theta * wp + (1.0 - theta) * wm


def _pattern_search(value, x0, steps, iters, active):
    """Derivative-free coordinate descent with step expansion and
    shrinking; deterministic for a fixed starting point."""
    x = list(x0)
    best = value(x)
    steps = list(steps)
    for _ in range(iters):
        improved = False
        for k in active:
            for sign in (1.0, -1.0):
                trial = list(x)
                trial[k] = x[k] + sign * steps[k]
                v = value(trial)
                if v < best:
                    best, x = v, trial
                    improved = True
                    # Expand while the move keeps paying off.
                    for _ in range(10):
                        trial = list(x)
                        trial[k] = x[k] + sign * steps[k] * 2.0
                        v = value(trial)
                        if v < best:
                            best, x = v, trial
                            steps[k] *= 2.0
                        else:
                            break
                    break
        if not improved:
            steps = [0.5 * s for s in steps]
    return best, x


def _angles_of(a, b):
    pol = math.acos(min(1.0, max(-1.0, a[2] / np.linalg.norm(a))))
    az = math.atan2(a[1], a[0])
    beta = math.atan2(b[1], b[0])
    return pol, az, beta


def _vectors_of(pol, az, beta):
    a = np.array(
        [math.sin(pol) * math.cos(az), math.sin(pol) * math.sin(az), math.cos(pol)]
    )
    b = np.array([math.cos(beta), math.sin(beta)])
    return a, b


def _refine_split(F, params, split, iters, refine_direction=True):
    a, b, t, theta = split
    pol, az, beta = _angles_of(a, b)
    x0 = [pol, az, beta, math.log(t), theta]
    steps = [0.1, 0.1, 0.1, 0.35, 1.0 / (2 * _THETA_DEN)]
    active = [0, 1, 2, 3, 4] if refine_direction else [3, 4]

    def value(xs):
        av, bv = _vectors_of(xs[0], xs[1], xs[2])
        th = min(max(xs[4], 1e-6), 1.0 - 1e-6)
        return _split_objective(F, params, av, bv, math.exp(xs[3]), th)

    best, x = _pattern_search(value, x0, steps, iters, active)
    av, bv = _vectors_of(x[0], x[1], x[2])
    th = min(max(x[4], 1e-6), 1.0 - 1e-6)
    return best, (av, bv, math.exp(x[3]), th)


def _grid_search(F, params, dirs, t_vals, thetas, top_k, chunk=256):
    """Top candidates over the direction/magnitude/weight product grid,
    at most one candidate per direction, ranked by split value with ties
    broken on the global candidate index (chunked == serial)."""
    nt, nth = len(t_vals), len(thetas)
    s_plus = np.outer(t_vals, 1.0 - thetas).ravel()
    s_minus = -np.outer(t_vals, thetas).ravel()
    s_all, inverse = np.unique(np.concatenate([s_plus, s_minus]), return_inverse=True)
    idx_p = inverse[: nt * nth]
    idx_m = inverse[nt * nth :]
    theta_flat = np.tile(thetas, nt)

    A = np.stack([np.outer(a, b) for a, b in dirs])
    per_dir_best = np.empty(len(dirs))
    per_dir_arg = np.empty(len(dirs), dtype=int)
    for start in range(0, len(dirs), chunk):
        block = A[start : start + chunk]
        G = F[None, None] + s_all[None, :, None, None] * block[:, None]
        W = _w2d(G, params)
        cand = theta_flat[None, :] * W[:, idx_p] + (1.0 - theta_flat[None, :]) * W[
            :, idx_m
        ]
        per_dir_best[start : start + len(block)] = np.min(cand, axis=1)
        per_dir_arg[start : start + len(block)] = np.argmin(cand, axis=1)
    order = np.argsort(per_dir_best, kind="stable")[:top_k]
    out = []
    for d in order:
        if not np.isfinite(per_dir_best[d]):
            continue
        t_idx, th_idx = divmod(int(per_dir_arg[d]), nth)
        a, b = dirs[d]
        out.append(
            (
                float(per_dir_best[d]),
                (a, b, float(t_vals[t_idx]), float(thetas[th_idx])),
            )
        )
    return out


def _depth1(F, params, cfg, light=False):
    """Best single split (or none): grid scan plus pattern-search polish.

    Returns ``(value, split_or_None)`` with ``split = (a, b, t, theta)``.
    """
    w0 = _w2d_scalar(F, params)
    scale = max(1.0, float(np.linalg.norm(F)))
    if light:
        dirs = _frame_directions(F)
        t_vals = np.geomspace(1e-3, 10.0, 16) * scale
        thetas = np.arange(1, 8) / 8.0
        top_k, iters = 3, 14
    else:
        dirs = _frame_directions(F) + _grid_directions(cfg.n_dirs, cfg.seed)
        t_vals = np.geomspace(1e-3, 10.0, cfg.t_grid) * scale
        thetas = np.arange(1, _THETA_DEN) / _THETA_DEN
        top_k, iters = 6, cfg.refine_iters
    candidates = _grid_search(F, params, dirs, t_vals, thetas, top_k)
    best_val, best_split = math.inf, None
    for base_val, split in candidates:
        val, refined = _refine_split(F, params, split, iters)
        if val < best_val:
            best_val, best_split = val, refined
    # A split that wins by rounding noise only is reported as no split.
    if w0 <= best_val + 1e-12 * max(1.0, abs(w0)):
        return w0, None
    return best_val, best_split


def _endpoint_depth1_estimate(E, params, n_s2=14):
    """Vectorized depth-one estimate for a batch of endpoint matrices.

    For each endpoint the estimate is the minimum over its six
    frame-aligned rank-one directions of the best chord value at zero
    offset (equivalently the best equal-barycenter split along that
    direction with both magnitudes on a log grid), never below the
    unsplit plane energy of the other branch.  Upper bound by
    construction; used only to rank first-level splits of two-level
    trees.
    """
    E = np.asarray(E, dtype=float)
    n = E.shape[0]
    dirs = np.empty((n, 6, 3, 2))
    for i in range(n):
        sd = svd32(E[i])
        k = 0
        for col in range(3):
            for row in range(2):
                dirs[i, k] = np.outer(sd.Q[:, col], sd.R[row, :])
                k += 1
    scale = np.maximum(1.0, np.linalg.norm(E.reshape(n, -1), axis=1))
    base = np.geomspace(1e-2, 8.0, n_s2)
    s2 = scale[:, None] * base[None, :]  # (n, ns)
    G_pos = E[:, None, None] + s2[:, None, :, None, None] * dirs[:, :, None]
    G_neg = E[:, None, None] - s2[:, None, :, None, None] * dirs[:, :, None]
    W_pos = np.minimum(_w2d(G_pos, params), _BIG)  # (n, 6, ns)
    W_neg = np.minimum(_w2d(G_neg, params), _BIG)
    W_self = np.minimum(_w2d(E, params), _BIG)  # (n,)
    sp = s2[:, None, :, None]
    sm = s2[:, None, None, :]
    chord = (sp * W_neg[:, :, None, :] + sm * W_pos[:, :, :, None]) / (sp + sm)
    best_chord = chord.min(axis=(1, 2, 3))
    return np.minimum(W_self, best_chord)


def _two_level(F, params, cfg):
    """Best two-level tree: frame-aligned first split scanned over signed
    magnitude pairs with depth-one-estimated endpoints, then a light
    (t, theta) polish.  Returns ``(estimate, first_split)``."""
    scale = max(1.0, float(np.linalg.norm(F)))
    dirs = _frame_directions(F, ambient=False)
    base = np.geomspace(1e-2, 6.0, 24) * scale
    n_dir, ns = len(dirs), len(base)
    E = np.empty((n_dir, 2 * ns, 3, 2))
    for d, (a, b) in enumerate(dirs):
        D = np.outer(a, b)
        E[d, :ns] = F[None] + base[:, None, None] * D[None]
        E[d, ns:] = F[None] - base[:, None, None] * D[None]
    R1 = _endpoint_depth1_estimate(E.reshape(-1, 3, 2), params).reshape(n_dir, 2 * ns)
    R_pos, R_neg = R1[:, :ns], R1[:, ns:]
    sp = base[None, :, None]
    sm = base[None, None, :]
    pairing = (sp * R_neg[:, None, :] + sm * R_pos[:, :, None]) / (sp + sm)
    flat = int(np.argmin(pairing))
    est = float(pairing.ravel()[flat])
    d_idx, rem = divmod(flat, ns * ns)
    ip, im = divmod(rem, ns)
    a, b = dirs[d_idx]
    s_pos, s_neg = float(base[ip]), -float(base[im])
    t = s_pos - s_neg
    theta = -s_neg / t

    def value(xs):
        log_t, th = xs
        th = min(max(th, 1e-6), 1.0 - 1e-6)
        tt = math.exp(log_t)
        D = np.outer(a, b)
        pair = np.stack([F + (1.0 - th) * tt * D, F - th * tt * D])
        vp, vm = _endpoint_depth1_estimate(pair, params)
        return th * vp + (1.0 - th) * vm

    est, x = _pattern_search(
        value, [math.log(t), theta], [0.3, 1.0 / 16], 10, [0, 1]
    )
    theta = min(max(x[1], 1e-6), 1.0 - 1e-6)
    return est, (a, b, math.exp(x[0]), theta)


def _split_endpoints(F, split):
    a, b, t, theta = split
    D = np.outer(a, b)
    return F + (1.0 - theta) * t * D, F - theta * t * D


def _as_tree_entry(split, level):
    a, b, t, theta = split
    return {
        "level": level,
        "a": np.asarray(a, dtype=float),
        "b": np.asarray(b, dtype=float),
        "magnitude": float(t),
        "weight": float(theta),
    }


def _witness_pairing(atoms, params):
    total = 0.0
    for w, G in atoms:
        v = _w2d_scalar(np.asarray(G, dtype=float), params)
        if not math.isfinite(v):
            return math.inf
        total += w * v
    return total


def relax_lamination(Ft, params, cfg=None):
    """Depth-limited lamination estimate of the relaxed energy.

    Searches rank-one splits of ``Ft`` over a direction/magnitude/weight
    grid (known optimal families seeded in the target's singular frame)
    with pattern-search refinement; at depth two, scans two-level trees
    whose endpoints are scored by their own depth-one relaxation.  The
    value is the plane-energy pairing of the returned witness measure,
    an upper bound on the rank-one convex envelope by construction.

    Returns
    -------
    OracleResult
        ``gap = value - closed_form`` where ``closed_form`` is the
        closed-form relaxed energy at ``Ft``.

    Raises
    ------
    DomainError
        When no tree searched has a finite pairing, so there is no
        witness; the plane energy is +inf at a rank-deficient ``Ft``,
        and the search may find no split that leaves it.
    """
    if cfg is None:
        cfg = OracleConfig()
    F = np.asarray(Ft, dtype=float)
    sd = svd32(F)
    if _region_tests(sd.lamM, sd.delta, params.r)[0]:  # the Invalid region
        raise ValueError("invariants are not realizable by a 3x2 matrix")
    closed = psi(sd.lamM, sd.delta, params)

    value1, split1 = _depth1(F, params, cfg)
    trees = [(value1, split1, None, None)]

    # A two-level tree can beat every single split (the first split may
    # pass through high-energy intermediates), so rank first splits by
    # estimated two-level value, not by their depth-one objective.
    if cfg.depth >= 2 and value1 > 1e-9 * params.mu:
        est, split = _two_level(F, params, cfg)
        if est < value1:
            Gp, Gm = _split_endpoints(F, split)
            vp, sp = _depth1(Gp, params, cfg, light=True)
            vm, sm = _depth1(Gm, params, cfg, light=True)
            theta = split[3]
            trees.append((theta * vp + (1.0 - theta) * vm, split, sp, sm))

    best = None
    best_pairing = math.inf
    for _, split, sp, sm in trees:
        atoms = []
        tree = []
        if split is None:
            atoms.append((1.0, F))
        else:
            Gp, Gm = _split_endpoints(F, split)
            theta = split[3]
            tree.append(_as_tree_entry(split, 1))
            for w_end, G_end, sub in ((theta, Gp, sp), (1.0 - theta, Gm, sm)):
                if sub is None:
                    atoms.append((w_end, G_end))
                else:
                    Gpp, Gmm = _split_endpoints(G_end, sub)
                    th2 = sub[3]
                    tree.append(_as_tree_entry(sub, 2))
                    atoms.append((w_end * th2, Gpp))
                    atoms.append((w_end * (1.0 - th2), Gmm))
        paired = _witness_pairing(atoms, params)
        if paired < best_pairing:
            best_pairing = paired
            best = DiscreteYoungMeasure(atoms=tuple(atoms), tree=tuple(tree))

    # Exploration depths beyond two: keep splitting witness atoms with a
    # light single-split pass while it pays.
    for level in range(3, cfg.depth + 1):
        atoms = []
        tree = list(best.tree)
        changed = False
        for w, G in best.atoms:
            v, sub = _depth1(np.asarray(G, dtype=float), params, cfg, light=True)
            if sub is None:
                atoms.append((w, G))
            else:
                Gp, Gm = _split_endpoints(np.asarray(G, dtype=float), sub)
                th = sub[3]
                tree.append(_as_tree_entry(sub, level))
                atoms.append((w * th, Gp))
                atoms.append((w * (1.0 - th), Gm))
                changed = True
        if not changed:
            break
        paired = _witness_pairing(atoms, params)
        if paired < best_pairing:
            best_pairing = paired
            best = DiscreteYoungMeasure(atoms=tuple(atoms), tree=tuple(tree))
        else:
            break
    if best is None:
        raise DomainError(
            f"no lamination witness with finite plane energy was found for "
            f"(lamM, delta) = ({sd.lamM}, {sd.delta})"
        )
    return OracleResult(
        value=best_pairing,
        best_measure=best,
        closed_form=float(closed),
        gap=best_pairing - float(closed),
    )


def relax_along_line(Ft, a, b, params, n_samples=1601, span=None):
    """One-dimensional convexification of the plane energy along a line.

    Samples ``t -> W(Ft + t a b^T)`` on a symmetric grid, drops infinite
    samples, builds the lower convex envelope of the remaining points,
    and returns its value at t = 0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if abs(np.linalg.norm(a) - 1.0) > 1e-12 or abs(np.linalg.norm(b) - 1.0) > 1e-12:
        raise ValueError("line direction must be a unit rank-one pair")
    F = np.asarray(Ft, dtype=float)
    if span is None:
        span = 10.0 * max(1.0, float(np.linalg.norm(F)))
    if n_samples % 2 == 0:
        n_samples += 1  # keep t = 0 on the grid
    ts = np.linspace(-span, span, n_samples)
    G = F[None] + ts[:, None, None] * np.outer(a, b)[None]
    vals = _w2d(G, params)
    finite = np.isfinite(vals)
    if not np.any(finite):
        return np.inf
    hull_t, hull_v = _lower_hull(ts[finite], vals[finite])
    return float(np.interp(0.0, hull_t, hull_v))


def _lower_hull(ts, vs):
    # Andrew's monotone chain, lower hull only; input sorted in t.
    hull = []
    for p in zip(ts, vs):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (p[0] - x1) * (y2 - y1) <= 0.0:
                hull.pop()
            else:
                break
        hull.append(p)
    return np.array([p[0] for p in hull]), np.array([p[1] for p in hull])
