"""Numerical rank-one convexification of the plane energy.

A depth-limited lamination search gives an upper bound on the rank-one
convex envelope without trusting the closed-form relaxed energy.  Along
one rank-one line ``F + s a b^T`` the best single split is the lower
convex envelope of the plane energy at ``s = 0``: the lowest chord
through 0 that joins a sample with ``s > 0`` to one with ``s < 0``.
One kernel, ``_chords``, scores such chords everywhere.  Depth one takes
the lowest chord between geometric ladders of offsets on both sides of
the target along each searched direction; depth two scans two-level
trees whose first split is a chord between depth-one estimates of both
endpoints (each the lowest chord along the endpoint's frame directions).
The best candidate is polished by derivative-free pattern search, and
the reported value is always the plane-energy pairing of an explicit
witness measure.
"""

import math
from dataclasses import dataclass

import numpy as np

from .algebra import singular_values, svd32
from .membrane import (
    _INVARIANT_MAX,
    _RANK_TOL,
    DomainError,
    _plane_branches,
    _region_tests,
    plane_energy_values,
    psi,
)
from .microstructure import DiscreteYoungMeasure

__all__ = ["OracleConfig", "OracleResult", "relax_along_line", "relax_lamination"]

_N_AZ = 8  # azimuths of the 3-vector per polar ring of the direction grid
_N_BETA = 8  # angles of the 2-vector on the half circle
_BIG = 1e30  # finite stand-in for +inf inside chord arithmetic
_CHUNK = 256  # directions per plane-energy batch of the grid search
# Largest offsets, in units of max(1, |F|) of the matrix split: single
# splits, first splits of two-level trees, and the frame chords that
# score their endpoints.
_SPLIT_TOP = 10.0
_PAIR_TOP = 6.0
_ENDPOINT_TOP = 8.0
# A two-level tree's endpoints lie within (1 + _PAIR_TOP) max(1, |F|), and
# the ladders from there reach (1 + max(_SPLIT_TOP, _ENDPOINT_TOP)) times
# farther.  A matrix of norm R has delta <= R^2 / 2, so targets up to this
# norm keep every laddered invariant within _INVARIANT_MAX.
_NORM_MAX = math.sqrt(2.0 * _INVARIANT_MAX) / (
    (1.0 + _PAIR_TOP) * (1.0 + max(_SPLIT_TOP, _ENDPOINT_TOP))
)


@dataclass(frozen=True)
class OracleConfig:
    """Search budget of the lamination oracle.

    ``n_dirs`` is the total rank-one direction budget, laid out as a
    polar x azimuthal grid for the 3-vector times a half-circle grid for
    the 2-vector (16 x 8 x 8 by default), so it must be a positive
    multiple of 64; frame-aligned directions of the target are always
    seeded on top.  ``t_grid`` is the number of offsets per side of each
    rank-one line, a geometric ladder from 1e-3 to 10 times
    ``max(1, |F|)``; every chord between the two sides is a candidate
    split, so there is no separate weight grid.  ``seed`` fixes the
    deterministic orientation jitter of the raw direction grid.
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


def _chords(w_pos, w_neg, s_pos, s_neg):
    """Values at offset 0 of the chords from ``(s_pos[i], w_pos[..., i])``
    to ``(-s_neg[j], w_neg[..., j])``, with shape ``(..., i, j)``.

    The one copy of the chord formula.  The offsets are positive and
    broadcast against the leading axes of the values; a chord with an
    infinite end is infinite.
    """
    sp = np.asarray(s_pos)[..., :, None]
    sm = np.asarray(s_neg)[..., None, :]
    return (sp * w_neg[..., None, :] + sm * w_pos[..., :, None]) / (sp + sm)


def _frame_directions(F, ambient=True):
    sd = svd32(F)
    dirs = [(sd.Q[:, i].copy(), sd.R[j, :].copy()) for i in range(3) for j in range(2)]
    if ambient:
        dirs += [(a, b) for a in np.eye(3) for b in np.eye(2)]
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


def _weight(theta):
    return min(max(theta, 1e-6), 1.0 - 1e-6)


def _split_objective(F, params, split):
    Gp, Gm = _split_endpoints(F, split)
    wp = _w2d_scalar(Gp, params)
    wm = _w2d_scalar(Gm, params)
    if not (math.isfinite(wp) and math.isfinite(wm)):
        return math.inf
    theta = split[3]
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


def _refine_split(F, params, split, iters):
    a, b, t, theta = split
    x0 = [*_angles_of(a, b), math.log(t), theta]

    def split_of(xs):
        return (*_vectors_of(xs[0], xs[1], xs[2]), math.exp(xs[3]), _weight(xs[4]))

    best, x = _pattern_search(
        lambda xs: _split_objective(F, params, split_of(xs)),
        x0,
        [0.1, 0.1, 0.1, 0.35, 1.0 / 32],
        iters,
        range(5),
    )
    return best, split_of(x)


def _grid_search(F, params, dirs, offsets, top_k):
    """Top candidates over the searched directions, at most one per
    direction: the lowest chord through ``F`` between the ``offsets``
    ladders on either side, ranked by value with ties broken on the
    direction index (chunked == serial).

    A chord from ``s+`` to ``-s-`` is the split ``t = s+ + s-``,
    ``theta = s- / t``: weight ``theta`` on ``F + (1 - theta) t a b^T``.
    """
    n = len(offsets)
    s = np.concatenate([offsets, -offsets])
    A = np.stack([np.outer(a, b) for a, b in dirs])
    per_dir_best = np.empty(len(dirs))
    per_dir_arg = np.empty(len(dirs), dtype=int)
    for start in range(0, len(dirs), _CHUNK):
        block = A[start : start + _CHUNK]
        W = _w2d(F + s[:, None, None] * block[:, None], params)
        chords = _chords(W[:, :n], W[:, n:], offsets, offsets).reshape(len(block), -1)
        per_dir_best[start : start + len(block)] = np.min(chords, axis=1)
        per_dir_arg[start : start + len(block)] = np.argmin(chords, axis=1)
    out = []
    for d in np.argsort(per_dir_best, kind="stable")[:top_k]:
        if not np.isfinite(per_dir_best[d]):
            continue
        i, j = divmod(int(per_dir_arg[d]), n)
        s_pos, s_neg = float(offsets[i]), float(offsets[j])
        a, b = dirs[d]
        t = s_pos + s_neg
        out.append((float(per_dir_best[d]), (a, b, t, s_neg / t)))
    return out


def _depth1(F, params, cfg, light=False):
    """Best single split (or none): grid scan plus pattern-search polish.

    Returns ``(value, split_or_None)`` with ``split = (a, b, t, theta)``.
    """
    w0 = _w2d_scalar(F, params)
    scale = max(1.0, float(np.linalg.norm(F)))
    if light:
        dirs = _frame_directions(F)
        n, top_k, iters = 16, 3, 14
    else:
        dirs = _frame_directions(F) + _grid_directions(cfg.n_dirs, cfg.seed)
        n, top_k, iters = cfg.t_grid, 6, cfg.refine_iters
    offsets = np.geomspace(1e-3, _SPLIT_TOP, n) * scale
    best_val, best_split = math.inf, None
    for _, split in _grid_search(F, params, dirs, offsets, top_k):
        val, refined = _refine_split(F, params, split, iters)
        if val < best_val:
            best_val, best_split = val, refined
    # A split that wins by rounding noise only is reported as no split.
    if w0 <= best_val + 1e-12 * max(1.0, abs(w0)):
        return w0, None
    return best_val, best_split


def _endpoint_depth1_estimate(E, params):
    """Vectorized depth-one estimate for a batch of endpoint matrices.

    For each endpoint the estimate is the least of its own plane energy
    and the lowest chord through it along its six frame-aligned rank-one
    directions, with offsets on a log ladder on both sides.  Upper bound
    by construction; used only to rank first-level splits of two-level
    trees.
    """
    E = np.asarray(E, dtype=float)
    n = E.shape[0]
    dirs = np.array([[np.outer(a, b) for a, b in _frame_directions(G, ambient=False)] for G in E])
    scale = np.maximum(1.0, np.linalg.norm(E.reshape(n, -1), axis=1))
    s2 = scale[:, None] * np.geomspace(1e-2, _ENDPOINT_TOP, 14)[None, :]  # (n, ns)
    G_pos = E[:, None, None] + s2[:, None, :, None, None] * dirs[:, :, None]
    G_neg = E[:, None, None] - s2[:, None, :, None, None] * dirs[:, :, None]
    W_pos = np.minimum(_w2d(G_pos, params), _BIG)  # (n, 6, ns)
    W_neg = np.minimum(_w2d(G_neg, params), _BIG)
    W_self = np.minimum(_w2d(E, params), _BIG)  # (n,)
    chords = _chords(W_pos, W_neg, s2[:, None, :], s2[:, None, :])
    return np.minimum(W_self, chords.min(axis=(1, 2, 3)))


def _two_level(F, params, cfg):
    """Best two-level tree: frame-aligned first split scanned over signed
    magnitude pairs with depth-one-estimated endpoints, then a light
    (t, theta) polish.  Returns ``(estimate, first_split)``."""
    scale = max(1.0, float(np.linalg.norm(F)))
    dirs = _frame_directions(F, ambient=False)
    base = np.geomspace(1e-2, _PAIR_TOP, 24) * scale
    n_dir, ns = len(dirs), len(base)
    E = np.empty((n_dir, 2 * ns, 3, 2))
    for d, (a, b) in enumerate(dirs):
        D = np.outer(a, b)
        E[d, :ns] = F[None] + base[:, None, None] * D[None]
        E[d, ns:] = F[None] - base[:, None, None] * D[None]
    R1 = _endpoint_depth1_estimate(E.reshape(-1, 3, 2), params).reshape(n_dir, 2 * ns)
    pairing = _chords(R1[:, :ns], R1[:, ns:], base, base)
    d_idx, rem = divmod(int(np.argmin(pairing)), ns * ns)
    ip, im = divmod(rem, ns)
    a, b = dirs[d_idx]
    s_pos, s_neg = float(base[ip]), float(base[im])
    t = s_pos + s_neg

    def value(xs):
        th = _weight(xs[1])
        pair = np.stack(_split_endpoints(F, (a, b, math.exp(xs[0]), th)))
        vp, vm = _endpoint_depth1_estimate(pair, params)
        return th * vp + (1.0 - th) * vm

    est, x = _pattern_search(value, [math.log(t), s_neg / t], [0.3, 1.0 / 16], 10, [0, 1])
    return est, (a, b, math.exp(x[0]), _weight(x[1]))


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

    Takes the lowest chord through ``Ft`` along each searched rank-one
    direction (a direction grid plus the target's singular frame) as a
    candidate split, and polishes the best ones by pattern search; at
    depth two, scans two-level trees whose endpoints are scored by their
    own depth-one relaxation.  The value is the plane-energy pairing of
    the returned witness measure, an upper bound on the rank-one convex
    envelope by construction.

    Returns
    -------
    OracleResult
        ``gap = value - closed_form`` where ``closed_form`` is the
        closed-form relaxed energy at ``Ft``.

    Raises
    ------
    DomainError
        When ``|Ft|`` exceeds ``_NORM_MAX``, so that the search offsets
        would reach invariants above ``_INVARIANT_MAX``; or when no tree
        searched has a finite pairing, so there is no witness (the plane
        energy is +inf at a rank-deficient ``Ft``, and the search may
        find no split that leaves it).
    """
    if cfg is None:
        cfg = OracleConfig()
    F = np.asarray(Ft, dtype=float)
    sd = svd32(F)
    if _region_tests(sd.lamM, sd.delta, params.r)[0]:  # the Invalid region
        raise ValueError("invariants are not realizable by a 3x2 matrix")
    closed = psi(sd.lamM, sd.delta, params)
    norm = float(np.linalg.norm(F))
    if norm > _NORM_MAX:
        raise DomainError(
            f"|F| = {norm:.6g} is above {_NORM_MAX:.6g}, the largest norm whose "
            f"search offsets keep the invariants at most {_INVARIANT_MAX:g}"
        )

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

    Samples ``s -> W(Ft + s a b^T)`` at ``n_samples // 2`` evenly spaced
    offsets on each side of 0 out to ``span`` and returns the lower
    convex envelope of the samples at ``s = 0``: the least of ``W(Ft)``
    and the lowest chord through 0 between samples on either side.
    Infinite samples never win; the result is +inf only when every
    candidate is.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if abs(np.linalg.norm(a) - 1.0) > 1e-12 or abs(np.linalg.norm(b) - 1.0) > 1e-12:
        raise ValueError("line direction must be a unit rank-one pair")
    F = np.asarray(Ft, dtype=float)
    if span is None:
        span = 10.0 * max(1.0, float(np.linalg.norm(F)))
    half = n_samples // 2
    s = span * np.arange(1, half + 1) / half
    offsets = np.concatenate([[0.0], s, -s])
    W = _w2d(F[None] + offsets[:, None, None] * np.outer(a, b)[None], params)
    chords = _chords(W[1 : half + 1], W[half + 1 :], s, s)
    return float(np.min(chords, initial=W[0]))
