"""Shared test utilities: independent numerical oracles and samplers.

Everything here is deliberately decoupled from the closed forms it is
used to check: the plane-energy oracle minimizes the raw 3D density over
the unit-determinant plane (exact 2x2 linear algebra) and over directors
on a sphere grid with local descent; samplers build matrices from
invariants and random frames only.
"""

import numpy as np

from nemem.algebra import adj2, diag_embed
from nemem.relaxation import _dyads, _ladder_chords, _w2d
from nemem.verification import region_window


def halton(n, base):
    """First n points of the Halton sequence in the given base."""
    out = np.empty(n)
    for i in range(n):
        f, x, k = 1.0, 0.0, i + 1
        while k > 0:
            f /= base
            x += f * (k % base)
            k //= base
        out[i] = x
    return out


def random_rotation(rng):
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def random_orthogonal2(rng, allow_reflection=True):
    ang = rng.uniform(0.0, 2.0 * np.pi)
    R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    if allow_reflection and rng.uniform() < 0.5:
        R = R @ np.diag([1.0, -1.0])
    return R


def matrix_from_invariants(lamM, delta, rng=None):
    """3x2 matrix with the given invariants; random frames if rng given."""
    D = diag_embed(lamM, delta / lamM if lamM > 0 else 0.0)
    if rng is None:
        return D
    return random_rotation(rng) @ D @ random_orthogonal2(rng)


def sample_invariants(region, r, u, v):
    """Map a unit square point (u, v) into an interior patch of ``region``."""
    (l_lo, l_hi), delta_fn = region_window(region, r)
    lam = l_lo + u * (l_hi - l_lo)
    return lam, delta_fn(lam, v)


def lower_hull_at_zero(ts, vs):
    """Value at t = 0 of the lower convex hull of the finite samples
    ``(ts, vs)``, ``ts`` sorted: Andrew's monotone chain, lower half
    only, then linear interpolation; +inf when no sample is finite."""
    finite = np.isfinite(vs)
    hull = []
    for p in zip(ts[finite], vs[finite]):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (p[0] - x1) * (y2 - y1) <= 0.0:
                hull.pop()
            else:
                break
        hull.append(p)
    if not hull:
        return np.inf
    return float(np.interp(0.0, [p[0] for p in hull], [p[1] for p in hull]))


def pattern_search_reference(value, x0, steps, iters, active):
    """Serial pattern search, one point per call of the scalar objective
    ``value``: each sweep visits the ``active`` coordinates in order,
    tries ``+step`` before ``-step``, takes the first move that improves
    and doubles it while that keeps paying; all steps halve after a sweep
    without improvement.  The reference for the oracle's batched search."""
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


def grid_search_reference(F, params, dirs, offsets, top_k):
    """Exhaustive grid scan: the lowest chord through ``F`` between the
    ``offsets`` ladders on either side of every direction, all chord
    tables built at once, ranked by value with ties broken on the
    direction index; at most ``top_k`` finite candidates
    ``(value, (a, b, t, theta))``.  The reference for the oracle's
    bounded scan."""
    n = len(offsets)
    chords = _ladder_chords(lambda G: _w2d(G, params), F, _dyads(*dirs), offsets)
    chords = chords.reshape(len(chords), -1)
    per_dir_arg = np.argmin(chords, axis=1)
    per_dir_best = chords[np.arange(len(chords)), per_dir_arg]
    out = []
    for d in np.argsort(per_dir_best, kind="stable")[:top_k]:
        if not np.isfinite(per_dir_best[d]):
            continue
        i, j = divmod(int(per_dir_arg[d]), n)
        s_pos, s_neg = float(offsets[i]), float(offsets[j])
        t = s_pos + s_neg
        out.append((float(per_dir_best[d]), (dirs[0][d], dirs[1][d], t, s_neg / t)))
    return out


def singular_values_einsum(F):
    """Singular values of a batch of 3x2 matrices with the Gram entries
    from ``np.einsum``, on a C-ordered copy (einsum's rounding depends on
    the layout of a single matrix): the reference for the explicit sums
    of ``nemem.algebra.singular_values``."""
    F = np.ascontiguousarray(F, dtype=float)
    a = np.einsum("...ij,...ij->...j", F, F)
    b = np.einsum("...i,...i->...", F[..., 0], F[..., 1])
    half_tr = 0.5 * (a[..., 0] + a[..., 1])
    disc = np.hypot(0.5 * (a[..., 0] - a[..., 1]), b)
    return np.sqrt(np.maximum(half_tr + disc, 0.0)), np.sqrt(np.maximum(half_tr - disc, 0.0))


def plane_energy_direct(Ft, params, n_az=64, n_pol=32, refine_iters=60):
    """Direct numerical minimization of the 3D density over the thickness
    vector and the director.

    For each director the thickness minimization is a positive definite
    quadratic on the affine plane of unit-determinant extensions, solved
    exactly by a 2x2 linear system; the director is searched on an
    az x pol sphere grid followed by local pattern descent.  Uses only
    ``adj2`` and the raw entropic-density expression.
    """
    Ft = np.asarray(Ft, dtype=float)
    a = adj2(Ft)
    na2 = float(a @ a)
    if na2 <= 0.0:
        return np.inf
    p0 = a / na2
    k = int(np.argmin(np.abs(a)))
    w1 = np.zeros(3)
    w1[k] = 1.0
    w1 = w1 - (w1 @ a) * a / na2
    w1 /= np.linalg.norm(w1)
    w2 = np.cross(a / np.sqrt(na2), w1)

    r, mu = params.r, params.mu
    alpha = (r - 1.0) / r
    frob_t = float(np.sum(Ft * Ft))
    pw1 = float(p0 @ w1)
    pw2 = float(p0 @ w2)

    def value_for(n):
        # n: (..., 3) unit directors; exact minimization over the plane.
        m1 = n @ w1
        m2 = n @ w2
        pn = n @ p0
        a11 = 1.0 - alpha * m1 * m1
        a22 = 1.0 - alpha * m2 * m2
        a12 = -alpha * m1 * m2
        det = a11 * a22 - a12 * a12
        b1 = alpha * pn * m1 - pw1
        b2 = alpha * pn * m2 - pw2
        s1 = (a22 * b1 - a12 * b2) / det
        s2 = (a11 * b2 - a12 * b1) / det
        c = p0 + s1[..., None] * w1 + s2[..., None] * w2
        c2 = np.sum(c * c, axis=-1)
        cn = np.sum(c * n, axis=-1)
        ftn2 = np.sum((n @ Ft) ** 2, axis=-1)
        total = frob_t + c2 - alpha * (ftn2 + cn * cn)
        return 0.5 * mu * (r ** (1.0 / 3.0) * total - 3.0)

    pol = (np.arange(n_pol) + 0.5) * np.pi / n_pol
    az = np.arange(n_az) * 2.0 * np.pi / n_az
    P, A = np.meshgrid(pol, az, indexing="ij")
    n_grid = np.stack(
        [np.sin(P) * np.cos(A), np.sin(P) * np.sin(A), np.cos(P)], axis=-1
    )
    vals = value_for(n_grid)
    flat = int(np.argmin(vals))
    i, j = divmod(flat, n_az)
    x = [pol[i], az[j]]
    steps = [np.pi / n_pol, 2.0 * np.pi / n_az]
    best = float(vals.ravel()[flat])
    for _ in range(refine_iters):
        improved = False
        for kk in range(2):
            for sign in (1.0, -1.0):
                trial = list(x)
                trial[kk] = x[kk] + sign * steps[kk]
                n = np.array(
                    [
                        np.sin(trial[0]) * np.cos(trial[1]),
                        np.sin(trial[0]) * np.sin(trial[1]),
                        np.cos(trial[0]),
                    ]
                )
                v = float(value_for(n))
                if v < best:
                    best, x = v, trial
                    improved = True
                    break
        if not improved:
            steps = [0.5 * s for s in steps]
    return best


def analytic_solid_gradient(Ft, params):
    """Hand-differentiated gradient of the solid-branch energy
    (mu/2)(r^(1/3)(lamM^2/r + delta^2/lamM^2 + 1/delta^2) - 3), assembled
    in the singular frame of Ft."""
    from nemem.algebra import svd32

    sd = svd32(np.asarray(Ft, dtype=float))
    lam, dlt = sd.lamM, sd.delta
    r, mu = params.r, params.mu
    rc = r ** (1.0 / 3.0)
    dpsi_dlam = 0.5 * mu * rc * (2.0 * lam / r - 2.0 * dlt**2 / lam**3)
    dpsi_ddlt = 0.5 * mu * rc * (2.0 * dlt / lam**2 - 2.0 / dlt**3)
    grad_lam = np.outer(sd.e1, sd.f1)
    grad_dlt = sd.lamm * np.outer(sd.e1, sd.f1) + lam * np.outer(sd.e2, sd.f2)
    return dpsi_dlam * grad_lam + dpsi_ddlt * grad_dlt
