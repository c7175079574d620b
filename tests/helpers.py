"""Shared test utilities: independent numerical oracles and samplers.

Everything here is deliberately decoupled from the closed forms it is
used to check: the plane-energy oracle minimizes the raw 3D density over
the unit-determinant plane (exact 2x2 linear algebra) and over directors
on a sphere grid with local descent; samplers build matrices from
invariants and random frames only.
"""

import hashlib
import importlib.util
import itertools
import pathlib

import numpy as np
import pytest

from nemem import relaxation
from nemem.algebra import adj2, diag_embed, rank_one_gap, svd32
from nemem.membrane import plane_energy_values
from nemem.relaxation import _LINES, _SCAN_LADDER, _split_endpoints, _w2d
from nemem.verification import region_window


def bench_targets():
    """The oracle bench's seeded targets, ``perfbench/targets.py``, loaded by
    path (the benchmark is not a package)."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "targets.py"
    spec = importlib.util.spec_from_file_location("perfbench_targets", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def split_gaps(nu):
    """Worst rank-one defect of the splits of a closed-form laminate: its
    two atoms, or at two levels each endpoint's pair and the two endpoint
    means; with three atoms (one endpoint a Dirac), the lower of the two
    ways to pair them."""
    w = [wi for wi, _ in nu.atoms]
    G = [Gi for _, Gi in nu.atoms]

    def mean(i, j):
        return (w[i] * G[i] + w[j] * G[j]) / (w[i] + w[j])

    if len(G) == 1:
        return 0.0
    if len(G) == 2:
        return rank_one_gap(G[0], G[1])
    if len(G) == 3:
        return min(
            max(rank_one_gap(G[0], G[1]), rank_one_gap(mean(0, 1), G[2])),
            max(rank_one_gap(G[1], G[2]), rank_one_gap(G[0], mean(1, 2))),
        )
    assert len(G) == 4
    return max(rank_one_gap(G[0], G[1]), rank_one_gap(G[2], G[3]), rank_one_gap(mean(0, 1), mean(2, 3)))


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


# A pattern search stops once every active step is below this: the
# standard step-size termination of generalized pattern search.
STEP_MIN = 1e-8


def pattern_search(values, starts, steps, iters, active):
    """Generalized pattern search with a complete poll from each point of
    ``starts``, side by side; deterministic.

    A round polls ``x + step_k e_k`` and ``x - step_k e_k`` along every
    ``active`` coordinate ``k`` of every search, all in one call of
    ``values``, which maps a batch of points, shape ``(m, len(x0))``, to
    their values.  A search moves to its lowest poll point when that beats
    its best value (ties go to the first: coordinates in ``active`` order,
    ``+`` before ``-``) and doubles the step it moved along; a search that
    does not improve halves all of its steps.  A search whose active steps
    are all below ``STEP_MIN`` is spent and is no longer polled, so each
    search takes the path it would take alone.  At most ``iters`` rounds
    follow the call on the starts; they end early once every search is
    spent.  ``steps`` is one row of steps for every start, or one row per
    start.  A coordinate left out of ``active`` is never polled and keeps
    its start.  Returns ``(best, x)`` for each start.  The search of
    ``angle_polish_reference``; ``pattern_search_reference`` checks it.
    """
    if len(starts) == 0:
        return []
    X = np.array(starts, dtype=float)
    S = np.array(np.broadcast_to(np.asarray(steps, dtype=float), X.shape))
    best = np.array(values(X), dtype=float)
    active = np.asarray(active)
    # The poll directions +e_k, -e_k of each active k, in poll order.
    U = np.eye(X.shape[1])[active]
    E = np.stack([U, -U], axis=1).reshape(-1, X.shape[1])
    live = np.arange(len(X))
    for _ in range(iters):
        # Only a search polled last round can have spent its steps.
        live = live[(S[live][:, active] >= STEP_MIN).any(axis=1)]
        if len(live) == 0:
            break
        P = X[live, None, :] + E * S[live, None, :]
        V = values(P.reshape(-1, X.shape[1])).reshape(len(live), len(E))
        j = np.argmin(V, axis=1)
        v = V[np.arange(len(live)), j]
        up = v < best[live]
        moved = live[up]
        best[moved] = v[up]
        X[moved] = P[up, j[up]]
        S[moved, active[j[up] // 2]] *= 2.0
        S[live[~up]] *= 0.5
    return [(float(b), x) for b, x in zip(best, X)]


def pattern_search_reference(value, x0, steps, iters, active):
    """Serial complete-poll pattern search, one point per call of the
    scalar objective ``value``: each round tries ``+step`` then ``-step``
    along every ``active`` coordinate in order and keeps the first of the
    lowest trials; when that beats the best value the search moves there
    and doubles the step it moved along, otherwise all steps halve.  It
    stops after ``iters`` rounds, or before a round once every active step
    is below ``STEP_MIN``.  The reference for the batched
    ``pattern_search``."""
    x = list(x0)
    best = value(x)
    steps = list(steps)
    for _ in range(iters):
        if all(steps[k] < STEP_MIN for k in active):
            break
        low = None
        for k in active:
            for sign in (1.0, -1.0):
                trial = list(x)
                trial[k] = x[k] + sign * steps[k]
                v = value(trial)
                if low is None or v < low[0]:
                    low = (v, trial, k)
        if low[0] < best:
            best, x = low[0], low[1]
            steps[low[2]] *= 2.0
        else:
            steps = [0.5 * s for s in steps]
    return best, x


def gap_table(solves):
    """The oracle's gap table over ``solves``, an iterable of ``(region, r,
    gap)``: a dict with the number of misses (gap above 5e-3), the lowest
    gap, and ``worst``, the largest gap per ``(region, r)``."""
    solves = list(solves)
    worst = {}
    for region, r, gap in solves:
        worst[region, r] = max(worst.get((region, r), -np.inf), gap)
    return {
        "misses": sum(gap > 5e-3 for _, _, gap in solves),
        "lowest": min(gap for _, _, gap in solves),
        "worst": worst,
    }


def scan_csv_reference(rows):
    """The scan's CSV text from ``rows`` of ``(lamM, delta, region, energy,
    sigma1, sigma2)``, written one row at a time: the reference for the
    CLI's column writer.  Floats are written by ``repr``, the shortest
    round trip, and a missing value (None) as an empty cell."""
    lines = ["lamM,delta,region,energy,sigma1,sigma2\n"]
    for lm, dl, tag, e, a, b in rows:
        fields = [repr(lm), repr(dl), tag]
        fields += ["" if v is None else repr(v) for v in (e, a, b)]
        lines.append(",".join(fields) + "\n")
    return "".join(lines)


def svd32_energies(params):
    """Plane energies of a batch of matrices from their ``svd32`` singular
    values, which keep the smaller one's relative accuracy."""

    def energies(G):
        sd = svd32(G)
        return plane_energy_values(sd.lamM, sd.delta, params)

    return energies


def frame_axes(F):
    """The frame lines ``(Q[:, i], R[j, :])`` of ``F = Q D R``, one for the
    axes ``(i, j)`` of each line of ``relaxation._LINES``, in its order,
    from one ``svd32`` call."""
    sd = svd32(F)
    return [(sd.Q[:, i], sd.R[j, :]) for (i, j), _ in _LINES]


def frame_lows_reference(F, params, offsets):
    """The lowest chord through ``F`` along each of its frame lines, on
    matrices: the dyad ``D = Q[:, i] R[j, :]`` of each of the six axes ``(i,
    j)``, its chord table between ``F + s_pos[k] D`` and ``F - s_neg[m] D``
    with ``svd32`` plane energies, and its lowest chord found by a loop in
    row-major order (the first of equal lows; +inf when a side has no
    offset).  ``offsets`` is one array of offsets for every line and both
    sides, or a list of ``(s_pos, s_neg)`` per line of ``relaxation._LINES``
    (then (1, 0) takes those of (0, 1)).  The lows of (1, 0) are checked
    equal, to 1e-12, to those of (0, 1), the one line the oracle reads for
    both.  Returns ``(w0, lows)``, ``lows`` a list of ``(value, s_pos,
    s_neg)`` of the other five, in ``frame_axes`` order."""
    energies = svd32_energies(params)
    sd = svd32(F)
    if isinstance(offsets, np.ndarray):
        offsets = [(offsets, offsets)] * len(_LINES)
    per_axes = {axes: sides for (axes, _), sides in zip(_LINES, offsets)}
    per_axes[1, 0] = per_axes[0, 1]
    lows = {}
    for i, j in itertools.product(range(3), range(2)):
        s_pos, s_neg = (np.asarray(x, dtype=float) for x in per_axes[i, j])
        low = (np.inf, np.nan, np.nan)
        if len(s_pos) and len(s_neg):
            D = np.outer(sd.Q[:, i], sd.R[j, :])
            w_pos = energies(F + s_pos[:, None, None] * D)
            w_neg = energies(F - s_neg[:, None, None] * D)
            chords = (s_pos[:, None] * w_neg + s_neg * w_pos[:, None]) / (s_pos[:, None] + s_neg)
            assert not np.isnan(chords).any()
            for k, m in itertools.product(range(len(s_pos)), range(len(s_neg))):
                if chords[k, m] < low[0]:
                    low = (float(chords[k, m]), float(s_pos[k]), float(s_neg[m]))
        lows[i, j] = low
    mirror, line = lows.pop((1, 0))[0], lows[0, 1][0]
    assert mirror == line or abs(mirror - line) <= 1e-12 * max(1.0, abs(line)), (mirror, line)
    return float(energies(F[None])[0]), [lows[axes] for axes, _ in _LINES]


def frame_scan_reference(F, params, offsets, top_k):
    """The oracle's frame scan on matrices: ``frame_lows_reference``, the
    finite lows ranked by value with ties broken on the line index;
    ``(w0, candidates)`` with at most ``top_k`` candidates ``(value, d,
    s_pos, s_neg)``, the chord along line ``d`` from ``s_pos`` to
    ``-s_neg``.  The reference for the scan and ranking of
    ``relaxation._best_splits``."""
    w0, lows = frame_lows_reference(F, params, offsets)
    finite = sorted((v, d, i, j) for d, (v, i, j) in enumerate(lows) if np.isfinite(v))
    return w0, [(v, d, i, j) for v, d, i, j in finite[:top_k]]


def well_offsets_reference(F, r):
    """The offsets at which the frame lines of ``F`` reach a matrix with
    one singular value ``c``, for ``c`` the ends ``r^(-1/6)``, ``r^(1/3)``
    and the geometric midpoint ``r^(1/12)`` of the plane energy's zero set,
    written from ``F``'s ``svd32`` singular values ``l1 >= l2``.  A list of
    ``(s_pos, s_neg)`` per line of ``relaxation._LINES``, only offsets above
    0 kept: ``c - l`` and ``-(c + l)``, ``l - c`` along (0, 0) (``l = l1``)
    and (1, 1) (``l = l2``); on the other three, along which the squared
    norm grows by ``s^2``, ``s`` on both sides with ``s^2 = c^2 + (l1 l2 /
    c)^2 - l1^2 - l2^2`` on (0, 1), ``c^2 - l1^2`` on (2, 0) and ``c^2 -
    l2^2`` on (2, 1)."""
    sd = svd32(F)
    l1, l2 = sd.lamM, sd.lamm
    stretches = [r ** (-1.0 / 6.0), r ** (1.0 / 12.0), r ** (1.0 / 3.0)]

    def odd(l):
        return [c - l for c in stretches if c > l], [l - c for c in stretches if c < l] + [c + l for c in stretches]

    def even(squares):
        s = [float(np.sqrt(x)) for x in squares if x > 0.0]
        return s, s

    return [
        odd(l1),
        odd(l2),
        even([c * c + (l1 * l2 / c) ** 2 - l1 * l1 - l2 * l2 for c in stretches]),
        even([c * c - l1 * l1 for c in stretches]),
        even([c * c - l2 * l2 for c in stretches]),
    ]


def solve_digest(results):
    """The SHA-256, in hex, of the oracle results ``results`` (an iterable
    of ``OracleResult``), as bytes: each solve's value, gap and closed
    form, its atoms' weights and matrices, and its tree records' levels,
    directions, magnitudes and weights, each list led by its length.  Two
    runs give one digest exactly when every solve is bit-identical."""
    h = hashlib.sha256()
    for res in results:
        nu = res.best_measure
        h.update(np.array([res.value, res.gap, res.closed_form]).tobytes())
        h.update(np.array([len(nu.atoms), len(nu.tree)]).tobytes())
        for w, G in nu.atoms:
            h.update(np.float64(w).tobytes() + np.asarray(G, dtype=float).tobytes())
        for s in nu.tree:
            h.update(np.int64(s["level"]).tobytes() + s["a"].tobytes() + s["b"].tobytes())
            h.update(np.array([s["magnitude"], s["weight"]]).tobytes())
    return h.hexdigest()


def work_counts(run):
    """The oracle's work in ``run()``: the number of
    ``relaxation.plane_energy_values`` calls, the elements they evaluate,
    and the chord elements ``relaxation._chords`` returns, counted by
    wrapping both names while ``run`` is called.  Deterministic, so unlike
    a time it does not depend on the machine."""
    counts = [0, 0, 0]
    energies, chords = relaxation.plane_energy_values, relaxation._chords

    def counting_energies(lamM, delta, params):
        counts[0] += 1
        counts[1] += np.size(lamM)
        return energies(lamM, delta, params)

    def counting_chords(*args):
        out = chords(*args)
        counts[2] += out.size
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relaxation, "plane_energy_values", counting_energies)
        mp.setattr(relaxation, "_chords", counting_chords)
        run()
    return tuple(counts)


def _unit_vectors(pol, az, beta):
    # Unit 3-vectors a from polar and azimuthal angles, unit 2-vectors b
    # from one angle; on arrays of one shape.
    sin_pol = np.sin(pol)
    a = np.stack([sin_pol * np.cos(az), sin_pol * np.sin(az), np.cos(pol)], axis=-1)
    return a, np.stack([np.cos(beta), np.sin(beta)], axis=-1)


def _angles_of(a, b):
    pol = np.arccos(np.clip(a[2] / np.linalg.norm(a), -1.0, 1.0))
    return pol, np.arctan2(a[1], a[0]), np.arctan2(b[1], b[0])


def _angle_split_values(F, params, X):
    """Weighted plane energy of the split of ``F`` named by each row of
    ``X``, coordinates ``(pol, az, beta, log t, theta)``: weight ``theta``
    on ``F + (1 - theta) t a b^T``, ``a`` and ``b`` unit vectors from the
    angles, ``theta`` kept within [1e-6, 1 - 1e-6]."""
    a, b = _unit_vectors(X[:, 0], X[:, 1], X[:, 2])
    theta = np.clip(X[:, 4], 1e-6, 1.0 - 1e-6)
    W = _w2d(_split_endpoints(F, (a, b, np.exp(X[:, 3]), theta)), params)
    return theta * W[0] + (1.0 - theta) * W[1]


def angle_polish_reference(F, params, iters=100):
    """The best single split of ``F`` by a pattern search over five
    coordinates, ``(pol, az, beta, log t, theta)``, from the candidates of
    the full frame scan (``frame_scan_reference``): the angles move the
    split's line off the frame.  Returns the least of ``F``'s own plane
    energy and the polished values.  The reference that checks the
    oracle's frame-line polish for generality."""
    offsets = _SCAN_LADDER * max(1.0, float(np.linalg.norm(F)))
    w0, candidates = frame_scan_reference(F, params, offsets, len(_LINES))
    axes = frame_axes(F)
    starts = [
        [*_angles_of(*axes[d]), np.log(s_pos + s_neg), s_neg / (s_pos + s_neg)]
        for _, d, s_pos, s_neg in candidates
    ]
    steps = [0.1, 0.1, 0.1, 0.35, 1.0 / 32]
    polished = pattern_search(lambda X: _angle_split_values(F, params, X), starts, steps, iters, range(5))
    return min([w0] + [v for v, _ in polished])


def endpoint_estimate_reference(E, params):
    """The endpoint estimate on matrices: for each endpoint of ``E``
    (shape ``(..., 3, 2)``), the least of its own plane energy and the
    lowest chord through it along each of its frame lines
    (``frame_lows_reference``) between the offsets that reach the zero
    set's stretches (``well_offsets_reference``).  The reference for the
    oracle's closed-form wells."""
    E = np.asarray(E, dtype=float)
    out = np.empty(E.shape[:-2])
    for idx in np.ndindex(*out.shape):
        w0, lows = frame_lows_reference(E[idx], params, well_offsets_reference(E[idx], params.r))
        out[idx] = min(w0, *(v for v, _, _ in lows))
    return out


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
