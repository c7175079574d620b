"""Numerical rank-one convexification of the plane energy.

A depth-limited lamination search gives an upper bound on the rank-one
convex envelope without trusting the closed-form relaxed energy.  Along
one rank-one line ``F + s a b^T`` the best single split is the lower
convex envelope of the plane energy at ``s = 0``: the lowest chord
through 0 that joins a sample with ``s > 0`` to one with ``s < 0``.
One function, ``_chords``, scores such chords everywhere, over ladders
of offsets on both sides of the target (``_ladder_values``), and one
kernel, ``_w2d``, evaluates every plane energy.  Depth one takes the
lowest chord along each searched direction; depth two scans two-level
trees whose first split is a chord between depth-one estimates of both
endpoints (each the lowest chord along the endpoint's frame directions).
The grid scan of depth one is bounded: a chord is a weighted mean of its
two ends, so chords are formed only along the directions whose lowest
ladder sample can still reach the top candidates, which are those of the
exhaustive scan, bit for bit.  The best candidates are polished side by
side by a derivative-free pattern search that evaluates the moves ahead
of each search in batches, and the reported value is always the
plane-energy pairing of an explicit witness measure.
The search budget (directions, offsets, polish sweeps) is a set of module
constants; ``OracleConfig`` chooses only the depth and the grid's seed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .algebra import singular_values, svd32
from .membrane import (
    _INVARIANT_MAX,
    DomainError,
    plane_energy_values,
    psi,
)
from .microstructure import DiscreteYoungMeasure

__all__ = ["OracleConfig", "OracleResult", "relax_along_line", "relax_lamination"]

_N_POL = 16  # polar rings of the 3-vector in the direction grid
_N_AZ = 8  # azimuths of the 3-vector per polar ring of the direction grid
_N_BETA = 8  # angles of the 2-vector on the half circle
_T_GRID = 40  # offsets per side of each rank-one line of the grid search
_REFINE_ITERS = 50  # pattern-search sweeps of the full depth-one polish
_LINE_SAMPLES = 800  # offsets per side of relax_along_line
_CHUNK = 64  # directions per plane-energy batch and chord table of the grid search
# Relative and absolute slack of the grid search's bound on the chords
# of a direction (see _grid_search).
_SLACK = 4.0 * np.finfo(float).eps
_TINY = np.finfo(float).tiny
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
# Unit ladders of offsets, scaled by max(1, |F|) per call: the grid
# search's and the light single split's, the first splits of two-level
# trees, and the endpoint estimate's frame chords.
_GRID_LADDER = np.geomspace(1e-3, _SPLIT_TOP, _T_GRID)
_LIGHT_LADDER = np.geomspace(1e-3, _SPLIT_TOP, 16)
_PAIR_LADDER = np.geomspace(1e-2, _PAIR_TOP, 24)
_ENDPOINT_LADDER = np.geomspace(1e-2, _ENDPOINT_TOP, 14)


@dataclass(frozen=True)
class OracleConfig:
    """Lamination depth and direction-grid seed of the oracle.

    The search budget is fixed: ``_N_POL x _N_AZ x _N_BETA`` grid
    directions (1024) on top of the target's frame directions, ``_T_GRID``
    offsets per side of each rank-one line and ``_REFINE_ITERS`` polish
    sweeps.  ``depth`` is the lamination order searched (1 or 2, deeper
    levels split witness atoms further); ``seed`` fixes the deterministic
    orientation jitter of the direction grid.
    """

    depth: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")


@dataclass(frozen=True)
class OracleResult:
    value: float
    best_measure: DiscreteYoungMeasure
    closed_form: float
    gap: float


def _w2d(G, params):
    """Plane energy of a batch of 3x2 matrices, shape ``(..., 3, 2)``: the
    one plane-energy path of the oracle."""
    lamM, lamm = singular_values(G)
    return plane_energy_values(lamM, lamM * lamm, params)


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


def _ladder_values(value, F, D, s):
    """``value(F + s_i D)`` for every ``i``, then ``value(F - s_i D)``,
    with shape ``(..., 2 n)``.

    ``F`` and ``D`` are ``(..., 3, 2)`` and ``s`` is ``(..., n)``, all
    broadcast against each other; ``value`` maps a batch of matrices to
    their values and is called once, on both sides of the ladder.
    """
    s = np.asarray(s)
    both = np.concatenate([s, -s], axis=-1)[..., :, None, None]
    return value(F[..., None, :, :] + both * D[..., None, :, :])


def _ladder_chords(value, F, D, s):
    """Chords through each ``F`` between ``value(F + s_i D)`` and
    ``value(F - s_j D)``, with shape ``(..., i, j)``; arguments as in
    ``_ladder_values``."""
    n = np.shape(s)[-1]
    W = _ladder_values(value, F, D, s)
    return _chords(W[..., :n], W[..., n:], s, s)


def _dyads(a, b):
    """Rank-one matrices ``a b^T`` of broadcast rows, ``(..., 3)`` and
    ``(..., 2)`` to ``(..., 3, 2)``."""
    return np.asarray(a)[..., :, None] * np.asarray(b)[..., None, :]


def _frame_directions(F, ambient=True):
    """Rank-one directions ``(a, b)`` of the singular frame of each ``F``,
    ``(Q[:, i], R[j, :])`` with ``i`` outer: shapes ``(..., 6, 3)`` and
    ``(..., 6, 2)``, from one ``svd32`` call.  For one ``F``, ``ambient``
    appends the six pairs of coordinate axes in the same order."""
    sd = svd32(F)
    a = np.repeat(np.swapaxes(sd.Q, -1, -2), 2, axis=-2)
    b = np.tile(sd.R, (3, 1))
    if ambient:
        a = np.concatenate([a, np.repeat(np.eye(3), 2, axis=0)])
        b = np.concatenate([b, np.tile(np.eye(2), (3, 1))])
    return a, b


def _unit_vectors(pol, az, beta):
    """The angle map of the search: unit 3-vectors ``a`` from polar and
    azimuthal angles, unit 2-vectors ``b`` from one angle; on arrays."""
    pol, az = np.broadcast_arrays(pol, az)
    sin_pol = np.sin(pol)
    a = np.empty(pol.shape + (3,))
    np.multiply(sin_pol, np.cos(az), out=a[..., 0])
    np.multiply(sin_pol, np.sin(az), out=a[..., 1])
    np.cos(pol, out=a[..., 2])
    b = np.empty(np.shape(beta) + (2,))
    np.cos(beta, out=b[..., 0])
    np.sin(beta, out=b[..., 1])
    return a, b


def _angles_of(a, b):
    pol = math.acos(min(1.0, max(-1.0, a[2] / np.linalg.norm(a))))
    az = math.atan2(a[1], a[0])
    beta = math.atan2(b[1], b[0])
    return pol, az, beta


def _grid_directions(seed):
    pol = (np.arange(_N_POL) + 0.5) * (0.5 * np.pi) / _N_POL
    az = np.arange(_N_AZ) * (2.0 * np.pi) / _N_AZ
    beta = np.arange(_N_BETA) * np.pi / _N_BETA
    a, b = _unit_vectors(pol[:, None], az[None, :], beta)
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    a = a.reshape(-1, 3) @ Q.T
    return np.repeat(a, len(b), axis=0), np.tile(b, (len(a), 1))


def _weight(theta):
    return np.clip(theta, 1e-6, 1.0 - 1e-6)


def _split_endpoints(F, split):
    """Endpoints ``F + (1 - theta) t a b^T`` and ``F - theta t a b^T`` of
    one split or of a batch, ``a`` of shape ``(..., 3)``, ``b`` of shape
    ``(..., 2)``, ``t`` and ``theta`` of shape ``(...)``, stacked into one
    array of shape ``(2, ..., 3, 2)``.

    Both come from one broadcast ``F + c a b^T`` with the coefficients
    ``c = ((1 - theta) t, -(theta t))``: negation is exact, so the second
    endpoint has the bits of ``F - theta t a b^T``.
    """
    a, b, t, theta = split
    t = np.asarray(t)[..., None, None]
    theta = np.asarray(theta)[..., None, None]
    return F + np.array([(1.0 - theta) * t, -(theta * t)]) * _dyads(a, b)


def _splits_of(X):
    """Splits ``(a, b, t, theta)`` of the polish coordinates, rows
    ``(pol, az, beta, log t, theta)``."""
    a, b = _unit_vectors(X[..., 0], X[..., 1], X[..., 2])
    return a, b, np.exp(X[..., 3]), _weight(X[..., 4])


def _split_values(F, params, X):
    """Weighted plane energy of the split of each row of ``X``, the
    batched objective of the polish (coordinates as in ``_splits_of``)."""
    split = _splits_of(X)
    W = _w2d(_split_endpoints(F, split), params)
    theta = split[3]
    return theta * W[0] + (1.0 - theta) * W[1]


def _pattern_search(values, starts, steps, iters, active):
    """Derivative-free coordinate descent from each point of ``starts``,
    with step expansion and shrinking; deterministic.

    A sweep visits the ``active`` coordinates in order and tries ``+step``
    before ``-step``, taking the first move that improves and doubling it
    while that keeps paying; all steps halve after a sweep without
    improvement.  ``values`` maps a batch of points, shape
    ``(m, len(x0))``, to their values.  The searches run side by side as
    generators over tuples of coordinates, which look every value up in
    one table of the points seen so far.  A search yields only for a
    value it has not seen, asking for that point together with every move
    still ahead of it in its sweep: one call per round serves all the
    searches waiting for a value.  Each search takes the path it would
    take evaluating one point at a time.  Returns ``(best, x)`` for each
    start.
    """
    known = {}
    moves = [(k, sign) for k in active for sign in (1.0, -1.0)]

    def moved(x, k, d):
        trial = list(x)
        trial[k] = x[k] + d
        return tuple(trial)

    def ask(point, base, ahead, steps):
        # The new ``point`` and the moves ``ahead`` from ``base``.
        return [point] + [moved(base, k, sign * steps[k]) for k, sign in ahead]

    def search(x, steps):
        best = known.get(x)
        if best is None:
            yield ask(x, x, moves, steps)
            best = known[x]
        for _ in range(iters):
            improved = False
            for c, k in enumerate(active):
                for sign in (1.0, -1.0):
                    trial = moved(x, k, sign * steps[k])
                    v = known.get(trial)
                    if v is None:
                        yield ask(trial, x, moves[2 * c :], steps)
                        v = known[trial]
                    if v < best:
                        best, x = v, trial
                        improved = True
                        # Expand while the move keeps paying off.
                        for _ in range(10):
                            trial = moved(x, k, sign * steps[k] * 2.0)
                            v = known.get(trial)
                            if v is None:
                                yield ask(trial, x, moves[2 * c + 2 :], steps)
                                v = known[trial]
                            if v < best:
                                best, x = v, trial
                                steps[k] *= 2.0
                            else:
                                break
                        break
            if not improved:
                steps = [0.5 * s for s in steps]
        return best, np.array(x)

    runs = [search(tuple(x0), list(steps)) for x0 in starts]
    asks = {i: next(run) for i, run in enumerate(runs)}
    results = [None] * len(runs)
    while asks:
        batch = [p for p in dict.fromkeys(p for pts in asks.values() for p in pts) if p not in known]
        known.update(zip(batch, values(np.array(batch)).tolist()))
        for i in list(asks):
            try:
                asks[i] = next(runs[i])
            except StopIteration as done:
                results[i] = done.value
                del asks[i]
    return results


def _grid_search(F, params, dirs, offsets, top_k):
    """Top candidates over the searched directions, at most one per
    direction: the lowest chord through ``F`` between the ``offsets``
    ladders on either side, ranked by value with ties broken on the
    direction index (chunked == serial).

    A chord from ``s+`` to ``-s-`` is the split ``t = s+ + s-``,
    ``theta = s- / t``: weight ``theta`` on ``F + (1 - theta) t a b^T``.

    The scan is bounded.  A chord is a weighted mean of its two ends, so
    no chord along a direction is below the direction's lowest ladder
    sample.  Every ladder is evaluated, the directions are visited in
    increasing order of that bound, and their chord tables are built a
    chunk at a time until the next bound is above the ``top_k``-th best
    chord found.  A direction never visited cannot reach the top
    ``top_k``, even on a tie, so the candidates are those of the
    exhaustive scan, bit for bit.  Directions with a non-finite bound
    (every sample +inf) have no finite chord and are never visited.
    """
    n = len(offsets)
    A = _dyads(*dirs)
    W = np.concatenate(
        [
            _ladder_values(lambda G: _w2d(G, params), F, A[start : start + _CHUNK], offsets)
            for start in range(0, len(A), _CHUNK)
        ]
    )
    lo = W.min(axis=1)
    # A computed chord can round a few ulps below its lower end (and an
    # underflowing product loses less than _TINY), so the bound keeps
    # that much slack below the lowest sample.
    bound = lo * np.where(lo < 0.0, 1.0 + _SLACK, 1.0 - _SLACK) - _TINY
    order = np.argsort(bound, kind="stable")[: np.count_nonzero(bound < np.inf)]
    ranked = bound[order]
    per_dir_best = np.full(len(A), np.inf)
    per_dir_arg = np.zeros(len(A), dtype=int)
    done, end = 0, len(order)
    while done < end:
        visit = order[done : min(end, done + _CHUNK)]
        chords = _chords(W[visit, :n], W[visit, n:], offsets, offsets).reshape(len(visit), -1)
        arg = np.argmin(chords, axis=1)
        per_dir_arg[visit] = arg
        per_dir_best[visit] = chords[np.arange(len(visit)), arg]
        done += len(visit)
        if done >= top_k:
            kth = np.partition(per_dir_best[order[:done]], top_k - 1)[top_k - 1]
            end = np.searchsorted(ranked, kth, side="right")
    out = []
    for d in np.argsort(per_dir_best, kind="stable")[:top_k]:
        if not np.isfinite(per_dir_best[d]):
            continue
        i, j = divmod(int(per_dir_arg[d]), n)
        s_pos, s_neg = float(offsets[i]), float(offsets[j])
        t = s_pos + s_neg
        out.append((float(per_dir_best[d]), (dirs[0][d], dirs[1][d], t, s_neg / t)))
    return out


def _depth1(F, params, cfg, light=False):
    """Best single split (or none): grid scan plus pattern-search polish
    of the top candidates, side by side.

    Returns ``(value, split_or_None)`` with ``split = (a, b, t, theta)``.
    """
    w0 = _w2d(F, params)
    scale = max(1.0, float(np.linalg.norm(F)))
    dirs = _frame_directions(F)
    if light:
        ladder, top_k, iters = _LIGHT_LADDER, 3, 14
    else:
        dirs = [np.concatenate(d) for d in zip(dirs, _grid_directions(cfg.seed))]
        ladder, top_k, iters = _GRID_LADDER, 6, _REFINE_ITERS
    offsets = ladder * scale
    starts = [
        [*_angles_of(a, b), math.log(t), theta]
        for _, (a, b, t, theta) in _grid_search(F, params, dirs, offsets, top_k)
    ]
    steps = [0.1, 0.1, 0.1, 0.35, 1.0 / 32]
    polished = _pattern_search(lambda X: _split_values(F, params, X), starts, steps, iters, range(5))
    best_val, best_split = math.inf, None
    for val, x in polished:
        if val < best_val:
            best_val, best_split = val, _splits_of(x)
    # A split that wins by rounding noise only is reported as no split.
    if w0 <= best_val + 1e-12 * max(1.0, abs(w0)):
        return w0, None
    return best_val, best_split


def _endpoint_depth1_estimate(E, params):
    """Vectorized depth-one estimate for endpoint matrices of any leading
    shape, ``(..., 3, 2) -> (...)``.

    For each endpoint the estimate is the least of its own plane energy
    and the lowest chord through it along its six frame-aligned rank-one
    directions (all frames from one ``svd32`` call), with offsets on a
    log ladder on both sides.  Upper bound by construction; used only to
    rank first-level splits of two-level trees.
    """
    E = np.asarray(E, dtype=float)
    dirs = _dyads(*_frame_directions(E, ambient=False))
    scale = np.maximum(1.0, np.linalg.norm(E.reshape(E.shape[:-2] + (6,)), axis=-1))
    s = scale[..., None] * _ENDPOINT_LADDER
    chords = _ladder_chords(lambda G: _w2d(G, params), E[..., None, :, :], dirs, s[..., None, :])
    return np.minimum(_w2d(E, params), chords.min(axis=(-3, -2, -1)))


def _two_level(F, params):
    """Best two-level tree: frame-aligned first split scanned over signed
    magnitude pairs with depth-one-estimated endpoints, then a light
    (t, theta) polish.  Returns ``(estimate, first_split)``."""
    scale = max(1.0, float(np.linalg.norm(F)))
    dirs = _frame_directions(F, ambient=False)
    base = _PAIR_LADDER * scale
    pairing = _ladder_chords(lambda G: _endpoint_depth1_estimate(G, params), F, _dyads(*dirs), base)
    d_idx, ip, im = np.unravel_index(np.argmin(pairing), pairing.shape)
    a, b = dirs[0][d_idx], dirs[1][d_idx]
    s_pos, s_neg = float(base[ip]), float(base[im])
    t = s_pos + s_neg

    def values(X):
        th = _weight(X[:, 1])
        ends = _split_endpoints(F, (a, b, np.exp(X[:, 0]), th))
        vp, vm = _endpoint_depth1_estimate(ends, params)
        return th * vp + (1.0 - th) * vm

    [(est, x)] = _pattern_search(values, [[math.log(t), s_neg / t]], [0.3, 1.0 / 16], 10, [0, 1])
    return est, (a, b, float(np.exp(x[0])), float(_weight(x[1])))


def _split_atom(w, G, split, level, tree):
    """The atoms of ``(w, G)`` after ``split``, which is recorded in
    ``tree`` at ``level``; the atom itself when ``split`` is None."""
    if split is None:
        return [(w, G)]
    a, b, t, theta = split
    tree.append(
        {
            "level": level,
            "a": np.asarray(a, dtype=float),
            "b": np.asarray(b, dtype=float),
            "magnitude": float(t),
            "weight": float(theta),
        }
    )
    Gp, Gm = _split_endpoints(G, split)
    return [(w * theta, Gp), (w * (1.0 - theta), Gm)]


def _witness_pairing(atoms, params):
    # The weights are positive, so an infinite atom makes the sum infinite.
    W = _w2d(np.stack([G for _, G in atoms]), params)
    return sum(w * v for (w, _), v in zip(atoms, W.tolist()))


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
    closed = psi(sd.lamM, sd.delta, params)
    norm = float(np.linalg.norm(F))
    if norm > _NORM_MAX:
        raise DomainError(
            f"|F| = {norm:.6g} is above {_NORM_MAX:.6g}, the largest norm whose "
            f"search offsets keep the invariants at most {_INVARIANT_MAX:g}"
        )

    value1, split1 = _depth1(F, params, cfg)
    trees = [(split1, None, None)]

    # A two-level tree can beat every single split (the first split may
    # pass through high-energy intermediates), so rank first splits by
    # estimated two-level value, not by their depth-one objective.
    if cfg.depth >= 2 and value1 > 1e-9 * params.mu:
        est, split = _two_level(F, params)
        if est < value1:
            Gp, Gm = _split_endpoints(F, split)
            _, sp = _depth1(Gp, params, cfg, light=True)
            _, sm = _depth1(Gm, params, cfg, light=True)
            trees.append((split, sp, sm))

    best = None
    best_pairing = math.inf
    for split, sp, sm in trees:
        tree = []
        atoms = [
            atom
            for (w, G), sub in zip(_split_atom(1.0, F, split, 1, tree), (sp, sm))
            for atom in _split_atom(w, G, sub, 2, tree)
        ]
        paired = _witness_pairing(atoms, params)
        if paired < best_pairing:
            best_pairing = paired
            best = DiscreteYoungMeasure(atoms=tuple(atoms), tree=tuple(tree))
    if best is None:
        raise DomainError(
            f"no lamination witness with finite plane energy was found for "
            f"(lamM, delta) = ({sd.lamM}, {sd.delta})"
        )

    # Exploration depths beyond two: keep splitting witness atoms with a
    # light single-split pass while it pays.
    for level in range(3, cfg.depth + 1):
        atoms = []
        tree = list(best.tree)
        for w, G in best.atoms:
            _, sub = _depth1(G, params, cfg, light=True)
            atoms += _split_atom(w, G, sub, level, tree)
        if len(tree) == len(best.tree):  # no atom split
            break
        paired = _witness_pairing(atoms, params)
        if paired < best_pairing:
            best_pairing = paired
            best = DiscreteYoungMeasure(atoms=tuple(atoms), tree=tuple(tree))
        else:
            break
    return OracleResult(
        value=best_pairing,
        best_measure=best,
        closed_form=float(closed),
        gap=best_pairing - float(closed),
    )


def relax_along_line(Ft, a, b, params):
    """One-dimensional convexification of the plane energy along a line.

    Samples ``s -> W(Ft + s a b^T)`` at ``_LINE_SAMPLES`` evenly spaced
    offsets on each side of 0 out to ``10 max(1, |Ft|)`` and returns the
    lower convex envelope of the samples at ``s = 0``: the least of
    ``W(Ft)`` and the lowest chord through 0 between samples on either
    side.  Infinite samples never win; the result is +inf only when every
    candidate is.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if abs(np.linalg.norm(a) - 1.0) > 1e-12 or abs(np.linalg.norm(b) - 1.0) > 1e-12:
        raise ValueError("line direction must be a unit rank-one pair")
    F = np.asarray(Ft, dtype=float)
    span = _SPLIT_TOP * max(1.0, float(np.linalg.norm(F)))
    s = span * np.arange(1, _LINE_SAMPLES + 1) / _LINE_SAMPLES
    chords = _ladder_chords(lambda G: _w2d(G, params), F, _dyads(a, b), s)
    return float(np.min(chords, initial=_w2d(F, params)))
