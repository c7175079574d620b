"""Numerical rank-one convexification of the plane energy.

A depth-limited lamination search gives an upper bound on the rank-one
convex envelope without trusting the closed-form relaxed energy.  Along
one rank-one line ``F + s a b^T`` the best single split is the lower
convex envelope of the plane energy at ``s = 0``: the lowest chord
through 0 that joins a sample with ``s > 0`` to one with ``s < 0``.
One function, ``_chords``, scores such chords everywhere, over ladders
of offsets on both sides of the target (``_ladder_values``), and one
kernel, ``_w2d``, evaluates every plane energy of a matrix.  Depth one
takes the lowest chord along each searched direction; depth two scans
two-level trees whose first split is a chord between depth-one estimates
of both endpoints (each the lowest chord along the endpoint's frame
directions).  The plane energy depends on a matrix only through its
singular values, so the estimate forms neither frames nor line matrices:
the invariants along an endpoint's frame lines have closed forms in its two
singular values (``_frame_lines``), four of the six lines are even in the
offset, and only the other two need chord tables.
Depth one scans the target's six frame directions (``_frame_scan``), one
chord table in all.  The best candidates are polished side by side by a
derivative-free pattern search whose rounds poll every move of every live
search in one batch; a search stops once its steps are spent (below
``_STEP_MIN``), and the polish leaves the frame, because its coordinates
are angles.  The reported value is always the plane-energy pairing of an
explicit witness measure.
The search budget (directions, offsets, polish rounds) is a set of module
constants; ``OracleConfig`` chooses only the depth.
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

_T_SCAN = 40  # offsets per side of each frame line of the full depth-one scan
_REFINE_ITERS = 100  # pattern-search rounds of the full depth-one polish
_LINE_SAMPLES = 800  # offsets per side of relax_along_line
# A pattern search stops once every active step is below this: the
# standard step-size termination of generalized pattern search.
_STEP_MIN = 1e-8
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
# Unit ladders of offsets, scaled by max(1, |F|) per call: the full and
# the light single split's, the first splits of two-level trees, and the
# endpoint estimate's frame chords.
_SCAN_LADDER = np.geomspace(1e-3, _SPLIT_TOP, _T_SCAN)
_LIGHT_LADDER = np.geomspace(1e-3, _SPLIT_TOP, 16)
_PAIR_LADDER = np.geomspace(1e-2, _PAIR_TOP, 24)
_ENDPOINT_LADDER = np.geomspace(1e-2, _ENDPOINT_TOP, 14)


@dataclass(frozen=True)
class OracleConfig:
    """Lamination depth of the oracle.

    The search budget is fixed: the target's six frame directions,
    ``_T_SCAN`` offsets per side of each rank-one line and at most
    ``_REFINE_ITERS`` polish rounds, each search stopping once its steps
    are below ``_STEP_MIN``.  ``depth`` is the lamination order searched
    (1 or 2, deeper levels split witness atoms further).  The search is
    deterministic.
    """

    depth: int = 2

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


def _frame_directions(sd):
    """Rank-one directions ``(a, b)`` of the singular frame ``sd`` (the
    ``svd32`` of one ``F``), ``(Q[:, i], R[j, :])`` with ``i`` outer:
    shapes ``(6, 3)`` and ``(6, 2)``."""
    return np.repeat(sd.Q.T, 2, axis=0), np.tile(sd.R, (3, 1))


def _unit_vectors(pol, az, beta):
    """The angle map of the search: unit 3-vectors ``a`` from polar and
    azimuthal angles, unit 2-vectors ``b`` from one angle; on arrays of
    one shape."""
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
    """Generalized pattern search with a complete poll from each point of
    ``starts``, side by side; deterministic.

    A round polls ``x + step_k e_k`` and ``x - step_k e_k`` along every
    ``active`` coordinate ``k`` of every search, all in one call of
    ``values``, which maps a batch of points, shape ``(m, len(x0))``, to
    their values.  A search moves to its lowest poll point when that beats
    its best value (ties go to the first: coordinates in ``active`` order,
    ``+`` before ``-``) and doubles the step it moved along; a search that
    does not improve halves all of its steps.  A search whose active steps
    are all below ``_STEP_MIN`` is spent and is no longer polled, so each
    search takes the path it would take alone.  At most ``iters`` rounds
    follow the call on the starts; they end early once every search is
    spent.  ``steps`` is one row of steps for every start, or one row per
    start.  Returns ``(best, x)`` for each start.
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
    for _ in range(iters):
        live = np.flatnonzero((S[:, active] >= _STEP_MIN).any(axis=1))
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


def _frame_scan(F, params, dirs, offsets, top_k):
    """Top candidates over the directions ``dirs``, at most one per
    direction: the lowest chord through ``F`` between the ``offsets``
    ladders on either side, ranked by value with ties broken on the
    direction index.  Directions without a finite chord give none.

    A chord from ``s+`` to ``-s-`` is the split ``t = s+ + s-``,
    ``theta = s- / t``: weight ``theta`` on ``F + (1 - theta) t a b^T``.
    """
    n = len(offsets)
    chords = _ladder_chords(lambda G: _w2d(G, params), F, _dyads(*dirs), offsets)
    chords = chords.reshape(len(chords), -1)
    arg = np.argmin(chords, axis=1)
    lowest = chords[np.arange(len(chords)), arg]
    out = []
    for d in np.argsort(lowest, kind="stable")[:top_k]:
        if np.isfinite(lowest[d]):
            i, j = divmod(int(arg[d]), n)
            s_pos, s_neg = float(offsets[i]), float(offsets[j])
            t = s_pos + s_neg
            out.append((float(lowest[d]), (dirs[0][d], dirs[1][d], t, s_neg / t)))
    return out


def _depth1(F, params, light=False, sd=None):
    """Best single split (or none): a scan of the six frame directions of
    ``F`` plus a pattern-search polish of the top candidates, side by side.
    The polish moves the directions off the frame, because its
    coordinates are angles.  ``sd`` is ``svd32(F)``, when the caller has
    it.

    Returns ``(value, split_or_None)`` with ``split = (a, b, t, theta)``.
    """
    w0 = _w2d(F, params)
    scale = max(1.0, float(np.linalg.norm(F)))
    if sd is None:
        sd = svd32(F)
    if light:
        ladder, top_k, iters = _LIGHT_LADDER, 3, 28
    else:
        ladder, top_k, iters = _SCAN_LADDER, 6, _REFINE_ITERS
    candidates = _frame_scan(F, params, _frame_directions(sd), ladder * scale, top_k)
    starts = [[*_angles_of(a, b), math.log(t), theta] for _, (a, b, t, theta) in candidates]
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


def _frame_lines(l1, l2, s):
    """Invariants ``(lamM, delta)`` along the frame lines of a matrix with
    singular values ``l1 >= l2``: five pairs, broadcast over ``l1``,
    ``l2`` and the positive offsets ``s`` of shape ``(..., n)``.

    With ``E = Q D R``, the line ``E + s Q[:, i] R[j, :]`` has the plane
    energies of ``D + s e_i e_j^T``, whose singular values are
    ``(|l1 + s|, l2)`` on (0, 0), ``(l1, |l2 + s|)`` on (1, 1),
    ``(hypot(l1, s), l2)`` on (2, 0) and ``(l1, hypot(l2, s))`` on
    (2, 1); on (0, 1) and (1, 0), which are the same, their product is
    ``l1 l2`` and the larger one ``(hypot(l1 + l2, s) + hypot(l1 - l2, s))
    / 2``.  The first two lines are returned at the offsets ``s`` then
    ``-s``, shape ``(..., 2 n)``; the other three are even in ``s`` and are
    returned at ``s`` only, in the order (0, 1), (2, 0), (2, 1).
    """
    both = np.concatenate([s, -s], axis=-1)
    p, q = np.abs(l1 + both), np.abs(l2 + both)
    h1, h2 = np.hypot(l1, s), np.hypot(l2, s)
    return [
        (np.maximum(p, l2), p * l2),
        (np.maximum(l1, q), l1 * q),
        (0.5 * (np.hypot(l1 + l2, s) + np.hypot(l1 - l2, s)), l1 * l2),
        (h1, h1 * l2),
        (np.maximum(l1, h2), l1 * h2),
    ]


def _endpoint_depth1_estimate(E, params):
    """Vectorized depth-one estimate for endpoint matrices of any leading
    shape, ``(..., 3, 2) -> (...)``.

    For each endpoint the estimate is the least of its own plane energy
    and the lowest chord through it along its six frame-aligned rank-one
    directions, with offsets on a log ladder of ``max(1, |E|)`` on both
    sides.  Upper bound by construction; used only to rank first-level
    splits of two-level trees.

    No frame is formed: the plane energies along the frame lines are
    those of the closed-form invariants of ``_frame_lines``, from the
    endpoint's singular values.  The lowest chord through 0 of a line
    even in ``s`` is its lowest sample (the chord between ``s_k`` and
    ``-s_k`` is ``w(s_k)``, and no chord is below its lower end), so only
    the lines (0, 0) and (1, 1) get chord tables.
    """
    E = np.asarray(E, dtype=float)
    l1, l2 = (np.asarray(x)[..., None] for x in singular_values(E))
    scale = np.maximum(1.0, np.linalg.norm(E.reshape(E.shape[:-2] + (6,)), axis=-1))
    s = scale[..., None] * _ENDPOINT_LADDER
    n = s.shape[-1]
    # Columns: E itself, the two ladders of (0, 0) and (1, 1), then the
    # even lines on one side; one plane-energy call.
    pairs = [(l1, l1 * l2)] + _frame_lines(l1, l2, s)
    lamM, delta = (
        np.concatenate(cols, axis=-1) for cols in zip(*(np.broadcast_arrays(*pr) for pr in pairs))
    )
    W = plane_energy_values(lamM, delta, params)
    odd = W[..., 1 : 1 + 4 * n].reshape(W.shape[:-1] + (2, 2 * n))
    chords = _chords(odd[..., :n], odd[..., n:], s[..., None, :], s[..., None, :])
    lowest = np.minimum(W[..., 0], W[..., 1 + 4 * n :].min(axis=-1))
    return np.minimum(lowest, chords.min(axis=(-3, -2, -1)))


def _two_level(F, params, sd=None):
    """Best two-level tree: frame-aligned first split scanned over signed
    magnitude pairs with depth-one-estimated endpoints, then a light
    (t, theta) polish.  ``sd`` is ``svd32(F)``, when the caller has it.
    Returns ``(estimate, first_split)``."""
    scale = max(1.0, float(np.linalg.norm(F)))
    dirs = _frame_directions(svd32(F) if sd is None else sd)
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

    [(est, x)] = _pattern_search(values, [[math.log(t), s_neg / t]], [0.3, 1.0 / 16], 20, [0, 1])
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
    direction (the six of the target's singular frame) as a candidate
    split, and polishes the best ones by pattern search; at
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

    value1, split1 = _depth1(F, params, sd=sd)
    trees = [(split1, None, None)]

    # A two-level tree can beat every single split (the first split may
    # pass through high-energy intermediates), so rank first splits by
    # estimated two-level value, not by their depth-one objective.
    if cfg.depth >= 2 and value1 > 1e-9 * params.mu:
        est, split = _two_level(F, params, sd)
        if est < value1:
            Gp, Gm = _split_endpoints(F, split)
            _, sp = _depth1(Gp, params, light=True)
            _, sm = _depth1(Gm, params, light=True)
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
            _, sub = _depth1(G, params, light=True)
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
    candidate is.  Raises ``ValueError`` unless ``Ft`` is a finite 3x2
    matrix and ``(a, b)`` a pair of unit 3- and 2-vectors.
    """
    F = np.asarray(Ft, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if F.shape != (3, 2) or a.shape != (3,) or b.shape != (2,):
        raise ValueError(
            f"need Ft of shape (3, 2), a of shape (3,) and b of shape (2,), "
            f"got {F.shape}, {a.shape} and {b.shape}"
        )
    if not np.all(np.isfinite(F)):
        raise ValueError("Ft must be finite")
    # Written so that a NaN norm fails the test.
    if not (abs(np.linalg.norm(a) - 1.0) <= 1e-12 and abs(np.linalg.norm(b) - 1.0) <= 1e-12):
        raise ValueError("line direction must be a unit rank-one pair")
    span = _SPLIT_TOP * max(1.0, float(np.linalg.norm(F)))
    s = span * np.arange(1, _LINE_SAMPLES + 1) / _LINE_SAMPLES
    chords = _ladder_chords(lambda G: _w2d(G, params), F, _dyads(a, b), s)
    return float(np.min(chords, initial=_w2d(F, params)))
