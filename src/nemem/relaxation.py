"""Numerical rank-one convexification of the plane energy.

A depth-limited lamination search gives an upper bound on the rank-one
convex envelope without trusting the closed-form relaxed energy.  Along
one rank-one line ``F + s a b^T`` the best single split is the lower
convex envelope of the plane energy at ``s = 0``: the lowest chord
through 0 that joins a sample with ``s > 0`` to one with ``s < 0``
(``_chords``, the one chord formula).  Every plane energy of a matrix is
``_w2d``: ``svd32`` then ``plane_energy_values``, as ``plane_energy``.
The plane energy depends on a matrix only through its singular values,
so along its five frame lines (``_LINES``), the distinct rank-one lines
along pairs of its singular vectors, it has closed forms in two numbers
(``_frame_lines``).  It is 0 only on a short segment, which a ladder of
offsets steps over, so the lines also reach the segment's ends and
midpoint (``membrane._soft_stretches``) in closed form: nine well points
per matrix (``_wells``).  One scorer, ``_frame_tables``, scores the lines
at a ladder and at the wells, with chord tables for the two lines odd in
the offset only.  One split search, ``_best_splits``, serves both depths
on a stack of singular values: one scan ranks each row's lines
(``_frame_chords``), and one zoom (``_zoom``) polishes the best along
their own lines, unless their chord is 0, the least a chord can be.
Depth one searches chords of plane energies.  Depth two searches first
splits of two-level trees along the target's frame lines, with chords
of an estimate of both endpoints (``_endpoint_estimate``) from their
wells alone, all read from the target's two singular values; that first
split is zoomed only when its scan's lowest chord is not above the best
single split's value by more than rounding noise (``_lower``), and
``_deepen`` splits its endpoints by one depth-one pass.  A split, or a
two-level tree, is taken only when its value is lower by more than
rounding noise.  The reported value is always the pairing of an explicit
witness measure with ``plane_energy``, bit for bit.  The search budget
is a set of module constants; ``OracleConfig`` chooses only the depth.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .algebra import svd32
from .membrane import _INVARIANT_MAX, DomainError, _soft_stretches, plane_energy_values, psi
from .microstructure import DiscreteYoungMeasure, _split

__all__ = ["OracleConfig", "OracleResult", "relax_along_line", "relax_lamination"]

_T_SCAN = 40  # offsets per side of each frame line of the full depth-one scan
_ZOOM_POINTS = 33  # grid points per side of a zoomed chord table
_ZOOM_LEVELS = 9  # zoom levels of a split's polish
# Lines of each matrix's scan ranking that a depth-one pass zooms.  Over
# the 2340 default solves of the gap table every kept split came from the
# first or second; a test checks on every region that zooming all five
# finds the same splits, bit for bit.
_ZOOM_LINES = 2
_LINE_SAMPLES = 800  # offsets per side of relax_along_line
# Largest offsets, in units of max(1, |F|) of the matrix split: single
# splits and first splits of two-level trees.
_SPLIT_TOP = 10.0
_PAIR_TOP = 6.0
# A two-level tree's endpoints lie within (1 + _PAIR_TOP) max(1, |F|), and
# the ladder from there reaches (1 + _SPLIT_TOP) times farther.  A matrix
# of norm R has delta <= R^2 / 2, so targets up to this norm keep every
# laddered invariant within _INVARIANT_MAX.
_NORM_MAX = math.sqrt(2.0 * _INVARIANT_MAX) / ((1.0 + _PAIR_TOP) * (1.0 + _SPLIT_TOP))
# relax_along_line samples F + s a b^T with |s| <= _SPLIT_TOP max(1, |F|).
# A unit rank-one term moves the larger singular value by at most |s| and
# leaves the smaller at most F's larger one, so a sample has lamM <= |F| +
# |s| and delta <= |F| (|F| + |s|): lines through matrices up to this norm
# keep every sampled invariant within _INVARIANT_MAX.
_LINE_NORM_MAX = math.sqrt(_INVARIANT_MAX / (1.0 + _SPLIT_TOP))
# Unit ladders of offsets, scaled by max(1, |F|) per matrix: single splits
# and the first splits of two-level trees.
_SCAN_LADDER = np.geomspace(1e-3, _SPLIT_TOP, _T_SCAN)
_PAIR_LADDER = np.geomspace(1e-2, _PAIR_TOP, 24)


@dataclass(frozen=True)
class OracleConfig:
    """Lamination depth of the oracle: 1 (single splits) or 2 (also
    two-level trees).  The search budget is fixed: the five frame lines of
    each matrix split, ``_T_SCAN`` offsets per side and the line's wells,
    and a polish of the ``_ZOOM_LINES`` best single splits of the target
    and of each endpoint of a two-level tree, and of a two-level tree's
    first split, by ``_ZOOM_LEVELS`` chord tables of ``_ZOOM_POINTS``
    offsets per side.  The search is deterministic.
    """

    depth: int = 2

    def __post_init__(self):
        # bool is an Integral, but a flag passed as a depth is a mistake.
        depth = self.depth
        if isinstance(depth, bool) or not isinstance(depth, numbers.Integral) or depth not in (1, 2):
            raise ValueError(f"depth must be 1 or 2, got {self.depth!r}")


@dataclass(frozen=True)
class OracleResult:
    value: float
    best_measure: DiscreteYoungMeasure
    closed_form: float
    gap: float


def _energies(params):
    """The plane energy as a function of singular values ``(hi, lo)``."""
    return lambda hi, lo: plane_energy_values(hi, hi * lo, params)


def _w2d(G, params):
    """Plane energy of one 3x2 matrix or a batch, shape ``(..., 3, 2)``:
    the oracle's one path for matrices, composed as ``plane_energy``."""
    sd = svd32(G)
    return plane_energy_values(sd.lamM, sd.delta, params)


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


def _dyads(a, b):
    """Rank-one matrices ``a b^T`` of broadcast rows, ``(..., 3)`` and
    ``(..., 2)`` to ``(..., 3, 2)``."""
    return np.asarray(a)[..., :, None] * np.asarray(b)[..., None, :]


def _split_endpoints(F, split):
    """Endpoints ``F + (1 - theta) t a b^T`` and ``F - theta t a b^T`` of
    one split or of a batch, ``a`` of shape ``(..., 3)``, ``b`` of shape
    ``(..., 2)``, ``t`` and ``theta`` of shape ``(...)``, stacked into one
    array of shape ``(2, ..., 3, 2)``.

    Both come from one broadcast ``F + c a b^T`` with the coefficients
    ``c = ((1 - theta) t, -(theta t))``.  Negation is exact, so the second
    endpoint has the bits of ``F - theta t a b^T``.
    """
    a, b, t, theta = split
    c = np.stack([(1.0 - theta) * t, -(theta * t)])
    return F + c[..., None, None] * _dyads(a, b)


def _off_diagonal(l1, l2, c):
    m = 0.5 * (np.hypot(l1 + l2, c) + np.hypot(l1 - l2, c))
    return m, l1 * l2 / m


# The frame lines, numbered by their place here, the two odd in c first:
# each line's axes (i, j) and both singular values of D + c e_i e_j^T, in
# either order, as functions of (l1, l2, c); see _frame_lines.
_LINES = (
    ((0, 0), lambda l1, l2, c: (np.abs(l1 + c), l2)),
    ((1, 1), lambda l1, l2, c: (l1, np.abs(l2 + c))),
    ((0, 1), _off_diagonal),
    ((2, 0), lambda l1, l2, c: (np.hypot(l1, c), l2)),
    ((2, 1), lambda l1, l2, c: (l1, np.hypot(l2, c))),
)


def _frame_lines(l1, l2, c, lines, out):
    """Singular values ``hi, lo`` along the frame ``lines`` of matrices
    with singular values ``l1 >= l2`` (shape ``(...)``) at signed offsets
    ``c`` (shape ``(..., n)``), written into ``out`` of shape ``(2, ...,
    len(lines), n)``, which is returned.

    With ``E = Q D R``, the frame line ``d`` with axes ``(i, j) =
    _LINES[d][0]`` is the rank-one line ``E + c Q[:, i] R[j, :]``, with the
    singular values of ``D + c e_i e_j^T``: ``|l1 + c|`` and ``l2`` on (0,
    0), ``l1`` and ``|l2 + c|`` on (1, 1), ``hypot(l1, c)`` and ``l2`` on
    (2, 0), ``l1`` and ``hypot(l2, c)`` on (2, 1); on (0, 1) the larger is
    ``m = (hypot(l1 + l2, c) + hypot(l1 - l2, c)) / 2`` and the smaller
    ``l1 l2 / m``, also those of (1, 0), whose block is (0, 1)'s transposed.
    All but (0, 0) and (1, 1) are even in ``c``.
    """
    l1, l2 = np.asarray(l1)[..., None], np.asarray(l2)[..., None]
    for k, d in enumerate(lines):
        x, y = _LINES[d][1](l1, l2, c)
        np.maximum(x, y, out=out[0, ..., k, :])
        np.minimum(x, y, out=out[1, ..., k, :])
    return out


def _wells(l1, l2, soft):
    """The well points of matrices with singular values ``l1 >= l2`` (shape
    ``(...)``) for the stretches ``soft`` (``m`` of them), and the offsets
    that reach them along the frame lines, at most 0 where none does.  Each
    ``c`` gives ``(c, l1 l2 / c)`` on (0, 1), ``(c, l2)`` on (0, 0) and (2,
    0), and ``(l1, c)`` on (1, 1) and (2, 1): ``hi, lo`` of shape ``(2, ...,
    3, m)``.  The offsets: ``c - l`` (``l = l1, l2``) on the positive side
    of the odd lines, ``l - c`` then ``c + l`` on their negative side, and
    on the even lines, where the squared norm grows by the squared offset,
    ``sqrt(hi^2 + lo^2 - l1^2 - l2^2)``.
    """
    c = np.asarray(soft, dtype=float)
    l1, l2 = np.asarray(l1)[..., None], np.asarray(l2)[..., None]
    xy = np.empty((2,) + l1.shape[:-1] + (3, len(c)))
    xy[0, ..., :2, :], xy[0, ..., 2, :] = c, l1
    xy[1, ..., 0, :], xy[1, ..., 1, :], xy[1, ..., 2, :] = l1 * l2 / c, l2, c
    square = (xy * xy).sum(axis=0) - (l1 * l1 + l2 * l2)[..., None]
    l = np.stack([l1, l2], axis=-2)
    offsets = (c - l, np.concatenate([l - c, c + l], axis=-1), np.sqrt(np.maximum(square, 0.0)))
    points = np.sort(xy, axis=0)[::-1]
    # At an extreme r a point can lie beyond the kernel's invariant range:
    # it is not reached, and (1, 1) is evaluated in its place.
    far = (points[0] > _INVARIANT_MAX) | (points[0] * points[1] > _INVARIANT_MAX)
    if far.any():
        points[:, far] = 1.0
        for off, mask in zip(offsets, (far[..., 1:, :], np.tile(far[..., 1:, :], 2), far)):
            off[mask] = 0.0
    return points, offsets


def _frame_tables(l1, l2, s, value, soft=()):
    """The one scorer of frame lines.  For matrices with singular values
    ``l1 >= l2`` (shape ``(...)``), offsets ``s > 0`` (shape ``(..., n)``)
    and ``m`` stretches ``soft``, returns ``(own, chords, even, ends)``:
    each matrix's own value; the chords along the odd lines 0 and 1 from
    ``s`` then the positive-side wells to ``-s`` then the negative-side
    ones, shape ``(..., 2, n + m, n + 2 m)``; the samples of the even lines
    2, 3 and 4 at ``s`` then at their wells, shape ``(..., 3, n + m)``; and
    the offsets of those three axes.  A well not reached is +inf, at offset
    1.  ``value`` maps ``(hi, lo)`` to values and is called once.  An even
    line's lowest chord is its lowest sample, so it gets no chord table.
    """
    s = np.asarray(s)
    n, m = s.shape[-1], len(soft)
    lead = np.broadcast_shapes(np.shape(l1), s.shape[:-1])
    points, offsets = _wells(l1, l2, soft)
    # The values' input: the matrix, the odd lines at s and -s and the even
    # lines at s (in place, by _frame_lines), then the well points.
    V = np.empty((2,) + lead + (7 * n + 1 + 3 * m,))
    V[..., 0] = l1, l2
    c = np.concatenate([s, -s], axis=-1)
    _frame_lines(l1, l2, c, (0, 1), V[..., 1 : 4 * n + 1].reshape((2,) + lead + (2, 2 * n)))
    _frame_lines(l1, l2, s, (2, 3, 4), V[..., 4 * n + 1 : 7 * n + 1].reshape((2,) + lead + (3, n)))
    V[..., 7 * n + 1 :] = points.reshape(points.shape[:-2] + (3 * m,))
    W = value(V[0], V[1])
    odd = W[..., 1 : 4 * n + 1].reshape(lead + (2, 2 * n))
    wells = W[..., 7 * n + 1 :].reshape(lead + (3, m))
    tables = []
    for ladder, well, off in zip(
        (odd[..., :n], odd[..., n:], W[..., 4 * n + 1 : 7 * n + 1].reshape(lead + (3, n))),
        (wells[..., 1:, :], np.tile(wells[..., 1:, :], 2), wells),
        offsets,
    ):
        values = np.concatenate([ladder, well], axis=-1)
        at = np.empty(values.shape)
        at[..., :n], at[..., n:] = s[..., None, :], off
        unreached = at <= 0.0
        values[unreached], at[unreached] = np.inf, 1.0
        tables.append((values, at))
    (w_pos, s_pos), (w_neg, s_neg), (even, s_even) = tables
    return W[..., 0], _chords(w_pos, w_neg, s_pos, s_neg), even, (s_pos, s_neg, s_even)


def _frame_chords(l1, l2, s, value, soft=()):
    """The lowest chord along each frame line and its ends, from
    ``_frame_tables``: ``(own, low, s_pos, s_neg)``, the last three of shape
    ``(..., 5)``, the chord from ``s_pos`` to ``-s_neg`` (ties to the first
    in row-major order); an even line's lowest sample at ``s`` is ``s, s``.
    """
    own, chords, even, (s_pos, s_neg, s_even) = _frame_tables(l1, l2, s, value, soft)
    flat = chords.reshape(chords.shape[:-2] + (-1,))
    i, j = np.divmod(flat.argmin(axis=-1), chords.shape[-1])

    def at(x, k):
        return np.take_along_axis(x, k[..., None], axis=-1)[..., 0]

    s_k = at(s_even, even.argmin(axis=-1))
    low = np.concatenate([flat.min(axis=-1), even.min(axis=-1)], axis=-1)
    return own, low, np.concatenate([at(s_pos, i), s_k], -1), np.concatenate([at(s_neg, j), s_k], -1)


def _endpoint_estimate(params):
    """The endpoint estimate as a function of singular values ``(hi,
    lo)``: the least of a matrix's plane energy, its well samples on the
    even lines, and the chords between its wells on either side of the odd
    lines (``_frame_tables`` with no ladder).  Only the lows are taken,
    not where they lie.
    """
    energies, soft = _energies(params), _soft_stretches(params.r)

    def estimate(hi, lo):
        own, chords, even, _ = _frame_tables(hi, lo, np.empty(np.shape(hi) + (0,)), energies, soft)
        return np.minimum(own, np.minimum(chords.min(axis=(-3, -2, -1)), even.min(axis=(-2, -1))))

    return estimate


def _zoom(l1, l2, lines, s_pos, s_neg, ladder, value):
    """Zoomed chord tables along frame lines, one row per candidate: row
    ``m`` is the line ``lines[m]`` of a matrix with singular values
    ``l1[m] >= l2[m]``, started at the chord from ``s_pos[m]`` to
    ``-s_neg[m]``, a chord of the offset ``ladder`` the start was scanned
    on.  ``value`` maps singular values ``(hi, lo)`` to the values the
    chords join.  Returns the lowest chord of each row's last table and
    its ends ``(low, s_pos, s_neg)``.

    Each of ``_ZOOM_LEVELS`` levels scores the chords from ``exp(u + h g)``
    to ``-exp(v + h g)``, with ``(u, v)`` the logs of the row's ends and
    ``g`` on ``_ZOOM_POINTS`` points of [-1, 1], in closed form
    (``_frame_lines``), moves the ends to the lowest chord (ties to the
    first in row-major order) and shrinks ``h`` to two grid cells.  ``h``
    starts at two steps of the ladder.  The grid holds its centre (``g =
    0``), so a row's value never rises.  Every step is elementwise, so a
    row's result does not depend on the other rows: the rows are worked
    on ordered by line, each line's rows one contiguous slice, and
    returned in the caller's order.
    """
    g = np.linspace(-1.0, 1.0, _ZOOM_POINTS)
    n, rows = len(g), np.arange(len(lines))
    order = np.argsort(lines, kind="stable")
    l1, l2 = l1[order], l2[order]
    line_ids, first = np.unique(lines[order], return_index=True)
    spans = list(zip(line_ids.tolist(), first.tolist(), first[1:].tolist() + [len(rows)]))
    h = 2.0 * math.log(ladder[1] / ladder[0])
    X = np.log(np.stack([s_pos[order], s_neg[order]], axis=-1))
    hl = np.empty((2, len(rows), 2 * n))
    for _ in range(_ZOOM_LEVELS):
        E = X[..., None] + h * g
        s = np.exp(E)
        c = np.concatenate([s[:, 0], -s[:, 1]], axis=-1)
        for d, a, b in spans:
            _frame_lines(l1[a:b], l2[a:b], c[a:b], (d,), hl[:, a:b, None, :])
        W = value(hl[0], hl[1])
        table = _chords(W[:, :n], W[:, n:], s[:, 0], s[:, 1]).reshape(len(rows), n * n)
        i, j = np.divmod(table.argmin(axis=1), n)
        X = np.stack([E[rows, 0, i], E[rows, 1, j]], axis=-1)
        h *= 4.0 / (n - 1)
    back = np.argsort(order)
    return table.min(axis=1)[back], s[rows, 0, i][back], s[rows, 1, j][back]


def _lower(new, old):
    """Whether ``new`` is below ``old`` by more than rounding noise, 1e-12
    relative, of two floats or elementwise; a finite value is below +inf
    and -inf below a finite value.  A split, or a deeper tree, that is not
    lower than what it would replace is not taken."""
    if isinstance(new, float) and isinstance(old, float):
        return new < old and (new == -math.inf or old - new > 1e-12 * max(1.0, abs(new)))
    # inf - inf is nan where new < old fails anyway.
    with np.errstate(invalid="ignore"):
        return (new < old) & (np.isneginf(new) | (old - new > 1e-12 * np.maximum(1.0, abs(new))))


def _best_splits(l1, l2, ladder, value, top_k, bound, soft=()):
    """The one split search: the best split along the frame lines of each
    matrix of a stack with singular values ``l1 >= l2`` (shape ``(k,)``),
    of chords of ``value``, which maps ``(hi, lo)`` to values at least 0.
    One scan (``_frame_chords``) on ``ladder`` times each row's ``max(1,
    |F|) = max(1, hypot(l1, l2))`` and at the wells of ``soft`` ranks each
    row's lines, ties to the lower line.  Of the first ``top_k``, the lines
    whose chord is finite and not above ``bound`` by more than rounding
    noise (``_lower``) are kept, and those above 0 zoomed (``_zoom``), all
    rows in one call.  Returns ``(own, low, d, s_pos, s_neg)`` of shape
    ``(k,)``: each row's own value and its first lowest kept chord, along
    line ``d`` from ``s_pos`` to ``-s_neg``; with no line kept, ``d = -1``,
    the scan's lowest chord and infinite ends.
    """
    s = np.maximum(1.0, np.hypot(l1, l2))[:, None] * ladder
    own, low, s_pos, s_neg = _frame_chords(l1, l2, s, value, soft)
    least = low.min(axis=1)
    first = float(least.min())
    if not first < math.inf or _lower(bound, first):  # most two-level scans: nothing to zoom
        inf = np.full(len(low), np.inf)
        return own, least, np.full(len(low), -1), inf, inf
    rows = np.arange(len(low))[:, None]
    rank = np.argsort(low, axis=1, kind="stable")[:, :top_k]
    # Each kept line's (low, s_pos, s_neg), zoomed where its chord is above
    # 0; +inf in the slots not kept.
    found = np.stack([low[rows, rank], s_pos[rows, rank], s_neg[rows, rank]])
    kept = np.isfinite(found[0]) & ~_lower(bound, found[0])
    found[:, ~kept] = np.inf
    row, col = np.nonzero(kept & (found[0] > 0.0))
    if len(row):
        found[:, row, col] = _zoom(l1[row], l2[row], rank[row, col], *found[1:, row, col], ladder, value)
    rows, best = rows[:, 0], np.argmin(found[0], axis=1)
    low, s_pos, s_neg = found[:, rows, best]
    hit = kept.any(axis=1)
    return own, np.where(hit, low, least), np.where(hit, rank[rows, best], -1), s_pos, s_neg


def _frame_split(Q, R, d, s_pos, s_neg):
    """The split ``(a, b, t, theta)`` of the chord from ``s_pos`` to
    ``-s_neg`` along the frame line ``d`` of ``F = Q D R`` (``_LINES``),
    axes ``(i, j)``: ``a = Q[:, i]``, ``b = R[j, :]``, ``t = s_pos +
    s_neg`` and weight ``theta = s_neg / t`` on ``F + (1 - theta) t a b^T``."""
    (i, j), _ = _LINES[d]
    return Q[:, i], R[j, :], s_pos + s_neg, s_neg / (s_pos + s_neg)


def _depth1(sd, params):
    """Best single split (or none) of one matrix or of each of a stack
    of shape ``(k, 3, 2)``, from its ``svd32`` ``sd``: one search
    (``_best_splits``) of chords of the plane energy on ``_SCAN_LADDER``
    and the wells, the first ``_ZOOM_LINES`` lines of each ranking kept.
    Returns a list of ``(value, split_or_None)``, one per matrix, with
    ``split = (a, b, t, theta)`` (``_frame_split``); a split that wins by
    rounding noise only is reported as no split.
    """
    l1, l2 = np.reshape([sd.lamM, sd.lamm], (2, -1))
    own, low, d, s_pos, s_neg = _best_splits(
        l1, l2, _SCAN_LADDER, _energies(params), _ZOOM_LINES, math.inf, _soft_stretches(params.r)
    )
    Q, R = np.reshape(sd.Q, (-1, 3, 3)), np.reshape(sd.R, (-1, 2, 2))
    return [
        (v, _frame_split(Q[k], R[k], dk, s_pos[k], s_neg[k])) if dk >= 0 and _lower(v, w0) else (w0, None)
        for k, (w0, v, dk) in enumerate(zip(own.tolist(), low.tolist(), d.tolist()))
    ]


def _two_level(sd, params, bound):
    """Best two-level tree of the matrix whose ``svd32`` is ``sd``: one
    search (``_best_splits``) of its first split on ``_PAIR_LADDER`` with
    chords of the endpoint estimate, read from the target's singular values
    alone, its top line kept unless above ``bound`` by more than rounding
    noise.  Returns ``(estimate, first_split)``, or ``(lowest_chord,
    None)`` when the line is not kept.
    """
    _, [est], [d], [s_pos], [s_neg] = _best_splits(
        np.array([sd.lamM]), np.array([sd.lamm]), _PAIR_LADDER, _endpoint_estimate(params), 1, bound
    )
    return float(est), None if d < 0 else _frame_split(sd.Q, sd.R, d, s_pos, s_neg)


def _split_atom(w, G, split, level):
    """The atoms of ``(w, G)`` after ``split`` and its record at ``level``;
    the atom itself and no record when ``split`` is None."""
    if split is None:
        return [(w, G)], []
    a, b, t, theta = split
    Gp, Gm = _split_endpoints(G, split)
    return [(w * theta, Gp), (w * (1.0 - theta), Gm)], [_split(level, a, b, t, theta)]


def _deepen(atoms, tree, params):
    """The level step of a two-level tree: the depth-one pass the target
    gets (``_depth1``), over both endpoints ``atoms`` in one zoom.  Returns
    the atoms after the splits it finds and ``tree`` followed by their
    records at level 2, as new lists."""
    subs = _depth1(svd32(np.stack([G for _, G in atoms])), params)
    steps = [_split_atom(w, G, sub, 2) for (w, G), (_, sub) in zip(atoms, subs)]
    return [atom for step, _ in steps for atom in step], tree + [r for _, records in steps for r in records]


def _witness_pairing(atoms, params):
    # The weights are positive, so an infinite atom makes the sum infinite.
    W = _w2d(np.stack([G for _, G in atoms]), params)
    return sum(w * v for (w, _), v in zip(atoms, W.tolist()))


def _check_norm(F, bound, offsets):
    """The norm of the 3x2 matrix ``F``; a ``DomainError`` when it is
    above ``bound``, the largest norm whose ``offsets`` keep the invariants
    at most ``_INVARIANT_MAX``.  Non-finite entries are left to the caller."""
    # A finite matrix's norm can overflow; math.hypot scales, for the message.
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(F))
    if norm > bound and np.isfinite(F).all():
        raise DomainError(
            f"|F| = {math.hypot(*F.flat):.6g} is above {bound:.6g}, the largest norm whose "
            f"{offsets} keep the invariants at most {_INVARIANT_MAX:g}"
        )
    return norm


def relax_lamination(Ft, params, cfg=None):
    """Depth-limited lamination estimate of the relaxed energy.

    Takes the lowest chord through ``Ft`` along each of the target's five
    frame lines, at a ladder of offsets and at the offsets that reach the
    plane energy's zero set, as a candidate split, and polishes the best
    ones along their lines by zoomed chord tables; at depth two, scans
    two-level trees whose endpoints are scored by chords between their own
    points of the zero set, polishes the best one unless its estimate is
    above the best single split's value, splits its endpoints by their
    depth-one pass, and keeps it only when its pairing is lower.  "Above"
    and "lower" mean by more than 1e-12 relative.  The value is the
    plane-energy pairing of the returned witness measure, an upper bound
    on the rank-one convex envelope by construction.

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
    ValueError
        When ``Ft`` is not a finite 3x2 matrix.
    TypeError
        When ``cfg`` is neither None nor an ``OracleConfig``.
    """
    if cfg is None:
        cfg = OracleConfig()
    elif not isinstance(cfg, OracleConfig):
        raise TypeError(f"cfg must be an OracleConfig or None, got {type(cfg).__name__}")
    F = np.asarray(Ft, dtype=float)
    # The bound is checked before svd32 and psi, which would refuse the
    # invariants of a target far above it with a plain ValueError.
    _check_norm(F, _NORM_MAX, "search offsets")
    sd = svd32(F)
    closed = psi(sd.lamM, sd.delta, params)

    [(value1, split1)] = _depth1(sd, params)
    atoms, tree = _split_atom(1.0, F, split1, 1)
    best_pairing = _witness_pairing(atoms, params)

    # A two-level tree can beat every single split (the first split may
    # pass through high-energy intermediates), so rank first splits by
    # estimated two-level value, not by their depth-one objective.  A
    # first split whose scan is above the best single split is not zoomed.
    if cfg.depth == 2 and value1 > 1e-9 * params.mu:
        _, split = _two_level(sd, params, value1)
        if split is not None:
            deeper, deeper_tree = _deepen(*_split_atom(1.0, F, split, 1), params)
            paired = _witness_pairing(deeper, params)
            if _lower(paired, best_pairing):
                best_pairing, atoms, tree = paired, deeper, deeper_tree
    if not best_pairing < math.inf:
        raise DomainError(
            f"no lamination witness with finite plane energy was found for "
            f"(lamM, delta) = ({sd.lamM}, {sd.delta})"
        )
    return OracleResult(
        value=best_pairing,
        best_measure=DiscreteYoungMeasure(atoms=tuple(atoms), tree=tuple(tree)),
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
    matrix and ``(a, b)`` a pair of unit 3- and 2-vectors, and
    ``DomainError`` (a ``ValueError``) when ``|Ft|`` exceeds
    ``_LINE_NORM_MAX``, so that the samples would reach invariants above
    ``_INVARIANT_MAX``.
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
    norm = _check_norm(F, _LINE_NORM_MAX, "line samples")
    span = _SPLIT_TOP * max(1.0, norm)
    s = span * np.arange(1, _LINE_SAMPLES + 1) / _LINE_SAMPLES
    W = _w2d(F + np.concatenate([s, -s])[:, None, None] * _dyads(a, b), params)
    chords = _chords(W[:_LINE_SAMPLES], W[_LINE_SAMPLES:], s, s)
    return float(np.min(chords, initial=_w2d(F, params)))
